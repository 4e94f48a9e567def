"""The shared allocation pipeline behind both control planes.

Saba's allocation path (Eq. 2 solve -> PL clustering -> hierarchical
queue mapping -> WFQ programming, Sections 4.2-4.3 and 5.3) used to be
implemented twice: once in :class:`~repro.core.controller.SabaController`
and once in :class:`~repro.core.distributed.DistributedControllerGroup`,
and the copies drifted (reserved-queue handling, usable-queue counts,
observability events).  This module is the single implementation both
frontends now share, factored into the stages the paper describes:

1. **model lookup** -- ``view.model_of``/``view.pl_of`` resolve each
   application at a port to its sensitivity model and priority level
   (per-application models for the centralized controller, PL-centroid
   models from the mapping database for the distributed design);
2. **PL state** -- owned by the frontend (incremental online clustering
   or the static offline database); the pipeline only observes it
   through the view's ``epoch``;
3. **hierarchy** -- ``view.hierarchy()``/``view.row_of`` expose the
   agglomerative PL hierarchy used for queue mapping;
4. **queue mapping** -- :meth:`PLHierarchy.best_clustering` over the
   active PL rows, honouring the reserved queue;
5. **weight solve** -- Eq. 2 over the applications present, memoised
   on the solver's exact input: the name-sorted tuple of the
   applications' :class:`~repro.core.sensitivity.SensitivityModel`
   values.  A clustering change does not touch the cache (the models a
   port solves over do not depend on it); a model refit is a new model
   value, hence a new key;
6. **programming** -- :class:`PortProgrammer` installs the PL-to-queue
   mapping and summed per-queue weights into the port's
   :class:`~repro.simnet.switch.QueueTable` and emits the
   ``port_programmed``/``port_reset`` events.

On top of the shared path sit two perf layers:

* **programmed-signature caching** (on by default): each port's last
  programmed state is summarised as ``(hierarchy epoch, multiset of
  (model name, PL) pairs)`` plus the queue-table generation written.
  A reallocation whose signature matches skips re-clustering,
  ``QueueTable.program`` and the downstream ``invalidate_rates``
  component re-solve entirely.  This is *exact*, not approximate: the
  programmed weights are a pure function of the signature, and fluid
  rates are a pure function of (active flows, weights, capacities), so
  re-deriving an identical table cannot change any rate.  The
  generation check catches out-of-band table mutations (e.g. a policy
  swap resetting ports).
* **event coalescing** (opt-in via ``coalesce_quantum``): connection
  create/destroy updates within one sim-time quantum are batched into
  a single reallocation pass over the deduplicated link set, scheduled
  on the fabric's event loop.  Flows started meanwhile run under the
  last-programmed weights -- exactly the switch-update latency a real
  control plane has.  Eager updates (registration changes) flush the
  pending set into their own pass so ordering stays deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.core.allocation import DEFAULT_MIN_WEIGHT, optimize_weights
from repro.core.clustering import PLHierarchy
from repro.core.sensitivity import SensitivityModel
from repro.errors import RegistrationError
from repro.obs.events import (
    NULL_OBSERVER,
    PORT_PROGRAMMED,
    PORT_RESET,
    REALLOCATION,
    SOLVE_BEGIN,
    SOLVE_END,
    Observer,
)
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import WFQScheduler, fecn_collapse
from repro.simnet.switch import QueueTable

#: Fraction of link capacity managed by Saba; both evaluations use
#: 100 % ("we reserve 100% of the link capacity to be managed by
#: Saba", Section 8.1).
DEFAULT_C_SABA = 1.0

#: Signature marker for a port in the unprogrammed (reset) state.
_RESET_SIG = ("__reset__",)


class AllocationView(Protocol):
    """What the pipeline needs to know about the frontend's PL state.

    The centralized controller adapts its incremental clustering state
    to this protocol; the distributed design adapts its static mapping
    database.  ``epoch`` must change whenever PL membership, centroid
    models, the hierarchy, or any answer of ``model_of`` change -- it
    keys the per-port signature cache.  (The Eq. 2 weight cache keys on
    the ``model_of`` values themselves.)
    """

    @property
    def epoch(self) -> int:
        """Monotonic hierarchy/centroid revision."""
        ...

    def pl_of(self, job_id: str) -> Optional[int]:
        """Priority level of a registered application."""
        ...

    def model_of(self, job_id: str) -> SensitivityModel:
        """Sensitivity model the weight solve should use."""
        ...

    def workload_of(self, job_id: str) -> Optional[str]:
        """Workload name (operator-facing; ``describe_port``)."""
        ...

    def hierarchy(self) -> Optional[PLHierarchy]:
        """Current PL hierarchy (``None`` while no PL exists)."""
        ...

    def row_of(self, pl: int) -> int:
        """Hierarchy row index of a PL id."""
        ...


@dataclass
class PipelineStats:
    """Counters the pipeline keeps about its own work."""

    passes: int = 0
    port_allocations: int = 0
    port_resets: int = 0
    optimizer_calls: int = 0
    solver_cache_hits: int = 0
    signature_skips: int = 0
    programs: int = 0
    invalidations: int = 0
    invalidations_skipped: int = 0
    coalesced_updates: int = 0
    coalesce_flushes: int = 0


def make_port_scheduler(
    qtable: QueueTable, collapse_alpha: Optional[float]
) -> WFQScheduler:
    """WFQ scheduler bound to a live queue table (both frontends).

    A reprogrammed port takes effect at the next rate recomputation --
    exactly how a real switch update behaves.  ``collapse_alpha``
    threads the underlying transport's FECN congestion collapse in.
    """
    efficiency = fecn_collapse(collapse_alpha) if collapse_alpha else None
    return WFQScheduler(
        queue_of=lambda flow, t=qtable: t.queue_of(flow.pl),
        weight_of=lambda q, t=qtable: t.weight_of(q),
        efficiency_fn=efficiency,
    )


class PortProgrammer:
    """Final pipeline stage: write one port's queue table.

    Owns the reserved-queue policy (shifted Saba queue indices, the
    ``1 - c_saba`` reserved share, the default queue for untagged
    traffic) and the ``port_programmed``/``port_reset`` emissions, so
    both frontends behave identically by construction.
    """

    def __init__(
        self,
        c_saba: float,
        reserved_queue: Optional[int],
        observer: Observer,
        metrics_prefix: str,
    ) -> None:
        self.c_saba = c_saba
        self.reserved_queue = reserved_queue
        self.observer = observer
        self.metrics_prefix = metrics_prefix

    def usable_queues(self, qtable: QueueTable) -> int:
        """Queues available to Saba traffic at this port."""
        reserved = 1 if self.reserved_queue is not None else 0
        return qtable.num_queues - reserved

    def shift_reserved(self, pl_to_queue: Dict[int, int]) -> Dict[int, int]:
        """Move Saba's queue indices off the reserved index."""
        if self.reserved_queue is None:
            return pl_to_queue
        return {
            pl: q if q < self.reserved_queue else q + 1
            for pl, q in pl_to_queue.items()
        }

    def program(
        self,
        qtable: QueueTable,
        link_id: str,
        pl_to_queue: Dict[int, int],
        queue_weights: Dict[int, float],
        n_apps: int,
        now: float,
        context: Mapping[str, object],
    ) -> None:
        if self.reserved_queue is not None:
            queue_weights = dict(queue_weights)
            queue_weights[self.reserved_queue] = max(0.0, 1.0 - self.c_saba)
        qtable.program(pl_to_queue, queue_weights)
        if self.reserved_queue is not None:
            qtable.default_queue = self.reserved_queue
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter(
                f"{self.metrics_prefix}.ports_programmed"
            ).inc()
            obs.emit(
                PORT_PROGRAMMED, now, link=link_id, apps=n_apps,
                **context, **qtable.snapshot(),
            )

    def reset(
        self,
        qtable: QueueTable,
        link_id: str,
        now: float,
        context: Mapping[str, object],
    ) -> None:
        qtable.reset()
        obs = self.observer
        if obs.enabled:
            obs.emit(
                PORT_RESET, now, link=link_id,
                generation=qtable.generation, **context,
            )


class AllocationPipeline:
    """Frontend-agnostic per-port allocation (stages 1-6 above).

    The frontend owns registration, PL state, and per-port connection
    accounting; the pipeline owns everything from "which applications
    send at this port" to the programmed queue table: queue mapping,
    the memoised Eq. 2 solve, programming, observability emission, and
    fabric rate invalidation.
    """

    def __init__(
        self,
        view: AllocationView,
        counter_of: Callable[[str], Optional[Mapping[str, int]]],
        *,
        metrics_prefix: str = "controller",
        c_saba: float = DEFAULT_C_SABA,
        reserved_queue: Optional[int] = None,
        use_signature_cache: bool = True,
        coalesce_quantum: float = 0.0,
        observer: Optional[Observer] = None,
        port_context: Optional[
            Callable[[str], Mapping[str, object]]
        ] = None,
    ) -> None:
        """
        Args:
            view: the frontend's PL state (see :class:`AllocationView`).
            counter_of: resolves a link id to its per-application
                connection counter (falsy/None means no connections).
            metrics_prefix: metric namespace (``controller`` /
                ``distributed``) so existing dashboards keep working.
            c_saba / reserved_queue: Eq. 2 and programming
                parameters, as on the frontends.
            use_signature_cache: skip ports whose programmed signature
                is unchanged (exact; see the module docstring).
            coalesce_quantum: sim-seconds to batch connection-churn
                updates over; ``0`` (default) reallocates eagerly.
            observer: observability sink (:mod:`repro.obs`).
            port_context: extra key/values for per-port events (the
                distributed frontend adds the owning shard).
        """
        self._view = view
        self._counter_of = counter_of
        self.metrics_prefix = metrics_prefix
        self.c_saba = c_saba
        self.use_signature_cache = use_signature_cache
        self.coalesce_quantum = coalesce_quantum
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.programmer = PortProgrammer(
            c_saba=c_saba,
            reserved_queue=reserved_queue,
            observer=self.observer,
            metrics_prefix=metrics_prefix,
        )
        self.stats = PipelineStats()
        self._port_context = port_context
        self._fabric: Optional[FluidFabric] = None
        #: Name-sorted models at a port -> their Eq. 2 weights.  Not
        #: bounded: the most any measured run's pipeline holds is 775
        #: (the Figure 10 co-run; DESIGN.md §5f lists the others).
        self._weight_cache: Dict[
            Tuple[SensitivityModel, ...], List[float]
        ] = {}
        #: link_id -> (signature, generation written) of the last
        #: program/reset this pipeline performed at the port.
        self._signatures: Dict[str, Tuple[object, int]] = {}
        #: Pending coalesced link ids, in arrival order.
        self._pending: Dict[str, None] = {}
        self._flush_scheduled = False

    @property
    def reserved_queue(self) -> Optional[int]:
        return self.programmer.reserved_queue

    # -- wiring -----------------------------------------------------------------

    def attach(self, fabric: FluidFabric) -> None:
        """Bind to a fabric; invalidates all port signatures (the new
        fabric's queue tables are unknown to this pipeline)."""
        self._fabric = fabric
        self._signatures.clear()
        self._pending.clear()
        self._flush_scheduled = False

    def _sim_now(self) -> float:
        """Simulated timestamp for event records (0 when detached)."""
        return self._fabric.sim.now if self._fabric is not None else 0.0

    # -- entry points -----------------------------------------------------------

    def reallocate(
        self, link_ids: Iterable[str], *, coalesce: bool = False
    ) -> None:
        """Re-derive and re-program the given ports.

        ``coalesce=True`` marks the update as batchable connection
        churn: with a positive ``coalesce_quantum`` and an attached
        fabric, the links join the pending set and one flush pass is
        scheduled a quantum from now.  Eager calls merge any pending
        links into their own pass, so no update is ever lost or
        reordered across an eager boundary.
        """
        link_ids = list(link_ids)
        if (
            coalesce
            and self.coalesce_quantum > 0.0
            and self._fabric is not None
        ):
            for link_id in link_ids:
                self._pending[link_id] = None
            self.stats.coalesced_updates += 1
            if not self._flush_scheduled:
                self._flush_scheduled = True
                sim = self._fabric.sim
                sim.schedule_at(
                    sim.now + self.coalesce_quantum, self._flush
                )
            return
        if self._pending:
            for link_id in link_ids:
                self._pending[link_id] = None
            link_ids = list(self._pending)
            self._pending.clear()
        self._run_pass(link_ids)

    def flush_pending(self) -> None:
        """Run any pending coalesced updates now (deterministic
        teardown and tests; the scheduled flush becomes a no-op)."""
        if self._pending:
            link_ids = list(self._pending)
            self._pending.clear()
            self.stats.coalesce_flushes += 1
            self._run_pass(link_ids)

    def _flush(self) -> None:
        self._flush_scheduled = False
        self.flush_pending()

    def forget_ports(self, link_ids: Iterable[str]) -> int:
        """Drop the signature cache for the given ports; returns how
        many entries were dropped.

        Used when a port's hardware state can no longer be trusted --
        e.g. a link came back from an outage and must be reprogrammed
        even if the app mix at the port is unchanged.  The next
        :meth:`reallocate` pass over a forgotten port always programs
        it.
        """
        dropped = 0
        for link_id in link_ids:
            if self._signatures.pop(link_id, None) is not None:
                dropped += 1
        return dropped

    def recompute_ports(self, link_ids: Iterable[str]) -> float:
        """Recompute the given ports' allocations; returns seconds.

        The Figure 12 benchmark path: "the time the controller takes
        to compute the bandwidth share of applications for all
        switches".  Every port is recomputed in full: the probe
        bypasses the signature cache and solves Eq. 2 at every port,
        neither reading nor writing the weight cache.  No reallocation
        event is emitted and rates are not invalidated -- this is a
        timing probe, not a control action.
        """
        t0 = time.perf_counter()
        for link_id in list(link_ids):
            self._reallocate_port(link_id, probe=True)
        return time.perf_counter() - t0

    # -- the reallocation pass --------------------------------------------------

    def _run_pass(self, link_ids: Sequence[str]) -> None:
        self.stats.passes += 1
        t0 = time.perf_counter()
        changed = []
        for link_id in link_ids:
            if self._reallocate_port(link_id):
                changed.append(link_id)
        elapsed = time.perf_counter() - t0
        obs = self.observer
        if obs.enabled:
            prefix = self.metrics_prefix
            obs.metrics.counter(f"{prefix}.reallocations").inc()
            obs.metrics.histogram(f"{prefix}.realloc_seconds").observe(
                elapsed
            )
            obs.emit(
                REALLOCATION, self._sim_now(), ports=len(link_ids),
                duration=elapsed,
            )
        if self._fabric is not None:
            if changed:
                # Only the reprogrammed ports' congestion components
                # need re-solving; the fabric falls back to a full
                # recompute when component-scoped solving is off.
                self._fabric.invalidate_rates(changed)
                self.stats.invalidations += 1
            else:
                # Nothing was reprogrammed: rates are a pure function
                # of (flows, weights, capacities) and none changed
                # here, so the component re-solve is skipped entirely.
                # (Flow starts/finishes mark their own links dirty.)
                self.stats.invalidations_skipped += 1

    def _context_of(self, link_id: str) -> Mapping[str, object]:
        if self._port_context is None:
            return {}
        return self._port_context(link_id)

    def _signature_of(
        self, apps: Sequence[str]
    ) -> Tuple[int, Tuple[Tuple[str, int], ...]]:
        """The exact inputs the programmed table is a function of: the
        hierarchy/centroid epoch plus the multiset of (model name, PL)
        pairs present at the port.  Connection *counts* are deliberately
        excluded -- Eq. 2 weighs applications, not connections."""
        pairs = sorted(
            (self._view.model_of(app).name, self._view.pl_of(app))
            for app in apps
        )
        return (self._view.epoch, tuple(pairs))

    def _reallocate_port(self, link_id: str, probe: bool = False) -> bool:
        """Stage 1-6 for one port; returns whether the table changed.

        ``probe`` (:meth:`recompute_ports`) recomputes the port in
        full, past the signature cache and the weight cache."""
        fabric = self._fabric
        if fabric is None:
            return False
        counter = self._counter_of(link_id)
        qtable = fabric.topology.port_table(link_id)
        obs = self.observer
        use_sig = self.use_signature_cache
        if not counter:
            if use_sig and not probe and self._signatures.get(link_id) == (
                _RESET_SIG, qtable.generation
            ):
                self._note_skip(obs)
                return False
            self.programmer.reset(
                qtable, link_id, self._sim_now(), self._context_of(link_id)
            )
            self.stats.port_resets += 1
            if use_sig:
                self._signatures[link_id] = (_RESET_SIG, qtable.generation)
            return True
        apps = sorted(counter)
        sig: Optional[Tuple[object, ...]] = None
        if use_sig:
            sig = self._signature_of(apps)
            if not probe and self._signatures.get(link_id) == (
                sig, qtable.generation
            ):
                self._note_skip(obs)
                return False
        self.stats.port_allocations += 1
        hierarchy = self._view.hierarchy()
        assert hierarchy is not None
        # Hierarchy rows are positional per epoch; PL ids are stable
        # across epochs, rows are not.
        active_pls = sorted({self._view.pl_of(a) for a in apps})
        active_rows = [self._view.row_of(pl) for pl in active_pls]
        usable = self.programmer.usable_queues(qtable)
        _level, row_to_queue = hierarchy.best_clustering(
            active_rows, max_clusters=max(1, usable)
        )
        pl_to_queue = {
            pl: row_to_queue[self._view.row_of(pl)] for pl in active_pls
        }
        pl_to_queue = self.programmer.shift_reserved(pl_to_queue)
        app_weights = self._weights_for(apps, cached=not probe)
        queue_weights: Dict[int, float] = {}
        for app, weight in zip(apps, app_weights):
            queue = pl_to_queue[self._view.pl_of(app)]
            queue_weights[queue] = queue_weights.get(queue, 0.0) + weight
        self.programmer.program(
            qtable, link_id, pl_to_queue, queue_weights, len(apps),
            self._sim_now(), self._context_of(link_id),
        )
        self.stats.programs += 1
        if use_sig:
            self._signatures[link_id] = (sig, qtable.generation)
        return True

    def _note_skip(self, obs: Observer) -> None:
        self.stats.signature_skips += 1
        if obs.enabled:
            obs.metrics.counter(
                f"{self.metrics_prefix}.signature_skips"
            ).inc()

    # -- the weight solve -------------------------------------------------------

    def _weights_for(
        self, apps: Sequence[str], cached: bool = True
    ) -> List[float]:
        """Eq. 2 over the applications at one port.

        Datacenter workloads churn connections far faster than the set
        of co-located applications changes, so the cache eliminates
        nearly all optimiser invocations in steady state.  Its key, the
        name-sorted models, is the whole input of the solve (``c_saba``
        is fixed and the floor depends only on the app count), so a hit
        returns exactly what a fresh solve would.  ``cached=False`` (the
        Figure 12 probe, which times raw calculations) neither reads
        nor writes it."""
        models = [self._view.model_of(a) for a in apps]
        order = sorted(range(len(apps)), key=lambda i: models[i].name)
        key = tuple(models[i] for i in order)
        weights_sorted = self._weight_cache.get(key) if cached else None
        obs = self.observer
        prefix = self.metrics_prefix
        if weights_sorted is None:
            self.stats.optimizer_calls += 1
            solve_stats: dict = {}
            if obs.enabled:
                obs.emit(SOLVE_BEGIN, self._sim_now(), apps=len(apps))
            t0 = time.perf_counter()
            weights_sorted = optimize_weights(
                key,
                total=self.c_saba,
                min_weight=min(
                    DEFAULT_MIN_WEIGHT, self.c_saba / (2 * len(apps))
                ),
                stats=solve_stats,
            )
            if obs.enabled:
                elapsed = time.perf_counter() - t0
                objective = sum(
                    m.predict(w)
                    for m, w in zip(key, weights_sorted)
                )
                obs.metrics.counter(f"{prefix}.solver_calls").inc()
                obs.metrics.histogram(f"{prefix}.solve_seconds").observe(
                    elapsed
                )
                obs.emit(
                    SOLVE_END, self._sim_now(), apps=len(apps),
                    solver=solve_stats["solver"],
                    iterations=solve_stats["iterations"],
                    objective=objective, duration=elapsed,
                )
            if cached:
                self._weight_cache[key] = weights_sorted
        else:
            self.stats.solver_cache_hits += 1
            if obs.enabled:
                obs.metrics.counter(f"{prefix}.solver_cache_hits").inc()
        weights = [0.0] * len(apps)
        for rank, i in enumerate(order):
            weights[i] = weights_sorted[rank]
        return weights

    # -- observability ----------------------------------------------------------

    def describe_port(self, link_id: str) -> Dict[str, object]:
        """Operator view of one port: who sends there, the PL-to-queue
        mapping in force, and the programmed weights."""
        if self._fabric is None:
            raise RegistrationError("pipeline is not attached to a fabric")
        qtable = self._fabric.topology.port_table(link_id)
        counter = self._counter_of(link_id) or {}
        apps = sorted(counter)
        return {
            "link": link_id,
            "applications": {
                app: {
                    "workload": self._view.workload_of(app),
                    "pl": self._view.pl_of(app),
                    "connections": counter[app],
                    "queue": qtable.queue_of(self._view.pl_of(app)),
                }
                for app in apps
            },
            "weights": qtable.weights,
            "generation": qtable.generation,
        }
