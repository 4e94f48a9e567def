"""The Saba controller (Section 5).

The controller keeps a registry of Saba-compliant applications and the
per-port sets of connections they have open.  On every registration,
deregistration, connection creation and connection destruction it

1. re-derives the application-to-PL mapping (K-means over sensitivity
   coefficients, Section 5.3.1) when the application set changed;
2. rebuilds the PL hierarchy (Section 5.3.2) for PL-to-queue mapping;
3. hands the affected ports to the shared
   :class:`~repro.core.pipeline.AllocationPipeline`, which solves
   Eq. 2 over the applications present, maps their PLs to the port's
   queues via the hierarchy, and programs the port's SL/VL-style
   :class:`~repro.simnet.switch.QueueTable` with the summed per-queue
   weights.

The controller doubles as the fabric's allocation policy: it installs
:class:`~repro.simnet.fairness.WFQScheduler` on every link, bound to
the live queue tables, so a reprogrammed port takes effect at the next
rate recomputation -- exactly how a real switch update behaves.

This class is a thin *frontend*: registration, incremental clustering
and per-port connection accounting live here; everything from "which
applications send at this port" down to the programmed queue table
(queue mapping, the memoised Eq. 2 solve, programming, fabric rate
invalidation, signature caching and event coalescing) is the shared
pipeline's job, identical between this and the distributed design.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import RegistrationError
from repro.obs.events import (
    APP_DEREGISTERED,
    APP_REGISTERED,
    CONN_CREATED,
    CONN_DESTROYED,
    MODEL_LOW_FIT,
    NULL_OBSERVER,
    Observer,
)
from repro.core.allocation import DEFAULT_MIN_WEIGHT
from repro.core.clustering import PLHierarchy
from repro.core.pipeline import (
    DEFAULT_C_SABA,
    AllocationPipeline,
    make_port_scheduler,
)
from repro.core.sensitivity import LOW_FIT_R2, SensitivityModel
from repro.core.table import SensitivityTable
from repro.simnet.fabric import FluidFabric
from repro.simnet.fairness import LinkScheduler
from repro.simnet.switch import NUM_PRIORITY_LEVELS

__all__ = ["DEFAULT_C_SABA", "ControllerStats", "SabaController"]


@dataclass
class ControllerStats:
    """Control-plane event counters; the allocation work they cause
    is counted in ``pipeline.stats``."""

    registrations: int = 0
    deregistrations: int = 0
    conn_creates: int = 0
    conn_destroys: int = 0
    reclusterings: int = 0


class _ControllerView:
    """Adapts the controller's clustering state to the pipeline's
    :class:`~repro.core.pipeline.AllocationView` protocol."""

    def __init__(self, controller: "SabaController") -> None:
        self._c = controller

    @property
    def epoch(self) -> int:
        # Sum of two monotonic revisions: the controller's own
        # clustering epoch and the model provider's.  Online refits
        # change model *coefficients* without changing model *names*,
        # so without the provider term the pipeline's weight and
        # signature caches would keep serving pre-refit solutions.
        return self._c._epoch + self._c._provider.epoch

    def pl_of(self, job_id: str) -> Optional[int]:
        return self._c._pl_of.get(job_id)

    def model_of(self, job_id: str) -> SensitivityModel:
        return self._c._model_of(job_id)

    def workload_of(self, job_id: str) -> Optional[str]:
        return self._c._apps.get(job_id)

    def hierarchy(self) -> Optional[PLHierarchy]:
        return self._c._hierarchy

    def row_of(self, pl: int) -> int:
        return self._c._row_of[pl]


class SabaController:
    """Centralized controller: registration API + fabric policy."""

    name = "saba"

    def __init__(
        self,
        table: SensitivityTable,
        num_pls: int = NUM_PRIORITY_LEVELS,
        c_saba: float = DEFAULT_C_SABA,
        min_weight: float = DEFAULT_MIN_WEIGHT,
        solver: str = "auto",
        collapse_alpha: Optional[float] = None,
        reserved_queue: Optional[int] = None,
        use_weight_cache: bool = True,
        use_signature_cache: bool = True,
        coalesce_quantum: float = 0.0,
        seed: int = 0,
        observer: Optional[Observer] = None,
        model_provider: Optional[object] = None,
    ) -> None:
        """
        Args:
            table: profiler output (workload -> sensitivity model).
            num_pls: priority levels supported by the network
                (InfiniBand: 16 service levels).
            c_saba: link-capacity share managed by Saba (Eq. 2's
                constraint right-hand side).
            min_weight: starvation floor per application.
            solver: Eq. 2 solver ("auto" / "slsqp" / "kkt" / "projgrad").
            collapse_alpha: per-queue congestion-control loss of the
                underlying transport (see
                :func:`repro.simnet.fairness.fecn_collapse`).  Saba
                "does not mandate any changes to deployed
                congestion-control protocols", so testbed comparisons
                pass the InfiniBand baseline's alpha here; VL
                separation then mitigates (but does not remove) the
                collapse.  ``None`` for an ideal transport
                (simulation studies).
            reserved_queue: statically reserved queue index for
                non-Saba-compliant traffic; weights leave it
                ``1 - c_saba`` of the capacity.
            observer: observability sink (:mod:`repro.obs`); emits
                registration, solve, and port-programming events.  The
                no-op default costs nothing.
            use_weight_cache: memoise Eq. 2 per application multiset.
            use_signature_cache: skip reprogramming ports whose
                programmed signature is unchanged (exact; see
                :mod:`repro.core.pipeline`).
            coalesce_quantum: sim-seconds over which connection-churn
                port updates are batched into one reallocation pass
                (0 = eager, the default).
            seed: K-means seeding (determinism).
            model_provider: where sensitivity models come from (a
                :class:`~repro.online.provider.ModelProvider`).  The
                default wraps ``table`` in an
                :class:`~repro.online.provider.OfflineModelProvider`,
                which reproduces the classic table-lookup behaviour
                bit for bit; pass an online/hybrid provider to admit
                applications the profiler has never seen.
        """
        if num_pls < 1:
            raise RegistrationError(f"num_pls must be >= 1: {num_pls}")
        self.table = table
        if model_provider is None:
            # Imported lazily: repro.online imports repro.core, so a
            # module-level import here would be circular.
            from repro.online.provider import OfflineModelProvider

            model_provider = OfflineModelProvider(table)
        self._provider = model_provider
        self.num_pls = num_pls
        self.c_saba = c_saba
        self.min_weight = min_weight
        self.solver = solver
        self.collapse_alpha = collapse_alpha
        self.reserved_queue = reserved_queue
        self.use_weight_cache = use_weight_cache
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._rng = random.Random(seed)

        self.stats = ControllerStats()
        self._fabric: Optional[FluidFabric] = None
        self._apps: Dict[str, str] = {}  # job_id -> workload
        self._pl_of: Dict[str, int] = {}  # job_id -> PL
        self._pl_members: Dict[int, set] = {}  # PL -> job_ids
        self._pl_models: Dict[int, SensitivityModel] = {}
        self._hierarchy: Optional[PLHierarchy] = None
        self._hier_pls: List[int] = []  # hierarchy row -> PL id
        self._row_of: Dict[int, int] = {}  # PL id -> hierarchy row
        self._epoch = 0  # bumped on every centroid/hierarchy change
        self._port_apps: Dict[str, Counter] = {}  # link_id -> job_id counts
        self._schedulers: Dict[str, LinkScheduler] = {}
        self.pipeline = AllocationPipeline(
            _ControllerView(self),
            self._port_apps.get,
            metrics_prefix="controller",
            c_saba=c_saba,
            min_weight=min_weight,
            solver=solver,
            reserved_queue=reserved_queue,
            use_weight_cache=use_weight_cache,
            use_signature_cache=use_signature_cache,
            coalesce_quantum=coalesce_quantum,
            observer=self.observer,
        )

    # -- software-interface endpoints (called via the Saba library) ---------

    def rpc_methods(self) -> Dict[str, object]:
        """Endpoint map for registration on an :class:`RpcBus`."""
        return {
            "app_register": self.app_register,
            "app_deregister": self.app_deregister,
            "conn_create": self.conn_create,
            "conn_destroy": self.conn_destroy,
            "ping": self.ping,
        }

    def ping(self) -> Dict[str, object]:
        """Liveness probe for the resilient RPC layer; side-effect free."""
        return {"ok": True, "apps": len(self._apps)}

    def app_register(self, job_id: str, workload: str) -> int:
        """Register an application; returns its priority level.

        Raises :class:`RegistrationError` for duplicates or workloads
        the profiler has never seen (there is no model to allocate by).
        """
        if job_id in self._apps:
            raise RegistrationError(f"application {job_id!r} already registered")
        if not self._provider.has_model(workload):
            raise RegistrationError(
                f"workload {workload!r} has no profile; run the offline "
                "profiler first"
            )
        self._apps[job_id] = workload
        self.stats.registrations += 1
        self._assign_pl(job_id)
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("controller.registrations").inc()
            obs.emit(
                APP_REGISTERED, self._sim_now(), job=job_id,
                workload=workload, pl=self._pl_of[job_id],
            )
            model = self._provider.model_of(workload)
            if model.r_squared is not None and model.r_squared < LOW_FIT_R2:
                # The allocation this application gets rests on a fit
                # that explains little of its profiled variance; warn
                # the operator at the moment the model is consumed.
                obs.emit(
                    MODEL_LOW_FIT, self._sim_now(), job=job_id,
                    workload=workload, model=model.name,
                    r_squared=model.r_squared, threshold=LOW_FIT_R2,
                    source="registration",
                )
        self.pipeline.reallocate(self._port_apps.keys())
        return self._pl_of[job_id]

    def app_deregister(self, job_id: str) -> None:
        if job_id not in self._apps:
            raise RegistrationError(f"application {job_id!r} is not registered")
        del self._apps[job_id]
        self.stats.deregistrations += 1
        for counter in self._port_apps.values():
            counter.pop(job_id, None)
        self._release_pl(job_id)
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("controller.deregistrations").inc()
            obs.emit(APP_DEREGISTERED, self._sim_now(), job=job_id)
        self.pipeline.reallocate(self._port_apps.keys())

    def conn_create(self, job_id: str, path: Sequence[str]) -> None:
        """Account a new connection and re-enforce its ports."""
        if job_id not in self._apps:
            raise RegistrationError(
                f"connection for unregistered application {job_id!r}"
            )
        self.stats.conn_creates += 1
        for link_id in path:
            self._port_apps.setdefault(link_id, Counter())[job_id] += 1
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("controller.conn_creates").inc()
            obs.emit(
                CONN_CREATED, self._sim_now(), job=job_id,
                links=list(path),
            )
        self.pipeline.reallocate(path, coalesce=True)

    def conn_destroy(self, job_id: str, path: Sequence[str]) -> None:
        """Tear down a connection (symmetric with :meth:`conn_create`:
        unregistered applications are rejected, not silently ignored)."""
        if job_id not in self._apps:
            raise RegistrationError(
                f"teardown for unregistered application {job_id!r}"
            )
        self.stats.conn_destroys += 1
        for link_id in path:
            counter = self._port_apps.get(link_id)
            if counter is None:
                continue
            counter[job_id] -= 1
            if counter[job_id] <= 0:
                del counter[job_id]
            if not counter:
                del self._port_apps[link_id]
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("controller.conn_destroys").inc()
            obs.emit(
                CONN_DESTROYED, self._sim_now(), job=job_id,
                links=list(path),
            )
        self.pipeline.reallocate(path, coalesce=True)

    def pl_of(self, job_id: str) -> int:
        try:
            return self._pl_of[job_id]
        except KeyError:
            raise RegistrationError(f"{job_id!r} has no PL (not registered)") from None

    # -- FabricPolicy -----------------------------------------------------------

    def attach(self, fabric: FluidFabric) -> None:
        self._fabric = fabric
        self.pipeline.attach(fabric)
        for state in fabric.topology.link_states.values():
            state.efficiency_fn = None

    def scheduler_of(self, link_id: str) -> LinkScheduler:
        scheduler = self._schedulers.get(link_id)
        if scheduler is None:
            if self._fabric is None:
                raise RegistrationError("controller is not attached to a fabric")
            qtable = self._fabric.topology.port_table(link_id)
            scheduler = make_port_scheduler(qtable, self.collapse_alpha)
            self._schedulers[link_id] = scheduler
        return scheduler

    def on_flow_started(self, flow) -> None:
        """No-op: the library reports connections via conn_create."""

    def on_flow_finished(self, flow) -> None:
        """No-op: the library reports teardown via conn_destroy."""

    # -- clustering --------------------------------------------------------------

    def _model_of(self, job_id: str) -> SensitivityModel:
        return self._provider.model_of(self._apps[job_id])

    # Section 5.3.1 asks for K-means over registered applications.  A
    # batch re-clustering on every (de)registration would renumber
    # PLs, but a PL is carried in the headers of *in-flight*
    # connections (InfiniBand SLs are fixed at connection setup), so
    # an application's PL must stay stable for its lifetime.  We
    # therefore cluster *incrementally*: a registering application
    # joins the PL whose centroid matches its sensitivity
    # coefficients, gets a fresh PL while fewer than S are in use, and
    # otherwise joins the nearest centroid -- the online equivalent of
    # the paper's K-means grouping.

    def _assign_pl(self, job_id: str) -> None:
        model = self._provider.model_of(self._apps[job_id])
        degree = model.degree
        vec = model.as_vector(degree)
        chosen: Optional[int] = None
        # Exact-centroid match first (same workload => same PL).
        best_pl, best_dist = None, float("inf")
        for pl, centroid_model in self._pl_models.items():
            centroid = centroid_model.as_vector(degree)
            dist = float(np.sum((centroid - vec) ** 2))
            if dist < best_dist:
                best_pl, best_dist = pl, dist
        if best_pl is not None and best_dist < 1e-12:
            chosen = best_pl
        elif len(self._pl_members) < self.num_pls:
            chosen = next(
                pl for pl in range(self.num_pls) if pl not in self._pl_members
            )
        else:
            chosen = best_pl
        assert chosen is not None
        self._pl_of[job_id] = chosen
        self._pl_members.setdefault(chosen, set()).add(job_id)
        self._refresh_pl_state(chosen, reference=model)

    def _release_pl(self, job_id: str) -> None:
        pl = self._pl_of.pop(job_id, None)
        if pl is None:
            return
        members = self._pl_members.get(pl)
        if members is None:
            return
        members.discard(job_id)
        if not members:
            del self._pl_members[pl]
            self._pl_models.pop(pl, None)
            self._rebuild_hierarchy()
        else:
            self._refresh_pl_state(pl)

    def _refresh_pl_state(
        self, pl: int, reference: Optional[SensitivityModel] = None
    ) -> None:
        """Recompute one PL's centroid model and rebuild the hierarchy."""
        self.stats.reclusterings += 1
        members = self._pl_members[pl]
        models = [
            self._provider.model_of(self._apps[j]) for j in sorted(members)
        ]
        if reference is None:
            reference = models[0]
        degree = max(m.degree for m in models)
        centroid = np.mean([m.as_vector(degree) for m in models], axis=0)
        self._pl_models[pl] = SensitivityModel(
            name=f"pl{pl}",
            coefficients=tuple(float(c) for c in centroid),
            fit_domain=reference.fit_domain,
            basis=reference.basis,
        )
        self._rebuild_hierarchy()

    def _rebuild_hierarchy(self) -> None:
        # The epoch bump invalidates the pipeline's Eq. 2 cache and
        # every port's programmed signature: centroid models changed,
        # so cached solutions and signatures are stale.
        self._epoch += 1
        if not self._pl_models:
            self._hierarchy = None
            self._hier_pls = []
            self._row_of = {}
            return
        self._hier_pls = sorted(self._pl_models)
        self._row_of = {pl: row for row, pl in enumerate(self._hier_pls)}
        degree = max(m.degree for m in self._pl_models.values())
        self._hierarchy = PLHierarchy(
            np.array([
                self._pl_models[pl].as_vector(degree) for pl in self._hier_pls
            ])
        )

    # -- online model updates ----------------------------------------------------

    def on_models_updated(self, workloads: Sequence[str]) -> None:
        """React to the model provider changing models mid-run.

        Designed as the callback for
        :meth:`~repro.online.estimator.OnlineSensitivityEstimator.subscribe`:
        refreshes the PL centroids of every priority level with a
        member of an affected workload (the provider now answers
        ``model_of`` differently for them) and re-enforces all known
        ports.  PL *membership* is deliberately untouched -- a PL is
        carried in the headers of in-flight connections, so, exactly
        as for registrations, only centroids may move.

        Cheap no-op when no registered application runs an affected
        workload: the provider's epoch bump alone invalidates the
        pipeline caches for future passes.
        """
        affected = set(workloads)
        pls = sorted({
            self._pl_of[job_id]
            for job_id, workload in self._apps.items()
            if workload in affected and job_id in self._pl_of
        })
        if not pls:
            return
        for pl in pls:
            self._refresh_pl_state(pl)
        self.pipeline.reallocate(self._port_apps.keys())

    # -- allocation ---------------------------------------------------------------

    def _sim_now(self) -> float:
        """Simulated timestamp for event records (0 when detached)."""
        return self._fabric.sim.now if self._fabric is not None else 0.0

    # -- observability ------------------------------------------------------------

    def describe_port(self, link_id: str) -> Dict[str, object]:
        """Operator view of one port (delegates to the pipeline)."""
        return self.pipeline.describe_port(link_id)

    # -- benchmarking support ---------------------------------------------------

    def recompute_all_ports(self) -> float:
        """Recompute every known port's allocation; returns seconds.

        Used by the Figure 12 benchmark: "the time the controller takes
        to compute the bandwidth share of applications for all
        switches".  Bypasses the signature cache -- the point is to
        time the full calculation.
        """
        return self.pipeline.recompute_ports(list(self._port_apps))
