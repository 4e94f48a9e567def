"""The fluid fabric: ties topology, routing, scheduling and the event
loop together.

Rates of fluid flows are piecewise constant between *events* (flow
start, flow completion, timer expiry, reconfiguration), so the
simulation is exact: on each event the fabric re-solves rates and
jumps straight to the next event.

The rate pipeline is *incremental*: one persistent flow↔link index
(:class:`~repro.simnet.incidence.ArrayIncidence` over the
:class:`~repro.simnet.flowtable.FlowTable` of per-flow numbers)
partitions active flows into congestion components, and an event
re-solves only the components containing dirtied flows or
reconfigured ports -- allocation is link-local, so link-disjoint
components never interact and the component-scoped solution equals
the full one exactly (DESIGN.md 5d).  Per-link ``usable_capacity``
deratings are cached until the link's flow population or queue
programming changes, and predicted completions live in the table's
``finish_at`` column, so per-event work is O(disturbed component)
plus vectorized passes instead of O(active flows × links).  Each
component is solved by :func:`~repro.simnet.fairness.solve_component`,
the fabric's one rate solver.

Allocation policies plug in through two hooks:

* ``scheduler_of(link_id)`` -- the queueing discipline at each link
  (installed via :meth:`FluidFabric.set_policy`);
* flow lifecycle callbacks -- the policy (and the Saba library) learn
  about flow starts/completions to drive re-allocation.

A policy whose per-link allocation depends on state *outside* the
link's own flow population and queue programming -- e.g. Homa's
priority classes read each flow's continuously-draining ``remaining``
-- must set ``component_safe = False``; the fabric then advances all
flows eagerly and re-solves everything on each recomputation, exactly
reproducing the non-incremental behaviour.
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
)

import numpy as np

from repro.errors import RoutingError, SimulationError
from repro.obs.events import (
    FLOW_FINISHED,
    FLOW_REROUTED,
    FLOW_STARTED,
    LINK_DOWN,
    LINK_UP,
    NULL_OBSERVER,
    PORT_UTILIZATION,
    RATE_SOLVE,
    Observer,
)
from repro.simnet.engine import Simulator
from repro.simnet.fairness import FairScheduler, LinkScheduler, solve_component
from repro.simnet.flows import Flow
from repro.simnet.flowtable import FlowTable
from repro.simnet.incidence import ArrayIncidence
from repro.simnet.routing import Router
from repro.simnet.telemetry import UtilizationRecorder
from repro.simnet.topology import Topology

_EPS = 1e-9


@dataclass(frozen=True)
class RerouteReport:
    """Outcome of one link up/down transition.

    ``rerouted`` pairs each moved flow with the path it left; the flow
    itself already carries the new path.  ``stranded`` lists flows for
    which no route exists after the transition (network partition, or
    a downed NIC link): they stay on their dead path with zero usable
    capacity and stall until a recovery reroutes them.
    """

    link_id: str
    up: bool
    rerouted: Tuple[Tuple[Flow, Tuple[str, ...]], ...]
    stranded: Tuple[int, ...]

    @property
    def changed(self) -> bool:
        return bool(self.rerouted or self.stranded)


class FabricPolicy(Protocol):
    """What the fabric needs from an allocation policy.

    Policies may additionally expose a ``component_safe`` class
    attribute (default ``True``): set it to ``False`` when a link's
    allocation depends on globally-varying flow state (e.g. remaining
    bytes), which disables component-scoped solving and capacity
    caching for exactness.
    """

    name: str

    def attach(self, fabric: "FluidFabric") -> None:
        """Called once when installed; may set link efficiency, etc."""

    def scheduler_of(self, link_id: str) -> LinkScheduler:
        """Queueing discipline at ``link_id``."""

    def on_flow_started(self, flow: Flow) -> None:
        """A flow entered the network."""

    def on_flow_finished(self, flow: Flow) -> None:
        """A flow delivered its last byte."""


class _DefaultPolicy:
    """Per-flow fair queueing everywhere; no lifecycle behaviour."""

    name = "fair"

    def __init__(self) -> None:
        self._scheduler = FairScheduler()

    def attach(self, fabric: "FluidFabric") -> None:  # noqa: D102
        pass

    def scheduler_of(self, link_id: str) -> LinkScheduler:  # noqa: D102
        return self._scheduler

    def on_flow_started(self, flow: Flow) -> None:  # noqa: D102
        pass

    def on_flow_finished(self, flow: Flow) -> None:  # noqa: D102
        pass


class FluidFabric:
    """Event-driven fluid network simulation over a topology."""

    def __init__(
        self,
        topology: Topology,
        simulator: Optional[Simulator] = None,
        recorder: Optional[UtilizationRecorder] = None,
        validate: bool = False,
        completion_quantum: float = 0.0,
        observer: Optional[Observer] = None,
        incremental: bool = True,
        solver_backend: str = "object",
    ) -> None:
        """
        Args:
            topology: the network to simulate.
            simulator: shared event engine (one is created if absent).
            recorder: optional utilization telemetry sink.
            observer: observability sink (:mod:`repro.obs`); the no-op
                default keeps all instrumentation dormant.
            validate: after every rate recomputation, assert the
                physical invariants (no link over its line rate, no
                negative or cap-exceeding flow rate).  Costs a pass
                over all flows per event; intended for tests and
                debugging.
            completion_quantum: batch flow completions that fall within
                this many simulated seconds of an event into that
                event.  The default (0) is exact; large co-runs set a
                quantum a few orders of magnitude below stage durations
                so the near-simultaneous completions of a stage's
                symmetric flows cost one rate recomputation instead of
                dozens, at a completion-time error bounded by the
                quantum.
            incremental: re-solve only dirty congestion components
                (exact for component-safe policies).  ``False`` forces
                a full re-solve plus an eager advance of every active
                flow on each event -- the pre-incremental behaviour,
                kept as the benchmark baseline.
            solver_backend: inert.  ``"object"`` and ``"auto"`` are
                accepted and ignored, because the benchmark's
                ``incast-waves`` workload still passes them; every
                component is solved by the one object solver.  Any
                other value (``"vector"`` included) raises.  ROADMAP
                item 5's benchmark change deletes this keyword.
        """
        if completion_quantum < 0:
            raise SimulationError("completion_quantum must be >= 0")
        if solver_backend not in ("object", "auto"):
            raise SimulationError(
                f"unknown solver backend {solver_backend!r}: the fabric "
                "has one solver"
            )
        self.topology = topology
        self.router = Router(topology)
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.sim = (
            simulator if simulator is not None
            else Simulator(observer=self.observer)
        )
        if self.observer.enabled and not self.sim.observer.enabled:
            # Adopt a shared engine into this fabric's observer so
            # ``sim.*`` metrics land in the same registry.
            self.sim.observer = self.observer
        self.recorder = recorder
        self._last_port_util: Dict[str, float] = {}
        self.validate = validate
        self.completion_quantum = completion_quantum
        self.incremental = incremental
        self.policy: FabricPolicy = _DefaultPolicy()
        self._component_safe = True
        self._active: Dict[int, Flow] = {}
        self.completed: List[Flow] = []
        self._completion_callbacks: Dict[int, List[Callable[[Flow], None]]] = {}
        # -- array-native flow state -----------------------------------
        #: Structure-of-arrays store of per-flow runtime numbers; every
        #: active flow is bound to a slot, and the completion scan /
        #: lazy sync are vectorized passes over it (the former lazy
        #: completion heap lives in its ``finish_at`` column).
        self._table = FlowTable()
        self._seq = itertools.count()
        # -- incremental-solve state -----------------------------------
        #: The one flow<->link index; congestion components are
        #: discovered over it.
        self._incidence = ArrayIncidence(self._table)
        #: Dirty ports, in dirtying order (dict-as-ordered-set: string
        #: sets iterate in hash order, which is not reproducible).
        self._dirty_links: Dict[str, None] = {}
        self._dirty_all = True
        self._rates_dirty = True
        self._sched_cache: Dict[str, LinkScheduler] = {}
        #: link -> ((queue-table generation, throttle), usable capacity)
        self._caps_cache: Dict[str, Tuple[Tuple[int, float], float]] = {}
        self._link_used: Dict[str, float] = {}
        #: NIC egress link -> server, for telemetry sampling.
        self._nic_server: Dict[str, str] = {
            topology.nic_link(server).link_id: server
            for server in topology.servers
        }
        # -- plain perf counters (bench reads these without an observer)
        self.loop_events = 0
        self.rate_recomputes = 0
        self.components_solved = 0
        self.flows_solved = 0
        #: Cumulative recompute time spent marshalling (component
        #: discovery, view/caps assembly, rate scatter) vs in the
        #: numeric solves themselves; ``marshal + solve`` is the whole
        #: rate pipeline (validation and telemetry excluded).
        self.marshal_seconds = 0.0
        self.solve_seconds = 0.0

    # -- configuration -----------------------------------------------------

    def set_policy(self, policy: FabricPolicy) -> None:
        """Install the allocation policy (before or between runs)."""
        self.policy = policy
        policy.attach(self)
        self._component_safe = bool(getattr(policy, "component_safe", True))
        self._sched_cache.clear()
        self._caps_cache.clear()
        self.invalidate_rates()

    def invalidate_rates(self, link_ids: Optional[Iterable[str]] = None) -> None:
        """Force a rate recomputation at the next loop step.

        The Saba controller calls this after reprogramming queue
        tables, mirroring a switch configuration update taking effect.
        With ``link_ids`` only the congestion components touching
        those ports are re-solved; without, everything is.
        """
        if link_ids is None:
            self._dirty_all = True
        else:
            dirty = self._dirty_links
            for lid in link_ids:
                dirty[lid] = None
        self._rates_dirty = True

    # -- dynamic topology --------------------------------------------------

    def set_link_state(self, link_id: str, up: bool) -> RerouteReport:
        """Transition a link and reroute the flows it affects.

        On *down*: the routing cache entries traversing the link are
        invalidated and exactly the flows riding it are re-hashed onto
        the surviving equal-cost paths (other flows' paths remain
        shortest -- removing a link cannot improve a path that avoided
        it).  On *up*: the whole routing cache is invalidated and
        every active flow is re-hashed; flows whose canonical ECMP
        choice lies on the recovered link move back, so the
        path assignment converges to exactly what a fresh router over
        the repaired topology would pick -- the no-fault baseline.

        Rerouted flows keep their identity and remaining bytes
        (progress is materialised at the transition instant); both the
        old and new path links are marked dirty so the next event
        re-solves precisely the disturbed components.  A no-op
        transition (already in that state) returns an empty report.
        """
        changed = self.topology.set_link_up(link_id, up)
        if not changed:
            return RerouteReport(link_id, up, (), ())
        now = self.sim.now
        dirty = self._dirty_links
        dirty[link_id] = None
        if up:
            self.router.invalidate()
            candidates = sorted(
                self._active.values(), key=self._order_key
            )
        else:
            self.router.invalidate([link_id])
            candidates = sorted(
                self._incidence.flows_on(link_id), key=self._order_key
            )
        rerouted: List[Tuple[Flow, Tuple[str, ...]]] = []
        stranded: List[int] = []
        for flow in candidates:
            try:
                new_path = tuple(
                    self.router.path_for_flow(flow.src, flow.dst, flow.flow_id)
                )
            except RoutingError:
                stranded.append(flow.flow_id)
                continue
            old_path = tuple(flow.path)
            if new_path == old_path:
                continue
            flow.sync(now)
            self._incidence.remove(flow)
            flow.path = new_path
            self._incidence.add(flow)
            for lid in old_path:
                dirty[lid] = None
            for lid in new_path:
                dirty[lid] = None
            rerouted.append((flow, old_path))
        self._rates_dirty = True
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter(
                "fabric.link_ups" if up else "fabric.link_downs"
            ).inc()
            obs.emit(
                LINK_UP if up else LINK_DOWN, now, link=link_id,
                rerouted=len(rerouted), stranded=len(stranded),
            )
            if rerouted:
                obs.metrics.counter("fabric.flows_rerouted").inc(
                    len(rerouted)
                )
                for flow, old_path in rerouted:
                    obs.emit(
                        FLOW_REROUTED, now, flow_id=flow.flow_id,
                        app=flow.app, link=link_id, up=up,
                        old_path=list(old_path), new_path=list(flow.path),
                    )
            if stranded:
                obs.metrics.counter("fabric.flows_stranded").inc(
                    len(stranded)
                )
        return RerouteReport(link_id, up, tuple(rerouted), tuple(stranded))

    # -- flow lifecycle ------------------------------------------------------

    @property
    def active_flows(self) -> List[Flow]:
        """Flows in the network, in start order."""
        return list(self._active.values())

    def start_flow(
        self,
        flow: Flow,
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Inject a flow; routes it and marks its component dirty."""
        if flow.flow_id in self._active:
            raise SimulationError(f"flow {flow.flow_id} already active")
        if flow.done:
            raise SimulationError(f"flow {flow.flow_id} already complete")
        if not flow.path:
            flow.path = tuple(
                self.router.path_for_flow(flow.src, flow.dst, flow.flow_id)
            )
        flow.start_time = self.sim.now
        self._table.bind(flow, next(self._seq), self.sim.now)
        self._active[flow.flow_id] = flow
        self._incidence.add(flow)
        dirty = self._dirty_links
        for lid in flow.path:
            dirty[lid] = None
        if on_complete is not None:
            self._completion_callbacks.setdefault(flow.flow_id, []).append(
                on_complete
            )
        self.policy.on_flow_started(flow)
        self._rates_dirty = True
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("fabric.flows_started").inc()
            obs.emit(
                FLOW_STARTED, self.sim.now, flow_id=flow.flow_id,
                app=flow.app, pl=flow.pl, src=flow.src, dst=flow.dst,
                size=flow.size,
            )
        return flow

    def cancel_flow(self, flow_id: int) -> Flow:
        """Tear down an active flow before it drains (service
        ``conn_destroy``).

        The flow leaves the network at the current instant with its
        undelivered bytes still in ``remaining``; completion callbacks
        and policy hooks run exactly as for a natural completion, so
        connection managers announce the teardown to the controller
        the same way.
        """
        flow = self._active.get(flow_id)
        if flow is None:
            raise SimulationError(f"flow {flow_id} is not active")
        flow.sync(self.sim.now)
        self._finish_flow(flow)
        return flow

    def _finish_flow(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        flow.rate = 0.0
        flow.last_update = self.sim.now
        del self._active[flow.flow_id]
        self._incidence.remove(flow)
        self._table.unbind(flow)
        dirty = self._dirty_links
        for lid in flow.path:
            dirty[lid] = None
        self.completed.append(flow)
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("fabric.flows_finished").inc()
            obs.metrics.histogram("fabric.fct_seconds").observe(
                flow.duration or 0.0
            )
            obs.emit(
                FLOW_FINISHED, self.sim.now, flow_id=flow.flow_id,
                app=flow.app, pl=flow.pl, size=flow.size,
                duration=flow.duration,
            )
        self.policy.on_flow_finished(flow)
        for callback in self._completion_callbacks.pop(flow.flow_id, []):
            callback(flow)
        self._rates_dirty = True

    # -- rate computation ---------------------------------------------------

    def _capacity_of(self, link_id: str, n_flows: int) -> float:
        return self.topology.link_states[link_id].effective_capacity(n_flows)

    def _link_capacities(
        self,
        on_link: Dict[str, List[Flow]],
        use_cache: bool,
    ) -> Tuple[List[LinkScheduler], List[float]]:
        """Each link's scheduler and scheduler-derated capacity, in
        ``on_link`` order.

        ``on_link`` maps each link to its member flows in start order;
        the members are read only when the capacity must be derated
        afresh.  A cached capacity is reused while the link was not
        dirtied (its flow population is unchanged) and its queue-table
        generation and throttle still match; component-unsafe policies
        bypass the cache entirely (their derating can depend on flow
        state).
        """
        sched_cache = self._sched_cache
        caps_cache = self._caps_cache
        dirty = self._dirty_links
        link_states = self.topology.link_states
        port_table = self.topology.port_table
        schedulers: List[LinkScheduler] = []
        caps: List[float] = []
        for lid, members in on_link.items():
            scheduler = sched_cache.get(lid)
            if scheduler is None:
                scheduler = sched_cache[lid] = self.policy.scheduler_of(lid)
            schedulers.append(scheduler)
            state = link_states[lid]
            key = (port_table(lid).generation, state.throttle)
            if use_cache and lid not in dirty:
                cached = caps_cache.get(lid)
                if cached is not None and cached[0] == key:
                    caps.append(cached[1])
                    continue
            usable = scheduler.usable_capacity(
                state.effective_capacity(len(members)), members
            )
            if use_cache:
                caps_cache[lid] = (key, usable)
            caps.append(usable)
        return schedulers, caps

    def recompute_rates(self) -> None:
        """Re-solve every dirty congestion component.

        With ``incremental`` solving active this touches only the
        components reachable from dirtied ports; a full invalidation
        (or a component-unsafe policy) re-solves all components.  The
        per-component results are exactly what a joint solve produces
        (:func:`repro.simnet.fairness.network_rates` decomposes the
        same way).
        """
        obs = self.observer
        t0 = _time.perf_counter()
        now = self.sim.now
        scoped = self.incremental and self._component_safe
        full = self._dirty_all or not scoped
        comps = self._incidence.discover(
            None if full else self._dirty_links
        )
        n_flows = sum(len(comp) for comp in comps)
        self._table.sync_slots(
            np.fromiter(
                (flow._slot for comp in comps for flow in comp),
                dtype=np.int64, count=n_flows,
            ),
            now,
        )
        changed: Dict[str, None] = {}
        solve_elapsed = (
            self._solve_on_objects(comps, now, scoped, changed)
            if comps else 0.0
        )
        link_used = self._link_used
        # Dirty ports that no longer carry flows (last flow finished,
        # or a reconfigured idle port) drop to zero utilization.
        for lid in self._dirty_links:
            if lid not in changed and link_used.get(lid, 0.0) != 0.0:
                link_used[lid] = 0.0
                changed[lid] = None
        if full:
            incidence = self._incidence
            for lid, used in link_used.items():
                if used != 0.0 and incidence.count(lid) == 0:
                    link_used[lid] = 0.0
                    changed[lid] = None
        self._dirty_links.clear()
        self._dirty_all = False
        self._rates_dirty = False
        self.rate_recomputes += 1
        self.components_solved += len(comps)
        self.flows_solved += n_flows
        # Everything in the pipeline that is not a numeric solve is
        # marshalling: component discovery, sync, view/caps assembly,
        # rate scatter and accumulator upkeep.
        pipeline_elapsed = _time.perf_counter() - t0
        self.solve_seconds += solve_elapsed
        self.marshal_seconds += max(0.0, pipeline_elapsed - solve_elapsed)
        if self.validate:
            self._check_invariants(list(self._active.values()))
        self._sample_network_telemetry(changed)
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("fabric.rate_recomputes").inc()
            metrics.counter("fabric.components_solved").inc(len(comps))
            size_hist = metrics.histogram("fabric.component_size")
            for comp in comps:
                size_hist.observe(len(comp))
            metrics.histogram("fabric.solver_seconds").observe(
                pipeline_elapsed
            )
            metrics.histogram("fabric.solver_seconds.marshal").observe(
                max(0.0, pipeline_elapsed - solve_elapsed)
            )
            metrics.histogram("fabric.solver_seconds.solve").observe(
                solve_elapsed
            )
            obs.emit(
                RATE_SOLVE, now, components=len(comps),
                flows=n_flows, links=len(changed), full=full,
                duration=pipeline_elapsed,
            )
            self._emit_port_utilization(changed)

    def _solve_on_objects(
        self,
        comps: List[List[Flow]],
        now: float,
        use_cache: bool,
        changed: Dict[str, None],
    ) -> float:
        """Solve ``comps`` one by one with :func:`solve_component` and
        apply the rates; returns the seconds spent solving."""
        link_used = self._link_used
        elapsed = 0.0
        slots: List[int] = []
        rates_out: List[float] = []
        for comp_flows in comps:
            # Links in first-use order over start-ordered flows,
            # members in start order: the solver's accumulation order.
            on_link: Dict[str, List[Flow]] = {}
            for flow in comp_flows:
                for lid in flow.path:
                    members = on_link.get(lid)
                    if members is None:
                        members = on_link[lid] = []
                    members.append(flow)
            lids = list(on_link)
            sched_list, caps_list = self._link_capacities(on_link, use_cache)
            ts = _time.perf_counter()
            rates = solve_component(
                comp_flows, on_link, dict(zip(lids, sched_list)),
                dict(zip(lids, caps_list)),
            )
            elapsed += _time.perf_counter() - ts
            for flow in comp_flows:
                slots.append(flow._slot)
                rates_out.append(rates.get(flow.flow_id, 0.0))
            for lid, members in on_link.items():
                used = 0.0
                for flow in members:
                    used += rates.get(flow.flow_id, 0.0)
                link_used[lid] = used
                changed[lid] = None
        idx = np.asarray(slots, dtype=np.int64)
        self._table.rate[idx] = rates_out
        self._table.update_finish(idx, now)
        return elapsed

    def _order_key(self, flow: Flow) -> int:
        return flow._seq

    def _check_invariants(self, flows: List[Flow]) -> None:
        """Physical sanity of the current rate assignment."""
        link_used: Dict[str, float] = {}
        for flow in flows:
            if flow.rate < -1e-6:
                raise SimulationError(
                    f"flow {flow.flow_id} has negative rate {flow.rate}"
                )
            if flow.rate_cap is not None and flow.rate > flow.rate_cap * (
                1 + 1e-6
            ):
                raise SimulationError(
                    f"flow {flow.flow_id} exceeds its rate cap: "
                    f"{flow.rate} > {flow.rate_cap}"
                )
            for lid in flow.path:
                link_used[lid] = link_used.get(lid, 0.0) + flow.rate
        for lid, used in link_used.items():
            line_rate = self.topology.link_states[lid].link.capacity
            if used > line_rate * (1 + 1e-6):
                raise SimulationError(
                    f"link {lid} over line rate: {used} > {line_rate}"
                )

    def _emit_port_utilization(self, changed: Dict[str, None]) -> None:
        """Publish per-port utilization changes (observer enabled only).

        Rates are piecewise constant between events, so emitting on
        change yields an *exact* step series per port; the summarizer
        integrates it into time-weighted means.  Only links whose
        component was re-solved (or which drained) can have changed,
        so the maintained ``link_used`` totals replace the former
        walk over every flow's path.
        """
        obs = self.observer
        now = self.sim.now
        last = self._last_port_util
        for lid in sorted(changed):
            capacity = self.topology.link_states[lid].link.capacity
            util = self._link_used.get(lid, 0.0) / capacity
            if abs(util - last.get(lid, 0.0)) <= 1e-12:
                continue
            last[lid] = util
            obs.metrics.time_gauge(f"port.{lid}.utilization").set(util, now)
            obs.emit(
                PORT_UTILIZATION, now, link=lid, utilization=util,
                flows=self._incidence.count(lid),
            )

    # -- read-only hooks for external checkers (repro.storm) ------------------

    def link_members(self, link_id: str) -> List[Flow]:
        """Active flows traversing ``link_id``, in start order."""
        return list(self._incidence.flows_on(link_id))

    def link_used_rate(self, link_id: str) -> float:
        """Sum of solved rates currently crossing ``link_id``."""
        return self._link_used.get(link_id, 0.0)

    def link_usable_capacity(self, link_id: str) -> float:
        """Scheduler-derated capacity of ``link_id`` right now.

        Computed fresh from the link state and current membership --
        never reads or writes the solver's capacity cache, so external
        invariant checkers cannot perturb a run.
        """
        members = list(self._incidence.flows_on(link_id))
        scheduler = self._sched_cache.get(link_id)
        if scheduler is None:
            scheduler = self.policy.scheduler_of(link_id)
        state = self.topology.link_states[link_id]
        return scheduler.usable_capacity(
            state.effective_capacity(len(members)), members
        )

    def _sample_network_telemetry(self, changed: Dict[str, None]) -> None:
        """Record NIC egress utilization for servers whose rate changed.

        A server's egress equals its NIC link's maintained usage total
        (only flows sourced at the server traverse its egress link).
        Unchanged links would re-record their previous value, which
        the step series treats identically, so they are skipped.
        """
        if self.recorder is None:
            return
        now = self.sim.now
        nic_server = self._nic_server
        for lid in changed:
            server = nic_server.get(lid)
            if server is None:
                continue
            capacity = self.topology.links[lid].capacity
            self.recorder.record_network(
                server, now, self._link_used.get(lid, 0.0) / capacity
            )

    # -- array-native completion scan -----------------------------------------

    def _peek_completion(self) -> Optional[float]:
        """Earliest predicted flow completion, or ``None``."""
        return self._table.peek_finish()

    def _pop_finished(self, limit: float) -> List[Flow]:
        """Flows whose predicted completion is within ``limit``.

        Returned in start order, matching the active-dict scan the
        finish column replaces (completion callbacks observe the same
        order).
        """
        return self._table.pop_finished(limit)

    def _compact_table(self) -> None:
        """Shrink the slot space once free capacity dominates.

        Compaction renumbers slots; bound flows are re-pointed by the
        table itself and the incidence index remaps its slot arrays.
        """
        table = self._table
        if table.capacity <= 64 + 4 * table.n_active:
            return
        remap = table.compact()
        self._incidence.remap(remap)

    # -- event loop -----------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Advance until no flows and no timers remain (or ``until``).

        Returns the simulation time at exit.  Raises
        :class:`SimulationError` if flows exist but none can make
        progress (all rates zero with no pending timers), which would
        otherwise hang the loop.
        """
        eager = not (self.incremental and self._component_safe)
        events = 0
        while True:
            if events >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; livelock?"
                )
            if self._rates_dirty:
                self.recompute_rates()
                self._compact_table()
                eager = not (self.incremental and self._component_safe)
            timer_t = self.sim.peek_time()
            flow_t = self._peek_completion()
            if timer_t is None and flow_t is None:
                if self._active:
                    raise SimulationError(
                        "active flows are stalled (zero rate) and no "
                        "timers are pending"
                    )
                break
            if flow_t is None:
                next_t = timer_t
            elif timer_t is None or flow_t < timer_t:
                next_t = flow_t
            else:
                next_t = timer_t
            if until is not None and next_t > until:
                self._sync_active(until)
                self.sim.advance_to(until)
                self.sim.report_metrics()
                return self.sim.now
            if eager:
                # Component-unsafe policies read remaining bytes
                # outside the solver; keep every flow materialised.
                self._sync_active(next_t)
            self.sim.advance_to(next_t)
            # Fire timer events scheduled at exactly next_t.
            self.sim.run_due(self.sim.now + _EPS)
            # Collect flow completions at this instant.  Floating-point
            # residue can leave a few bytes after the exact-completion
            # jump, so a flow counts as done when its residual would
            # drain within a nanosecond at its current rate -- or
            # within the configured completion quantum (event
            # batching; see the constructor).
            horizon = max(1e-9, self.completion_quantum)
            for flow in self._pop_finished(self.sim.now + horizon):
                flow.remaining = 0.0
                self._finish_flow(flow)
            events += 1
            self.loop_events += 1
        self.sim.report_metrics()
        return self.sim.now

    def _sync_active(self, now: float) -> None:
        """Materialise every active flow's progress at ``now``."""
        self._table.sync_active(now)
