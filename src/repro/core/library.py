"""The Saba library: connection manager + software interface (Section 6).

Applications that wish to be Saba-compliant register through this
library and open every connection through it.  The library implements
the interaction diagram of Figure 7:

* ``saba_app_register``   -> controller assigns a PL (1)-(3);
* ``saba_conn_create``    -> the connection manager creates the flow
  carrying the PL and informs the controller, which re-allocates and
  re-enforces the switches on the path (4)-(7);
* ``saba_conn_destroy``   -> implicit on flow completion here (the
  fluid model has no half-open connections); triggers a new
  allocation (8)-(11);
* ``saba_app_deregister`` -> (12)-(13).

The library also satisfies the cluster runtime's
:class:`~repro.cluster.runtime.ConnectionAPI`, so materialised jobs
become Saba-compliant simply by constructing their executor with
``connections_factory=SabaLibrary.factory(controller)`` -- matching
the paper's claim that "the individual workloads required no
modification to support Saba" (the framework shim does the work).

All control-plane traffic goes through an :class:`RpcBus` ("the
connection manager uses RPC operations for all control-plane
activities", Section 7.3).

Graceful degradation (the §5.4 single point of failure, measured by
``python -m repro faults``): with ``fail_open=True`` a refused call
(:class:`RpcUnavailable`) never reaches the application.  Saba's data
plane is just switch queue state, so connections proceed under the
last-programmed weights; meanwhile the library queues the failed
control messages -- registrations to re-register, connection
announcements to replay, teardowns to re-deliver -- and drains the
queue when the controller returns (scheduled at the outage's known
end when the fault model provides ``recover_at``, opportunistically
on the next successful call otherwise).  With a ``failover``
controller configured, a run of consecutive refused calls promotes
the standby instead: the library re-registers every application and
replays every open connection against it, reusing the Section 5.4
distributed design as the warm spare.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import RegistrationError
from repro.obs.events import (
    LIB_CONN_OPENED,
    LIB_DEREGISTERED,
    LIB_FAILOVER,
    LIB_REGISTERED,
    LIB_REREGISTERED,
    NULL_OBSERVER,
    Observer,
)
from repro.cluster.jobs import Job
from repro.core.controller import SabaController
from repro.core.rpc import RpcBus, RpcUnavailable
from repro.simnet.fabric import FluidFabric
from repro.simnet.flows import Flow

CONTROLLER_ENDPOINT = "controller"
#: Endpoint name the promoted standby registers under -- distinct from
#: the primary's, so fault schedules targeting ``"controller"`` do not
#: follow the traffic to the standby.
FAILOVER_ENDPOINT = "controller-failover"

#: Sentinel distinguishing "the RPC was dropped fail-open" from a
#: legitimate ``None`` result.
_DROPPED = object()


class SabaLibrary:
    """Per-fabric connection manager + software interface."""

    def __init__(
        self,
        fabric: FluidFabric,
        controller: SabaController,
        bus: Optional[RpcBus] = None,
        multipath: bool = False,
        fail_open: bool = False,
        observer: Optional[Observer] = None,
        failover: Optional[object] = None,
        failover_threshold: int = 3,
    ) -> None:
        """``multipath`` announces *every* equal-cost path of a new
        connection to the controller, not just the one its flow takes:
        "If the underlying network layer supports multipathing, the
        controller determines switches along all paths between the
        source and destination" (Section 5, footnote 2).  Ports on
        alternate paths are then weighted before any traffic shifts
        onto them.

        ``fail_open`` makes the connection manager tolerate a dead
        controller: when the control plane is unreachable (the §5.4
        single point of failure), connections proceed under the
        last-programmed weights instead of erroring, and the missed
        control messages are queued for replay on recovery.
        Registration-time failures leave the application unmanaged
        (PL ``None`` -> the port's default queue, the non-compliant
        co-existence path) until a recovery drain re-registers it.

        ``failover`` is an optional standby controller (anything with
        ``rpc_methods()`` and the fabric-policy protocol, e.g. a
        :class:`~repro.core.distributed.DistributedControllerGroup`).
        After ``failover_threshold`` *consecutive* refused calls the
        library promotes it: the dead primary is torn down, the
        standby becomes the fabric policy, and registrations plus all
        open connections are replayed against it.  There is no
        automatic failback."""
        self._fabric = fabric
        self._bus = bus if bus is not None else RpcBus()
        self._multipath = multipath
        self._fail_open = fail_open
        self._failover = failover
        self._failover_threshold = max(1, failover_threshold)
        # Default to the fabric's observer so one Observer wired into
        # the executor also sees the library's view of the control
        # plane.
        self._observer = (
            observer if observer is not None
            else getattr(fabric, "observer", NULL_OBSERVER)
        )
        self.dropped_control_messages = 0
        self.reregistrations = 0
        self.replayed_conns = 0
        self.rerouted_conns = 0
        self._endpoint = CONTROLLER_ENDPOINT
        self._failed_over = False
        self._failures_in_row = 0
        if not self._bus.has_endpoint(CONTROLLER_ENDPOINT):
            self._bus.register(CONTROLLER_ENDPOINT, controller.rpc_methods())
        self._pl_of: Dict[str, Optional[int]] = {}
        self._workload_of: Dict[str, str] = {}
        # -- recovery state (fail-open bookkeeping) ---------------------
        #: job_id -> workload for registrations the controller missed.
        self._pending_registrations: Dict[str, str] = {}
        #: flow_id -> (job_id, announced path) for open managed conns.
        self._open_conns: Dict[int, Tuple[str, Tuple[str, ...]]] = {}
        #: Open managed conns whose conn_create never reached the
        #: controller (replayed on recovery; their teardown sends no
        #: conn_destroy while still unacked -- nothing to undo).
        self._unacked: Set[int] = set()
        #: conn_destroy messages the controller missed.
        self._undelivered_destroys: List[Tuple[str, Tuple[str, ...]]] = []
        self._drain_scheduled = False
        self._draining = False

    def _call_controller(self, method: str, **kwargs):
        """One control-plane RPC, honouring ``fail_open``/failover.

        Returns the handler's result, or the module-private
        ``_DROPPED`` sentinel when the call was swallowed fail-open
        (so callers can queue compensating work without confusing a
        drop with a legitimate ``None`` reply)."""
        try:
            result = self._bus.call(self._endpoint, method, **kwargs)
        except RpcUnavailable as exc:
            self._failures_in_row += 1
            if (
                self._failover is not None
                and not self._failed_over
                and self._failures_in_row >= self._failover_threshold
            ):
                self._promote_failover()
                # The standby is live: re-issue the triggering call.
                return self._bus.call(self._endpoint, method, **kwargs)
            if not self._fail_open:
                raise
            self.dropped_control_messages += 1
            if exc.recover_at is not None:
                self._schedule_drain(exc.recover_at)
            return _DROPPED
        else:
            self._failures_in_row = 0
            if self._has_backlog() and not self._draining:
                # The controller is reachable again but we never saw
                # an explicit recovery signal: drain opportunistically.
                self.reconcile()
            return result

    @classmethod
    def factory(
        cls, controller: SabaController
    ) -> Callable[[FluidFabric], "SabaLibrary"]:
        """Connections-factory for :class:`CoRunExecutor`."""
        return lambda fabric: cls(fabric, controller)

    @property
    def bus(self) -> RpcBus:
        return self._bus

    @property
    def failed_over(self) -> bool:
        """Whether the standby controller has been promoted."""
        return self._failed_over

    @property
    def pending_registrations(self) -> int:
        """Applications waiting to be re-registered on recovery."""
        return len(self._pending_registrations)

    # -- software interface ----------------------------------------------------

    def saba_app_register(
        self, job_id: str, workload: str
    ) -> Optional[int]:
        """Register the application; caches and returns its PL
        (``None`` when a fail-open registration could not reach the
        controller -- the application runs unmanaged until a recovery
        drain re-registers it)."""
        if job_id in self._pl_of:
            raise RegistrationError(f"{job_id!r} already registered")
        pl = self._call_controller(
            "app_register", job_id=job_id, workload=workload
        )
        if pl is _DROPPED:
            pl = None
            self._pending_registrations[job_id] = workload
        self._pl_of[job_id] = pl
        self._workload_of[job_id] = workload
        obs = self._observer
        if obs.enabled:
            obs.metrics.counter("library.registrations").inc()
            obs.emit(
                LIB_REGISTERED, self._fabric.sim.now, job=job_id,
                workload=workload, pl=pl,
            )
        return pl

    def saba_app_deregister(self, job_id: str) -> None:
        if job_id not in self._pl_of:
            raise RegistrationError(f"{job_id!r} is not registered")
        if self._pending_registrations.pop(job_id, None) is not None:
            # The controller never saw this application: nothing to
            # deregister remotely.
            pass
        elif self._pl_of[job_id] is not None:
            self._call_controller("app_deregister", job_id=job_id)
        del self._pl_of[job_id]
        del self._workload_of[job_id]
        obs = self._observer
        if obs.enabled:
            obs.emit(LIB_DEREGISTERED, self._fabric.sim.now, job=job_id)

    def saba_conn_create(
        self,
        job_id: str,
        src: str,
        dst: str,
        size: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        coflow: Optional[str] = None,
        rate_cap: Optional[float] = None,
        aux_rate: float = 0.0,
    ) -> Flow:
        """Create a connection carrying the application's PL.

        The PL was acquired at registration, so "setting up the
        connection does not introduce any additional overhead"
        (Section 6) -- no extra round trip happens here beyond the
        path announcement.
        """
        if job_id not in self._pl_of:
            raise RegistrationError(
                f"{job_id!r} must register before creating connections"
            )
        pl = self._pl_of[job_id]  # None = unmanaged (fail-open register)
        flow = Flow(src=src, dst=dst, size=size, app=job_id, pl=pl,
                    coflow=coflow, rate_cap=rate_cap, aux_rate=aux_rate)
        flow.path = tuple(
            self._fabric.router.path_for_flow(src, dst, flow.flow_id)
        )
        if self._multipath:
            announced = sorted(
                {
                    lid
                    for path in self._fabric.router.equal_cost_paths(src, dst)
                    for lid in path
                }
            )
        else:
            announced = list(flow.path)

        managed = pl is not None

        def _teardown(done_flow: Flow) -> None:
            if managed:
                self._open_conns.pop(done_flow.flow_id, None)
                if done_flow.flow_id in self._unacked:
                    # The create never landed: there is nothing for
                    # the controller to undo.
                    self._unacked.discard(done_flow.flow_id)
                elif job_id not in self._pl_of:
                    # The application deregistered while the flow ran;
                    # the controller already purged its port state and
                    # would (rightly) reject the teardown.
                    pass
                else:
                    result = self._call_controller(
                        "conn_destroy", job_id=job_id, path=announced
                    )
                    if result is _DROPPED:
                        self._undelivered_destroys.append(
                            (job_id, tuple(announced))
                        )
            if on_complete is not None:
                on_complete(done_flow)

        if managed:
            result = self._call_controller(
                "conn_create", job_id=job_id, path=announced
            )
            self._open_conns[flow.flow_id] = (job_id, tuple(announced))
            if result is _DROPPED:
                self._unacked.add(flow.flow_id)
        obs = self._observer
        if obs.enabled:
            obs.metrics.counter("library.conns_opened").inc()
            obs.emit(
                LIB_CONN_OPENED, self._fabric.sim.now, job=job_id,
                flow_id=flow.flow_id, src=src, dst=dst, size=size, pl=pl,
                managed=managed,
            )
        return self._fabric.start_flow(flow, on_complete=_teardown)

    def conn_rerouted(self, flow: Flow, old_path: Tuple[str, ...]) -> bool:
        """Re-announce a managed connection after the fabric moved it.

        A link transition (:meth:`FluidFabric.set_link_state`) re-hashes
        the ECMP choice of affected flows; the controller's port state
        still reflects the path announced at creation time.  This
        tears down the old announcement and announces the new one, so
        the pipeline reallocates exactly the ports the flow left and
        joined -- the "reallocated within one sim quantum" step of the
        dynamic-topology story.  Returns ``True`` when an announcement
        was actually re-issued (unmanaged or already-closed flows, and
        multipath announcements whose link set is unchanged, are
        no-ops).
        """
        entry = self._open_conns.get(flow.flow_id)
        if entry is None:
            return False
        job_id, announced = entry
        if self._multipath:
            new_announced = sorted({
                lid
                for path in self._fabric.router.equal_cost_paths(
                    flow.src, flow.dst
                )
                for lid in path
            })
        else:
            new_announced = list(flow.path)
        if tuple(new_announced) == announced:
            return False
        self._open_conns[flow.flow_id] = (job_id, tuple(new_announced))
        if flow.flow_id in self._unacked:
            # The original create never reached the controller; the
            # recovery replay will announce the updated path.
            return True
        if job_id in self._pl_of:
            result = self._call_controller(
                "conn_destroy", job_id=job_id, path=list(announced)
            )
            if result is _DROPPED:
                self._undelivered_destroys.append((job_id, announced))
            result = self._call_controller(
                "conn_create", job_id=job_id, path=new_announced
            )
            if result is _DROPPED:
                self._unacked.add(flow.flow_id)
        self.rerouted_conns += 1
        obs = self._observer
        if obs.enabled:
            obs.metrics.counter("library.rerouted_conns").inc()
        return True

    # -- recovery ---------------------------------------------------------------

    def _has_backlog(self) -> bool:
        return bool(self._pending_registrations or self._unacked
                    or self._undelivered_destroys)

    def _schedule_drain(self, recover_at: float) -> None:
        """One-shot drain at the outage's known end.

        Reactive scheduling keeps the event queue finite: no
        recurring fault events ever live on the engine, so an idle
        fabric still drains exactly as it would without faults.
        """
        if self._drain_scheduled:
            return
        self._drain_scheduled = True
        sim = self._fabric.sim
        sim.schedule_at(max(recover_at, sim.now), self._drain_on_recovery)

    def _drain_on_recovery(self) -> None:
        self._drain_scheduled = False
        self.reconcile()

    def reconcile(self) -> bool:
        """Drain the recovery queue against the live controller.

        Re-registers queued applications, replays open connections the
        controller never heard about, and re-delivers missed
        teardowns.  Stops at the first refused call (the backlog
        stays queued for the next recovery).  Returns ``True`` when
        the backlog is empty afterwards.
        """
        if self._draining:
            return not self._has_backlog()
        self._draining = True
        obs = self._observer
        try:
            for job_id in list(self._pending_registrations):
                workload = self._pending_registrations[job_id]
                pl = self._call_controller(
                    "app_register", job_id=job_id, workload=workload
                )
                if pl is _DROPPED:
                    return False
                del self._pending_registrations[job_id]
                self._pl_of[job_id] = pl
                self.reregistrations += 1
                if obs.enabled:
                    obs.metrics.counter("library.reregistrations").inc()
                    obs.emit(
                        LIB_REREGISTERED, self._fabric.sim.now, job=job_id,
                        workload=workload, pl=pl,
                    )
            for flow_id in sorted(self._unacked):
                job_id, announced = self._open_conns[flow_id]
                if self._pl_of.get(job_id) is None:
                    self._unacked.discard(flow_id)
                    continue
                try:
                    result = self._call_controller(
                        "conn_create", job_id=job_id, path=list(announced)
                    )
                except RegistrationError:
                    # The controller no longer knows this application
                    # (deregistered during the outage): drop the replay.
                    self._unacked.discard(flow_id)
                    continue
                if result is _DROPPED:
                    return False
                self._unacked.discard(flow_id)
                self.replayed_conns += 1
                if obs.enabled:
                    obs.metrics.counter("library.replayed_conns").inc()
            while self._undelivered_destroys:
                job_id, announced = self._undelivered_destroys[0]
                try:
                    result = self._call_controller(
                        "conn_destroy", job_id=job_id, path=list(announced)
                    )
                except RegistrationError:
                    # The application deregistered during the outage;
                    # the controller purged its port state already, so
                    # there is nothing left to tear down.
                    self._undelivered_destroys.pop(0)
                    continue
                if result is _DROPPED:
                    return False
                self._undelivered_destroys.pop(0)
            return True
        finally:
            self._draining = False

    def _promote_failover(self) -> None:
        """Install the standby controller and rebuild its state.

        The dead primary's endpoint is torn down via
        :meth:`RpcBus.unregister` (the boolean result is advisory: a
        test may have unregistered it already to simulate the crash).
        The standby registers under :data:`FAILOVER_ENDPOINT`, becomes
        the fabric policy, and receives every known registration and
        open connection; applications may be assigned different PLs,
        which only affects connections opened from now on (a PL is
        carried in in-flight headers and cannot change)."""
        standby = self._failover
        assert standby is not None
        self._bus.unregister(self._endpoint)
        self._bus.register(FAILOVER_ENDPOINT, standby.rpc_methods(),
                           replace=True)
        self._endpoint = FAILOVER_ENDPOINT
        self._failed_over = True
        self._failures_in_row = 0
        self._fabric.set_policy(standby)
        for job_id, workload in self._workload_of.items():
            pl = self._bus.call(
                FAILOVER_ENDPOINT, "app_register",
                job_id=job_id, workload=workload,
            )
            self._pl_of[job_id] = pl
        self._pending_registrations.clear()
        for flow_id in sorted(self._open_conns):
            job_id, announced = self._open_conns[flow_id]
            self._bus.call(
                FAILOVER_ENDPOINT, "conn_create",
                job_id=job_id, path=list(announced),
            )
            self.replayed_conns += 1
        # The standby rebuilt from scratch: nothing is unacked or
        # undelivered against it.
        self._unacked.clear()
        self._undelivered_destroys.clear()
        obs = self._observer
        if obs.enabled:
            obs.metrics.counter("library.failovers").inc()
            obs.emit(
                LIB_FAILOVER, self._fabric.sim.now,
                endpoint=FAILOVER_ENDPOINT,
                apps=len(self._workload_of),
                replayed_conns=len(self._open_conns),
            )

    # -- ConnectionAPI (cluster runtime integration) ------------------------------

    def create(
        self,
        job_id: str,
        src: str,
        dst: str,
        size: float,
        on_complete: Callable[[Flow], None],
        coflow: Optional[str] = None,
        rate_cap: Optional[float] = None,
        aux_rate: float = 0.0,
    ) -> Flow:
        return self.saba_conn_create(
            job_id, src, dst, size, on_complete=on_complete, coflow=coflow,
            rate_cap=rate_cap, aux_rate=aux_rate,
        )

    def job_started(self, job: Job) -> None:
        self.saba_app_register(job.job_id, job.workload)

    def job_finished(self, job: Job) -> None:
        self.saba_app_deregister(job.job_id)
