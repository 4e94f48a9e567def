"""The long-running allocation service (``repro.service``).

Everything before this package drove the control plane as a harness:
an experiment constructed the controller, registered a fixed job set,
ran the fabric to completion, and threw the control plane away.  The
:class:`AllocationService` turns that into an *operated* system: a
single long-lived front-end that owns the controller, the
:class:`~repro.core.library.SabaLibrary` connection manager, and the
:class:`~repro.core.rpc.RpcBus`, and exposes the wire-shaped request
API a datacenter tenant would actually call:

* ``register_app`` / ``deregister`` -- application lifecycle;
* ``conn_create`` / ``conn_destroy`` -- connection lifecycle
  (``conn_destroy`` tears down an in-flight connection via
  :meth:`~repro.simnet.fabric.FluidFabric.cancel_flow`);
* ``get_allocation`` -- the programmed queue table at a port;
* ``health`` -- liveness plus service counters (never rejected).

Admission control (:class:`~repro.service.quotas.ServiceQuotas`)
rejects over-quota requests with typed errors *before* they reach the
library, and a drained service stops admitting while in-flight work
completes.  Rejections are observable (``service.rejected`` events and
``service.*`` counters) but never corrupt state: a rejected request
has no side effects.

The service is also where *dynamic topology* meets the control plane.
A link transition (from :class:`~repro.faults.links.LinkFaultDriver`
or an explicit :meth:`AllocationService.set_link_state` call) reroutes
the affected flows in the fabric; the service then re-announces every
moved connection to the controller (old path torn down, new path
announced) so the pipeline reallocates exactly the ports each flow
left and joined, and force-forgets the recovered port's programmed
signature so it is reprogrammed even if its app mix looks unchanged.
With zero transitions and no quota pressure the service adds no
events and no RPCs beyond the static harness, so service-driven runs
are bit-identical to harness-driven ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cluster.jobs import Job
from repro.errors import (
    QuotaExceededError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.faults.injector import FaultInjector
from repro.faults.links import LinkFaultDriver
from repro.obs.events import (
    NULL_OBSERVER,
    Observer,
    SERVICE_DRAIN,
    SERVICE_REJECTED,
    SERVICE_REQUEST,
)
from repro.core.controller import SabaController
from repro.core.library import SabaLibrary
from repro.core.rpc import RpcBus
from repro.simnet.fabric import FluidFabric, RerouteReport
from repro.simnet.flows import Flow
from repro.service.quotas import UNLIMITED, ServiceQuotas, tenant_of

SERVICE_ENDPOINT = "service"


class AllocationService:
    """One fabric's allocation control plane, run as a service."""

    def __init__(
        self,
        fabric: FluidFabric,
        controller: SabaController,
        quotas: Optional[ServiceQuotas] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.fabric = fabric
        self.controller = controller
        self.quotas = quotas if quotas is not None else UNLIMITED
        self.observer = (
            observer if observer is not None
            else getattr(fabric, "observer", NULL_OBSERVER)
        )
        self.library = SabaLibrary(fabric, controller, observer=self.observer)
        self.bus.register(SERVICE_ENDPOINT, self.rpc_methods(), replace=True)
        # -- admission state ------------------------------------------
        self._draining = False
        self._apps_of_tenant: Dict[str, Dict[str, None]] = {}
        self._tenant_of_app: Dict[str, str] = {}
        self._open_conns_of_app: Dict[str, int] = {}
        self._open_conns_of_tenant: Dict[str, int] = {}
        self._app_of_flow: Dict[int, str] = {}
        #: Same-instant request burst (deterministic queue-depth
        #: stand-in).
        self._burst_instant: Optional[float] = None
        self._burst = 0
        self.max_burst = 0
        # -- counters -------------------------------------------------
        self.admitted = 0
        self.rejected = 0
        self.link_transitions = 0
        self.flows_rerouted = 0
        self.flows_stranded = 0
        self.conns_reannounced = 0
        self.ports_forgotten = 0
        # -- degraded-allocation accounting ---------------------------
        self._degraded_since: Optional[float] = None
        self._degraded_total = 0.0

    # -- plumbing ---------------------------------------------------------------

    @property
    def bus(self) -> RpcBus:
        return self.library.bus

    @property
    def draining(self) -> bool:
        return self._draining

    def rpc_methods(self) -> Dict[str, object]:
        """The service's bus-facing surface (wire-shaped API)."""
        return {
            "register_app": self.register_app,
            "deregister": self.deregister,
            "conn_create": self.conn_create,
            "conn_destroy": self.conn_destroy,
            "get_allocation": self.get_allocation,
            "health": self.health,
        }

    def _now(self) -> float:
        return self.fabric.sim.now

    # -- admission --------------------------------------------------------------

    def _reject(self, op: str, reason: str, exc: type) -> None:
        self.rejected += 1
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("service.rejected").inc()
            obs.emit(SERVICE_REJECTED, self._now(), op=op, reason=reason)
        raise exc(f"{op}: {reason}")

    def _gate(self, op: str) -> None:
        """Common admission gate: drain state, then queue depth.

        Queue depth is modelled deterministically: requests arriving
        at the same simulated instant form a burst, and a burst deeper
        than ``max_queue_depth`` is shed.  ``health`` never passes
        through here -- an operator can always probe a saturated
        service.
        """
        if self._draining:
            self._reject(op, "service is draining", ServiceDrainingError)
        now = self._now()
        if self._burst_instant != now:
            self._burst_instant = now
            self._burst = 0
        self._burst += 1
        self.max_burst = max(self.max_burst, self._burst)
        depth = self.quotas.max_queue_depth
        if depth is not None and self._burst > depth:
            self._burst -= 1  # the shed request never occupied a slot
            self._reject(
                op, f"request queue full (depth {depth})",
                ServiceOverloadedError,
            )

    def _admitted(self, op: str) -> None:
        """Count a request that passed every check (gate + quotas)."""
        self.admitted += 1
        obs = self.observer
        if obs.enabled:
            obs.metrics.counter("service.admitted").inc()
            obs.emit(
                SERVICE_REQUEST, self._now(), op=op, queued=self._burst
            )

    # -- wire-shaped API --------------------------------------------------------

    def register_app(self, app_id: str, workload: str) -> Optional[int]:
        """Admit and register an application; returns its PL."""
        self._gate("register_app")
        tenant = tenant_of(app_id)
        apps = self._apps_of_tenant.setdefault(tenant, {})
        cap = self.quotas.max_apps_per_tenant
        if cap is not None and app_id not in apps and len(apps) >= cap:
            self._reject(
                "register_app",
                f"tenant {tenant!r} at app quota ({cap})",
                QuotaExceededError,
            )
        self._admitted("register_app")
        pl = self.library.saba_app_register(app_id, workload)
        apps[app_id] = None
        self._tenant_of_app[app_id] = tenant
        return pl

    def deregister(self, app_id: str) -> None:
        """Deregister an application (its open connections keep
        running unmanaged until they complete or are destroyed)."""
        self._gate("deregister")
        self._admitted("deregister")
        self.library.saba_app_deregister(app_id)
        tenant = self._tenant_of_app.pop(app_id)
        self._apps_of_tenant[tenant].pop(app_id, None)

    def conn_create(
        self,
        app_id: str,
        src: str,
        dst: str,
        size: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        coflow: Optional[str] = None,
        rate_cap: Optional[float] = None,
        aux_rate: float = 0.0,
    ) -> Flow:
        """Admit and open a connection for a registered application."""
        self._gate("conn_create")
        tenant = self._tenant_of_app.get(app_id)
        if tenant is None:
            # Not registered through this service; the library raises
            # the precise RegistrationError.
            tenant = tenant_of(app_id)
        per_app = self.quotas.max_conns_per_app
        open_app = self._open_conns_of_app.get(app_id, 0)
        if per_app is not None and open_app >= per_app:
            self._reject(
                "conn_create",
                f"app {app_id!r} at connection quota ({per_app})",
                QuotaExceededError,
            )
        per_tenant = self.quotas.max_conns_per_tenant
        open_tenant = self._open_conns_of_tenant.get(tenant, 0)
        if per_tenant is not None and open_tenant >= per_tenant:
            self._reject(
                "conn_create",
                f"tenant {tenant!r} at connection quota ({per_tenant})",
                QuotaExceededError,
            )
        self._admitted("conn_create")

        def _done(flow: Flow, _tenant: str = tenant) -> None:
            self._open_conns_of_app[app_id] -= 1
            self._open_conns_of_tenant[_tenant] -= 1
            self._app_of_flow.pop(flow.flow_id, None)
            if on_complete is not None:
                on_complete(flow)

        flow = self.library.saba_conn_create(
            app_id, src, dst, size, on_complete=_done, coflow=coflow,
            rate_cap=rate_cap, aux_rate=aux_rate,
        )
        self._open_conns_of_app[app_id] = open_app + 1
        self._open_conns_of_tenant[tenant] = open_tenant + 1
        self._app_of_flow[flow.flow_id] = app_id
        return flow

    def conn_destroy(self, flow_id: int) -> Flow:
        """Tear down an in-flight connection.

        The flow finishes with its remaining bytes undelivered; the
        library's teardown hook announces the ``conn_destroy`` to the
        controller exactly as a natural completion would.
        """
        self._gate("conn_destroy")
        if flow_id not in self._app_of_flow:
            # Counted through _reject like every other refused request:
            # a bare raise here would drop the request from the
            # admission accounting (admitted + rejected != offered).
            self._reject(
                "conn_destroy",
                f"flow {flow_id} is not an open service connection",
                ServiceError,
            )
        self._admitted("conn_destroy")
        return self.fabric.cancel_flow(flow_id)

    def get_allocation(self, link_id: str) -> Dict[str, object]:
        """The programmed allocation at one port."""
        self._gate("get_allocation")
        self._admitted("get_allocation")
        return self.controller.describe_port(link_id)

    def health(self) -> Dict[str, object]:
        """Liveness probe; exempt from admission control."""
        now = self._now()
        return {
            "now": now,
            "draining": self._draining,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "open_conns": len(self._app_of_flow),
            "apps": len(self._tenant_of_app),
            "tenants": sorted(self._apps_of_tenant),
            "max_burst": self.max_burst,
            "down_links": self.fabric.topology.down_links(),
            "degraded_seconds": self.degraded_seconds(now),
            "link_transitions": self.link_transitions,
            "flows_rerouted": self.flows_rerouted,
            "flows_stranded": self.flows_stranded,
            "conns_reannounced": self.conns_reannounced,
            "endpoints": self.bus.endpoints(),
        }

    def accounting(self) -> Dict[str, int]:
        """Admission-accounting snapshot for external invariant
        checkers (``repro.storm``): every request the service saw must
        be counted exactly once (``admitted + rejected == offered``)
        and the three open-connection indexes must agree -- a rejected
        or failed request may leak no state into any of them."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "open_flows": len(self._app_of_flow),
            "open_conns_app_total": sum(
                self._open_conns_of_app.values()
            ),
            "open_conns_tenant_total": sum(
                self._open_conns_of_tenant.values()
            ),
            "apps": len(self._tenant_of_app),
        }

    # -- dynamic topology -------------------------------------------------------

    def set_link_state(self, link_id: str, up: bool) -> RerouteReport:
        """Operator-initiated link transition through the service."""
        report = self.fabric.set_link_state(link_id, up)
        self.apply_link_transition(report)
        return report

    def apply_link_transition(self, report: RerouteReport) -> None:
        """Reconcile the control plane after a fabric reroute.

        For every flow the fabric moved, the old path announcement is
        torn down and the new one announced (the pipeline reallocates
        the ports the flow left and joined).  On recovery the returned
        port's signature is forgotten and the port reallocated, so the
        switch is reprogrammed even when its app mix is unchanged --
        its queue table may be stale from before the outage.
        """
        self.link_transitions += 1
        self.flows_rerouted += len(report.rerouted)
        self.flows_stranded += len(report.stranded)
        self._account_degraded(report)
        for flow, old_path in report.rerouted:
            if self.library.conn_rerouted(flow, old_path):
                self.conns_reannounced += 1
        if report.up:
            pipeline = self.controller.pipeline
            self.ports_forgotten += pipeline.forget_ports([report.link_id])
            pipeline.reallocate([report.link_id], coalesce=True)

    def _account_degraded(self, report: RerouteReport) -> None:
        now = self._now()
        down = self.fabric.topology.down_links()
        if down and self._degraded_since is None:
            self._degraded_since = now
        elif not down and self._degraded_since is not None:
            self._degraded_total += now - self._degraded_since
            self._degraded_since = None

    def degraded_seconds(self, now: Optional[float] = None) -> float:
        """Total simulated time with at least one link down (the open
        interval, if any, counted up to ``now``)."""
        total = self._degraded_total
        if self._degraded_since is not None:
            total += (now if now is not None else self._now()) \
                - self._degraded_since
        return total

    def attach_faults(
        self, injector: FaultInjector, horizon: Optional[float] = None
    ) -> LinkFaultDriver:
        """Wire a fault plan's ``link_down`` schedules into the service.

        Returns the started driver; every transition flows through
        :meth:`apply_link_transition`.
        """
        driver = LinkFaultDriver(
            self.fabric, injector, horizon=horizon,
            on_transition=self.apply_link_transition,
        )
        driver.start()
        return driver

    # -- drain ------------------------------------------------------------------

    def drain(self) -> Dict[str, object]:
        """Stop admitting new work; flush pending pipeline updates.

        In-flight connections keep running (the fabric drains them
        naturally); subsequent API requests are rejected with
        :class:`ServiceDrainingError`.  Idempotent.
        """
        already = self._draining
        self._draining = True
        self.controller.pipeline.flush_pending()
        report = {
            "already_draining": already,
            "open_conns": len(self._app_of_flow),
            "apps": len(self._tenant_of_app),
            "admitted": self.admitted,
            "rejected": self.rejected,
        }
        obs = self.observer
        if obs.enabled and not already:
            obs.metrics.counter("service.drains").inc()
            obs.emit(SERVICE_DRAIN, self._now(), **report)
        return report


class ServiceConnections:
    """:class:`~repro.cluster.runtime.ConnectionAPI` over the service.

    Lets the cluster runtime (and therefore every existing experiment
    harness) drive its jobs through the service's admitted API instead
    of a bare :class:`SabaLibrary` -- the zero-fault identity check in
    ``python -m repro service`` runs exactly this adapter.
    """

    def __init__(self, service: AllocationService) -> None:
        self.service = service

    @classmethod
    def factory(
        cls, service: AllocationService
    ) -> Callable[[FluidFabric], "ServiceConnections"]:
        def build(fabric: FluidFabric) -> "ServiceConnections":
            if fabric is not service.fabric:
                raise ServiceError(
                    "service is bound to a different fabric"
                )
            return cls(service)
        return build

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
        return self.service.conn_create(
            job_id, src, dst, size, on_complete=on_complete, coflow=coflow,
            rate_cap=rate_cap, aux_rate=aux_rate,
        )

    def job_started(self, job: Job) -> None:
        self.service.register_app(job.job_id, job.workload)

    def job_finished(self, job: Job) -> None:
        self.service.deregister(job.job_id)
