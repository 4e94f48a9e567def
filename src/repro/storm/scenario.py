"""The storm scenario: one open-loop traffic run plus its probes.

A :class:`StormConfig` is a frozen, picklable description of one
generated-traffic run: the :class:`~repro.experiments.common.
ScenarioSpec` it is built on (topology, policy, fabric configuration),
the arrival process (Poisson base rate, diurnal modulation, flash
crowds), the size/popularity distributions, the teardown race knobs,
and -- in service mode -- admission quotas.  :func:`run_storm` builds
the scenario through the same :func:`~repro.experiments.common.
build_scenario` path the pinned experiments use, drives connections
through it open-loop, probes the fabric invariants at evenly spaced
instants, and returns a :class:`StormReport`.

Two modes:

* ``"fabric"`` -- flows are injected straight into the fabric
  (:meth:`FluidFabric.start_flow`), exercising the data-plane solver
  under any raw :class:`FabricPolicy` (baseline, ideal max-min, Homa,
  Sincronia);
* ``"service"`` -- connections go through a full Saba control plane
  fronted by an :class:`~repro.service.AllocationService`: apps
  register (Zipf-popular), every ``conn_create``/``conn_destroy`` is
  admission-controlled against quotas, and the client counts every
  request it issues so the service's admission accounting can be
  audited (``admitted + rejected == offered``).

Teardowns are scheduled ``destroy_delay`` after creation for a random
``destroy_fraction`` of connections, *without* checking whether the
connection is still alive -- exactly the race a real client loses when
its transfer finishes while the teardown RPC is in flight.  The
service must account such requests like any other.

Determinism: every random stream is seeded from ``config.seed`` alone
and consumed in simulated-event order, and flow ids are reset per run,
so two runs of one config are bit-identical -- including across full
and component-scoped solving, which is what the fuzzer's equivalence
check relies on.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.profiler import OfflineProfiler
from repro.core.table import SensitivityTable
from repro.errors import RegistrationError, ServiceError, SimulationError
from repro.experiments.common import ScenarioSpec, build_scenario, make_policy
from repro.obs.events import (
    NULL_OBSERVER,
    Observer,
    STORM_FINISHED,
    STORM_FLASH_CROWD,
    STORM_STARTED,
    STORM_VIOLATION,
)
from repro.service import AllocationService, ServiceConnections, ServiceQuotas
from repro.simnet.flows import Flow, reset_flow_ids
from repro.storm.arrivals import ArrivalSchedule, FlashCrowd
from repro.storm.invariants import (
    InvariantViolation,
    check_fabric,
    check_service,
    completions_of,
    violation_record,
)
from repro.storm.sizes import BoundedPareto, ZipfPicker
from repro.units import GB, MB
from repro.workloads.catalog import CATALOG, PROFILER_NODES

#: Workloads storm apps register as (service mode).  A small fixed
#: subset of Table 1 keeps the memoized sensitivity table cheap while
#: covering the sensitivity spectrum (NW-bound LR/SQL, insensitive PR,
#: shuffle-heavy Sort).
STORM_WORKLOADS: Tuple[str, ...] = ("LR", "SQL", "PR", "Sort")


@lru_cache(maxsize=1)
def storm_table() -> SensitivityTable:
    """Sensitivity table for :data:`STORM_WORKLOADS`.

    Profiled with the cheap analytic method and memoized per process:
    the fuzzer builds thousands of scenarios and must not re-profile
    (or hit the sweep cache) for each one.
    """
    profiler = OfflineProfiler(degree=3, method="analytic")
    table = SensitivityTable()
    for name in STORM_WORKLOADS:
        spec = CATALOG[name].instantiate(n_instances=PROFILER_NODES)
        table.add(profiler.profile_spec(spec).model)
    return table


@dataclass(frozen=True)
class StormConfig:
    """One storm run, fully determined by its fields (see module doc).

    ``spec`` supplies topology/policy/fabric configuration; in service
    mode its ``policy`` must be ``"saba"`` (the control plane under
    test).  Quota fields follow :class:`ServiceQuotas` (``None`` =
    unlimited) and only apply in service mode.
    """

    spec: ScenarioSpec = field(
        default_factory=lambda: ScenarioSpec(
            topology_kwargs={"n_servers": 8}, completion_quantum=0.0,
        )
    )
    mode: str = "fabric"
    seed: int = 0
    duration: float = 1.0
    base_rate: float = 100.0
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 1.0
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    size_alpha: float = 1.3
    size_lo: float = 32 * MB
    size_hi: float = 2 * GB
    zipf_s: float = 1.0
    n_apps: int = 8
    n_tenants: int = 2
    destroy_fraction: float = 0.0
    destroy_delay: float = 0.05
    n_probes: int = 4
    quota_apps_per_tenant: Optional[int] = None
    quota_conns_per_app: Optional[int] = None
    quota_conns_per_tenant: Optional[int] = None
    quota_queue_depth: Optional[int] = None
    check_conservation: bool = True
    check_starvation: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("fabric", "service"):
            raise ValueError(f"unknown storm mode {self.mode!r}")
        if self.mode == "service" and self.spec.policy != "saba":
            raise ValueError(
                "service mode drives the saba control plane; got policy "
                f"{self.spec.policy!r}"
            )
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.n_apps < 1:
            raise ValueError(f"n_apps must be >= 1, got {self.n_apps}")
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if not 0.0 <= self.destroy_fraction <= 1.0:
            raise ValueError(
                f"destroy_fraction must be in [0, 1], got "
                f"{self.destroy_fraction}"
            )
        if self.destroy_delay <= 0.0:
            raise ValueError(
                f"destroy_delay must be > 0, got {self.destroy_delay}"
            )
        if self.n_probes < 0:
            raise ValueError(f"n_probes must be >= 0, got {self.n_probes}")
        object.__setattr__(self, "flash_crowds", tuple(self.flash_crowds))

    def schedule(self) -> ArrivalSchedule:
        return ArrivalSchedule(
            base_rate=self.base_rate,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period=self.diurnal_period,
            flash_crowds=self.flash_crowds,
        )

    def quotas(self) -> ServiceQuotas:
        return ServiceQuotas(
            max_apps_per_tenant=self.quota_apps_per_tenant,
            max_conns_per_app=self.quota_conns_per_app,
            max_conns_per_tenant=self.quota_conns_per_tenant,
            max_queue_depth=self.quota_queue_depth,
        )

    def app_ids(self) -> List[str]:
        """Tenant-prefixed app identities, Zipf rank order."""
        return [
            f"t{i % self.n_tenants}/app{i:02d}" for i in range(self.n_apps)
        ]

    def config(self) -> Dict[str, object]:
        """JSON-friendly form (sweep configs, reports)."""
        out: Dict[str, object] = {"spec": self.spec.config()}
        for f in dataclasses.fields(self):
            if f.name == "spec":
                continue
            value = getattr(self, f.name)
            if f.name == "flash_crowds":
                value = [dataclasses.asdict(c) for c in value]
            out[f.name] = value
        return out


@dataclass
class StormReport:
    """What one storm run offered, what survived, and what broke.

    ``offered``/``admitted``/``rejected`` are the *client-side* counts
    of admission-controlled requests (service mode; zero in fabric
    mode, where ``injected`` counts raw flow starts).  ``completed``
    counts flows the fabric finished (teardowns included);
    ``cancelled`` counts successful early teardowns.  ``violations``
    holds one record per failed invariant probe; an empty list is a
    passing run.  ``completions`` (finish time per flow id) is carried
    for equivalence checks and is not serialized; ``wall_seconds`` is
    host wall-clock time and is likewise left out of the JSON so
    reports stay byte-stable across machines.
    """

    config: Dict[str, object]
    offered: int
    admitted: int
    rejected: int
    injected: int
    completed: int
    cancelled: int
    max_active: int
    horizon: float
    violations: List[Dict[str, object]]
    accounting: Optional[Dict[str, int]] = None
    completions: Dict[int, float] = field(default_factory=dict, repr=False)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def flows_per_sec(self) -> float:
        """Completed flows per host wall-clock second (generator
        throughput; the open-loop analogue of the hyperscale bench's
        figure)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.completed / self.wall_seconds

    def to_json(self) -> Dict[str, object]:
        return {
            "config": self.config,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "injected": self.injected,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "max_active": self.max_active,
            "horizon": round(self.horizon, 4),
            "ok": self.ok,
            "violations": self.violations,
            "accounting": self.accounting,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def equivalence_configs(config: StormConfig) -> Dict[str, StormConfig]:
    """The solver-path variants a run must agree with bit-for-bit.

    ``full_solve`` flips ``incremental``: a component-scoped run is
    re-run with full solves, and a full-solve run with component-scoped
    ones.  Everything else -- seeds, arrivals, teardowns -- is
    unchanged, so per-flow completion times must match to 1e-9
    relative.
    """
    spec = config.spec
    return {
        "full_solve": dataclasses.replace(
            config,
            spec=dataclasses.replace(spec, incremental=not spec.incremental),
        ),
    }


def run_storm(
    config: StormConfig,
    observer: Optional[Observer] = None,
    check: bool = True,
) -> StormReport:
    """Run one storm scenario to completion; never raises on an
    invariant violation -- probes record violations in the report so a
    fuzz campaign can keep going (and so one scenario can accumulate
    several findings)."""
    reset_flow_ids()
    spec = config.spec
    obs = observer if observer is not None else NULL_OBSERVER
    violations: List[Dict[str, object]] = []

    service: Optional[AllocationService] = None
    if config.mode == "service":
        setup = make_policy(
            spec.policy, table=storm_table(),
            collapse_alpha=spec.collapse_alpha, observer=observer,
            **dict(spec.policy_kwargs),
        )
        services: List[AllocationService] = []

        def factory(fabric):
            svc = AllocationService(
                fabric, setup.controller, quotas=config.quotas(),
                observer=fabric.observer,
            )
            services.append(svc)
            return ServiceConnections(svc)

        scenario = build_scenario(
            spec, setup=setup, connections_factory=factory,
            observer=observer,
        )
        service = services[0]
    else:
        table = (
            storm_table() if spec.policy.startswith("saba") else None
        )
        scenario = build_scenario(spec, table=table, observer=observer)

    fabric = scenario.fabric
    sim = fabric.sim
    servers = list(scenario.topology.servers)
    if len(servers) < 2:
        raise ValueError("storm needs a topology with >= 2 servers")

    schedule = config.schedule()
    sizes = BoundedPareto(config.size_alpha, config.size_lo, config.size_hi)
    picker = ZipfPicker(config.n_apps, config.zipf_s)
    # Independent streams: the arrival clock must not shift when a
    # body knob (sizes, destroy fraction) changes, and vice versa.
    arr_rng = Random(f"storm:{config.seed}:arrivals")
    body_rng = Random(f"storm:{config.seed}:body")

    state = {
        "offered": 0, "admitted": 0, "rejected": 0, "injected": 0,
        "active": 0, "max_active": 0, "cancelled": 0,
    }
    live: Set[int] = set()
    app_ids = config.app_ids()
    workload_of = {
        app: STORM_WORKLOADS[i % len(STORM_WORKLOADS)]
        for i, app in enumerate(app_ids)
    }

    if obs.enabled:
        obs.emit(
            STORM_STARTED, 0.0, mode=config.mode, policy=spec.policy,
            seed=config.seed, duration=config.duration,
            base_rate=config.base_rate,
        )
        for crowd in schedule.flash_crowds:
            def mark(c: FlashCrowd = crowd) -> None:
                obs.emit(
                    STORM_FLASH_CROWD, sim.now, duration=c.duration,
                    multiplier=c.multiplier,
                )
            sim.schedule_at(crowd.start, mark)

    if service is not None:
        for app in app_ids:
            state["offered"] += 1
            try:
                service.register_app(app, workload_of[app])
                state["admitted"] += 1
            except ServiceError:
                state["rejected"] += 1

    def on_complete(flow: Flow) -> None:
        state["active"] -= 1
        live.discard(flow.flow_id)

    def teardown(fid: int) -> None:
        if service is not None:
            # Open-loop: the client does not know whether the transfer
            # already finished -- the service must account the request
            # either way.
            state["offered"] += 1
            try:
                service.conn_destroy(fid)
                state["admitted"] += 1
                state["cancelled"] += 1
            except ServiceError:
                state["rejected"] += 1
        elif fid in live:
            fabric.cancel_flow(fid)
            state["cancelled"] += 1

    def inject() -> None:
        now = sim.now
        app = app_ids[picker.pick(body_rng)]
        src_i = body_rng.randrange(len(servers))
        dst_i = body_rng.randrange(len(servers) - 1)
        if dst_i >= src_i:
            dst_i += 1
        size = sizes.sample(body_rng)
        destroy = body_rng.random() < config.destroy_fraction
        flow: Optional[Flow] = None
        if service is not None:
            state["offered"] += 1
            try:
                flow = service.conn_create(
                    app, servers[src_i], servers[dst_i], size,
                    on_complete=on_complete,
                )
                state["admitted"] += 1
            except (RegistrationError, ServiceError):
                # RegistrationError: the app's own registration was
                # quota-rejected earlier; the service admitted this
                # request before the library refused it, which is the
                # documented accounting (admitted, no state change).
                state["rejected"] += 1
        else:
            flow = fabric.start_flow(
                Flow(src=servers[src_i], dst=servers[dst_i], size=size,
                     app=app),
                on_complete=on_complete,
            )
        if flow is not None:
            state["injected"] += 1
            state["active"] += 1
            state["max_active"] = max(state["max_active"], state["active"])
            live.add(flow.flow_id)
            if destroy:
                sim.schedule_at(
                    now + config.destroy_delay,
                    lambda fid=flow.flow_id: teardown(fid),
                )
        t_next = schedule.next_after(now, arr_rng)
        if t_next <= config.duration:
            sim.schedule_at(t_next, inject)

    t0 = schedule.next_after(0.0, arr_rng)
    if t0 <= config.duration:
        sim.schedule_at(t0, inject)

    def record(exc: InvariantViolation) -> None:
        violations.append(violation_record(exc, sim.now))
        if obs.enabled:
            obs.emit(
                STORM_VIOLATION, sim.now, invariant=exc.name,
                detail=exc.detail,
            )

    def probe_fabric() -> None:
        try:
            check_fabric(
                fabric,
                conservation=config.check_conservation,
                no_starvation=config.check_starvation,
            )
        except InvariantViolation as exc:
            record(exc)

    horizon = 0.0
    probe_times = [
        config.duration * (i + 1) / config.n_probes
        for i in range(config.n_probes)
    ]
    wall_start = time.perf_counter()
    try:
        for t in probe_times:
            horizon = fabric.run(until=t)
            if check:
                probe_fabric()
                if service is not None:
                    try:
                        check_service(service, state["offered"])
                    except InvariantViolation as exc:
                        record(exc)
        horizon = fabric.run()
    except SimulationError as exc:
        record(InvariantViolation("simulation_error", str(exc)))

    if check and service is not None:
        try:
            check_service(service, state["offered"], expect_idle=True)
        except InvariantViolation as exc:
            record(exc)

    report = StormReport(
        config=config.config(),
        offered=state["offered"],
        admitted=state["admitted"],
        rejected=state["rejected"],
        injected=state["injected"],
        completed=len(fabric.completed),
        cancelled=state["cancelled"],
        max_active=state["max_active"],
        horizon=horizon,
        violations=violations,
        accounting=service.accounting() if service is not None else None,
        completions=completions_of(fabric),
        wall_seconds=time.perf_counter() - wall_start,
    )
    if obs.enabled:
        obs.emit(
            STORM_FINISHED, horizon, offered=report.offered,
            injected=report.injected, completed=report.completed,
            cancelled=report.cancelled, ok=report.ok,
            violations=len(report.violations),
        )
    return report


#: Named storm scenarios for ``python -m repro storm run``.
PRESETS: Mapping[str, StormConfig] = {
    # Steady Poisson load through the raw fabric path.
    "smoke": StormConfig(
        spec=ScenarioSpec(
            topology_kwargs={"n_servers": 8}, completion_quantum=0.0,
        ),
        seed=1, duration=0.5, base_rate=150.0,
        size_lo=56 * MB, size_hi=3 * GB,
    ),
    # Diurnal swing with two flash crowds on a fat-tree under Homa.
    "flash": StormConfig(
        spec=ScenarioSpec(
            topology="fat_tree", topology_kwargs={"k": 4},
            policy="homa", completion_quantum=0.0,
        ),
        seed=2, duration=1.0, base_rate=120.0,
        size_lo=160 * MB, size_hi=6 * GB, size_alpha=1.4,
        diurnal_amplitude=0.5, diurnal_period=1.0,
        flash_crowds=(
            FlashCrowd(start=0.25, duration=0.15, multiplier=4.0),
            FlashCrowd(start=0.7, duration=0.1, multiplier=3.0),
        ),
        check_starvation=False,
    ),
    # The full control plane: quotas, teardown races, admission audit.
    "service": StormConfig(
        spec=ScenarioSpec(
            topology_kwargs={"n_servers": 12}, policy="saba",
            completion_quantum=0.0,
        ),
        mode="service", seed=3, duration=1.0, base_rate=60.0,
        size_lo=200 * MB, size_hi=6 * GB,
        n_apps=6, n_tenants=2, destroy_fraction=0.25, destroy_delay=0.03,
        quota_conns_per_app=24, quota_conns_per_tenant=64,
        quota_queue_depth=32,
    ),
}


__all__ = [
    "PRESETS",
    "STORM_WORKLOADS",
    "StormConfig",
    "StormReport",
    "equivalence_configs",
    "run_storm",
    "storm_table",
]
