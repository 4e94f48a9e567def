"""Extension study: the allocation service under link flaps.

The paper's evaluation assumes a static fabric: the controller
programs switch queues once per connection event and the topology
never changes underneath it.  This extension runs the control plane
as a *service* (:mod:`repro.service`) on a k=4 fat-tree and measures
what dynamic topology costs: scripted ``link_down`` windows
(:class:`~repro.faults.links.LinkFaultDriver`) take aggregation-core
links down and bring them back mid-run while staggered jobs co-run
through the service's admitted API.

Three claims are pinned by the golden file
(``GOLDEN_service.json``, diffed in CI):

* **identity** -- with zero faults and no quota pressure, driving the
  co-run through the service produces byte-identical completion times
  to the static :class:`~repro.core.library.SabaLibrary` harness (the
  service adds admission accounting, not behaviour);
* **availability** -- under N flapped links the service keeps
  admitting (zero rejections, bounded same-instant burst depth) and
  every affected flow is rerouted and its connection re-announced, so
  the pipeline reallocates the ports it left and joined;
* **recovery** -- after the last link recovers, a scheduled probe
  verifies every active flow is back on the path a *fresh* router
  would assign (link-up re-hashes all flows to the canonical ECMP
  assignment), i.e. allocation quality returns to the no-fault
  baseline rather than drifting.

Everything is deterministic in ``seed``; flow ids are reset per run
point (:func:`~repro.simnet.flows.reset_flow_ids`) because ECMP
hashes them, so two runs of one point -- and the harness/service
identity pair -- share byte-identical path assignments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA
from repro.core.table import SensitivityTable
from repro.experiments.common import (
    EXPERIMENT_QUANTUM,
    ScenarioSpec,
    build_catalog_table,
    build_scenario,
    geomean,
    make_policy,
    staggered_corun,
)
from repro.faults import FaultPlan, FaultSpec
from repro.service import AllocationService, ServiceConnections, ServiceQuotas
from repro.simnet.flows import reset_flow_ids
from repro.simnet.routing import Router
from repro.sweep import SweepSpec, Task

#: Aggregation-core duplex pairs flapped, in order, as the flap count
#: grows.  Spread across pods so each flap stresses a different ECMP
#: group; every pair always leaves an alternate path (2 aggs x 2
#: cores per pod), so no flow is ever stranded in this study.
FLAP_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("pod0-agg0", "core0"),
    ("pod1-agg1", "core3"),
    ("pod2-agg0", "core1"),
    ("pod3-agg1", "core2"),
)

#: Outage windows applied to flap i, phase-shifted by ``_PHASE * i``
#: so transitions interleave rather than synchronise.
BASE_WINDOWS: Tuple[Tuple[float, float], ...] = ((6.0, 11.0), (18.0, 22.0))
_PHASE = 2.0

#: Flap-count grid (0 = the identity/static point).
DEFAULT_FLAP_COUNTS: Tuple[int, ...] = (0, 1, 2, 3, 4)

#: The reduced CI grid (``service --smoke``): :func:`service_sweep_spec`
#: arguments.  Part of the compatibility surface: CI diffs its output
#: against ``GOLDEN_service.json``.
SMOKE_GRID: Dict[str, Any] = dict(flap_counts=(0, 1, 3))

#: Admission limits used for the faulted runs: generous enough that
#: this workload never hits them (the study measures topology churn,
#: not quota pressure) while still exercising the bounded-queue
#: accounting the golden file pins via ``max_burst``.
SERVICE_QUOTAS = ServiceQuotas(
    max_apps_per_tenant=64,
    max_conns_per_app=512,
    max_conns_per_tenant=2048,
    max_queue_depth=256,
)


def flap_plan(flaps: int, seed: int) -> FaultPlan:
    """Scripted ``link_down`` schedule for the first ``flaps`` pairs
    (both directions of each duplex pair flap together)."""
    if not 0 < flaps <= len(FLAP_PAIRS):
        raise ValueError(
            f"flaps must be in 1..{len(FLAP_PAIRS)}, got {flaps}"
        )
    specs: List[FaultSpec] = []
    for i, (a, b) in enumerate(FLAP_PAIRS[:flaps]):
        windows = tuple(
            (start + _PHASE * i, end + _PHASE * i)
            for start, end in BASE_WINDOWS
        )
        for link_id in (f"{a}->{b}", f"{b}->{a}"):
            specs.append(FaultSpec.link_flap(link_id, windows))
    return FaultPlan(tuple(specs), seed=seed)


def last_recovery(plan: FaultPlan) -> float:
    """When the final scripted window ends (all links back up)."""
    return max(end for spec in plan.specs for _, end in spec.windows)


def run_service_point(
    mode: str,
    table: SensitivityTable,
    flaps: int = 0,
    seed: int = 7,
    jobs_per_setup: int = 6,
    mean_gap: float = 3.0,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, object]:
    """One staggered co-run on the fat-tree.

    ``mode`` is ``"harness"`` (static SabaLibrary harness, the
    identity reference) or ``"service"`` (everything through the
    :class:`~repro.service.AllocationService`; ``flaps`` > 0 adds the
    scripted link schedule).  Module-level and driven by picklable
    arguments: the unit of work the sweep fans out.
    """
    reset_flow_ids()
    spec = ScenarioSpec(
        topology="fat_tree",
        topology_kwargs={"k": 4},
        policy="saba",
        collapse_alpha=collapse_alpha,
        completion_quantum=completion_quantum,
    )
    jobs, start_times = staggered_corun(
        spec.build_topology().servers, jobs_per_setup, mean_gap, seed
    )

    if mode == "harness":
        results = build_scenario(spec, table=table).run(
            jobs, start_times=start_times
        )
        return {
            "times": {j: r.completion_time for j, r in results.items()},
            "counters": {},
            "recovered": True,
            "degraded_seconds": 0.0,
        }
    if mode != "service":
        raise ValueError(f"unknown mode {mode!r}")

    setup = make_policy("saba", table, collapse_alpha=collapse_alpha)
    controller = setup.controller
    services: List[AllocationService] = []

    def connections_factory(fabric):
        service = AllocationService(
            fabric, controller, quotas=SERVICE_QUOTAS,
        )
        services.append(service)
        return ServiceConnections(service)

    scenario = build_scenario(
        spec, setup=setup, connections_factory=connections_factory,
    )
    executor = scenario.executor
    service = services[0]
    probe = {"probed": False, "canonical": True, "active_flows": 0}
    driver = None
    if flaps:
        plan = flap_plan(flaps, seed=seed + 3)
        driver = service.attach_faults(plan.build())

        def run_probe() -> None:
            fresh = Router(executor.fabric.topology)
            flows = executor.fabric.active_flows
            probe["probed"] = True
            probe["active_flows"] = len(flows)
            probe["canonical"] = all(
                tuple(fresh.path_for_flow(f.src, f.dst, f.flow_id))
                == tuple(f.path)
                for f in flows
            )

        executor.fabric.sim.schedule_at(
            last_recovery(plan) + 0.5, run_probe
        )
    results = executor.run(jobs, start_times=start_times)
    counters: Dict[str, float] = {
        "admitted": float(service.admitted),
        "rejected": float(service.rejected),
        "max_burst": float(service.max_burst),
        "link_transitions": float(service.link_transitions),
        "flows_rerouted": float(service.flows_rerouted),
        "flows_stranded": float(service.flows_stranded),
        "conns_reannounced": float(service.conns_reannounced),
        "ports_forgotten": float(service.ports_forgotten),
        "library_rerouted_conns": float(service.library.rerouted_conns),
        "probe_active_flows": float(probe["active_flows"]),
    }
    if driver is not None:
        counters["driver_transitions"] = float(driver.transitions)
    return {
        "times": {j: r.completion_time for j, r in results.items()},
        "counters": counters,
        # A point without faults trivially recovered; a faulted point
        # recovered iff the post-recovery probe found every active
        # flow on its canonical (fresh-router) path.
        "recovered": probe["canonical"] if flaps else True,
        "degraded_seconds": service.degraded_seconds(),
    }


@dataclass(frozen=True)
class ServicePoint:
    """One flap-count cell of the study."""

    flaps: int
    #: Geometric-mean completion-time ratio vs the zero-fault service
    #: run (>= 1: flaps cost time; 1.0 at the static point).
    slowdown: float
    #: Post-recovery probe: all active flows on canonical paths.
    recovered: bool
    #: Simulated seconds with at least one link down.
    degraded_seconds: float
    counters: Dict[str, float]


@dataclass(frozen=True)
class ServiceResult:
    """Service identity + availability/recovery under link flaps."""

    #: Zero-fault service run is byte-identical to the static harness.
    identical: bool
    points: Tuple[ServicePoint, ...]
    seed: int

    def point(self, flaps: int) -> ServicePoint:
        for p in self.points:
            if p.flaps == flaps:
                return p
        raise KeyError(flaps)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, floats rounded to 4 decimals)
        -- the representation the CI golden file diffs against."""

        def _round(x: float) -> float:
            return round(float(x), 4)

        payload = {
            "identical": self.identical,
            "seed": self.seed,
            "points": [
                {
                    "flaps": p.flaps,
                    "slowdown": _round(p.slowdown),
                    "recovered": p.recovered,
                    "degraded_seconds": _round(p.degraded_seconds),
                    "counters": {
                        k: _round(v) for k, v in sorted(p.counters.items())
                    },
                }
                for p in self.points
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def service_sweep_spec(
    flap_counts: Sequence[int] = DEFAULT_FLAP_COUNTS,
    seed: int = 7,
    jobs_per_setup: int = 6,
    mean_gap: float = 3.0,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    table: Optional[SensitivityTable] = None,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> SweepSpec:
    """The service study as a sweep: one task per flap count, plus the
    static-harness identity reference."""
    if table is None:
        table = build_catalog_table(method="analytic")
    flap_counts = tuple(sorted(set(flap_counts)))
    if 0 not in flap_counts:
        flap_counts = (0,) + flap_counts
    common = {
        "table": table,
        "seed": seed,
        "jobs_per_setup": jobs_per_setup,
        "mean_gap": mean_gap,
        "collapse_alpha": collapse_alpha,
        "completion_quantum": completion_quantum,
    }
    tasks = [
        Task(name="service:harness", fn=run_service_point,
             params=dict(common, mode="harness")),
    ]
    for flaps in flap_counts:
        tasks.append(Task(
            name=f"service:flaps={flaps}",
            fn=run_service_point,
            params=dict(common, mode="service", flaps=flaps),
        ))

    def reduce_to_result(results: Dict[str, Dict]) -> ServiceResult:
        harness_times = results["service:harness"]["times"]
        static = results["service:flaps=0"]
        identical = static["times"] == harness_times
        points: List[ServicePoint] = []
        for flaps in flap_counts:
            point = results[f"service:flaps={flaps}"]
            slowdown = geomean([
                t / static["times"][j]
                for j, t in point["times"].items()
            ])
            points.append(ServicePoint(
                flaps=flaps,
                slowdown=slowdown,
                recovered=bool(point["recovered"]),
                degraded_seconds=float(point["degraded_seconds"]),
                counters=dict(point["counters"]),
            ))
        return ServiceResult(
            identical=identical, points=tuple(points), seed=seed,
        )

    return SweepSpec(
        name="service",
        tasks=tuple(tasks),
        reduce=reduce_to_result,
        config={
            "flap_counts": list(flap_counts), "seed": seed,
            "jobs_per_setup": jobs_per_setup, "mean_gap": mean_gap,
            "collapse_alpha": collapse_alpha,
            "completion_quantum": completion_quantum,
        },
    )
