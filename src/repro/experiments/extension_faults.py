"""Extension study: control-plane faults (not a paper figure).

Section 5.4 concedes that "a centralized controller represents a
single point of failure" and sketches a distributed design, but the
paper never measures what a failing controller *costs*.  This
extension does: a staggered-arrival co-run (the dynamism setup) runs
under the InfiniBand baseline and under Saba while the controller
endpoint crashes and recovers on a seeded MTBF/MTTR renewal process
(:mod:`repro.faults`).  The Saba library runs ``fail_open``:
connections opened during an outage proceed under the
last-programmed weights, and missed registrations / connection
announcements replay when the controller returns.

Two resilience strategies are compared across fault intensities:

* ``saba``          -- fail-open + recovery replay only;
* ``saba-failover`` -- additionally promotes a warm
  :class:`~repro.core.distributed.DistributedControllerGroup` standby
  after a run of consecutive refused calls (the §5.4 design reused as
  the failover path).

The expected shape, asserted by ``tests/faults/test_experiment.py``:
Saba's speedup over the baseline decays toward 1x as controller
downtime grows (more connections run unmanaged) but never falls
below it -- fail-open degrades to baseline behaviour, not past it --
and failover holds the speedup closer to the fault-free value.

Everything is deterministic in ``seed``: arrivals, placements and
fault windows each derive their own stream from it, so one point
re-run twice produces byte-identical JSON (the CI golden file relies
on this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA
from repro.core.distributed import DistributedControllerGroup, MappingDatabase
from repro.core.library import SabaLibrary
from repro.core.rpc import RpcBus
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
from repro.sweep import SweepSpec, Task

#: Fault-intensity grid: mean time between controller failures, in
#: simulated seconds (``None`` = no faults, the reference point).
#: Stage durations are tens of seconds, so MTBF 10 s means the
#: controller spends large fractions of every job's lifetime down.
DEFAULT_MTBFS: Tuple[Optional[float], ...] = (None, 90.0, 45.0, 20.0, 10.0)

#: Series = resilience strategy under test.
SERIES = ("saba", "saba-failover")

#: The reduced CI grid (``faults --smoke``): :func:`faults_sweep_spec`
#: arguments for a small cluster and three fault intensities.  Part of
#: the compatibility surface: CI diffs its output against
#: ``GOLDEN_faults.json``.
SMOKE_GRID: Dict[str, Any] = dict(
    mtbfs=(None, 40.0, 10.0), mttr=5.0, jobs_per_setup=6, n_servers=16,
    mean_gap=3.0,
)


def run_faults_point(
    policy_name: str,
    table: SensitivityTable,
    mtbf: Optional[float] = None,
    mttr: float = 6.0,
    seed: int = 7,
    jobs_per_setup: int = 10,
    n_servers: int = 32,
    mean_gap: float = 4.0,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, Dict[str, float]]:
    """One co-run under one policy and one fault intensity.

    ``policy_name`` is ``"baseline"`` (InfiniBand, no control plane to
    fault), ``"saba"`` (fail-open + replay) or ``"saba-failover"``
    (fail-open + warm standby).  Returns per-job completion times plus
    the control-plane counters the analysis aggregates.  Module-level
    and driven only by picklable arguments: the unit of work the
    faults sweep fans out.
    """
    spec = ScenarioSpec(
        topology="single_switch",
        topology_kwargs={"n_servers": n_servers},
        policy=policy_name if policy_name == "baseline" else "saba",
        collapse_alpha=collapse_alpha,
        completion_quantum=completion_quantum,
    )
    jobs, start_times = staggered_corun(
        spec.build_topology().servers, jobs_per_setup, mean_gap, seed
    )

    if policy_name == "baseline":
        results = build_scenario(spec).run(jobs, start_times=start_times)
        return {
            "times": {j: r.completion_time for j, r in results.items()},
            "counters": {},
        }
    if policy_name not in SERIES:
        raise ValueError(f"unknown policy {policy_name!r}")

    injector = None
    if mtbf is not None:
        injector = FaultPlan(
            (FaultSpec.crash("controller", mtbf=mtbf, mttr=mttr),),
            seed=seed + 3,
        ).build()
    bus = RpcBus(faults=injector)
    setup = make_policy("saba", table, collapse_alpha=collapse_alpha)
    controller = setup.controller
    failover = None
    if policy_name == "saba-failover":
        failover = DistributedControllerGroup(
            MappingDatabase(table, seed=seed + 5),
            n_shards=4, collapse_alpha=collapse_alpha,
        )
    libraries: List[SabaLibrary] = []

    def connections_factory(fabric):
        lib = SabaLibrary(
            fabric, controller, bus=bus, fail_open=True,
            failover=failover,
        )
        libraries.append(lib)
        return lib

    scenario = build_scenario(
        spec, setup=setup, connections_factory=connections_factory,
        faults=injector,
    )
    results = scenario.run(jobs, start_times=start_times)
    lib = libraries[0]
    counters: Dict[str, float] = {
        "dropped_control_messages": float(lib.dropped_control_messages),
        "reregistrations": float(lib.reregistrations),
        "replayed_conns": float(lib.replayed_conns),
        "failed_over": 1.0 if lib.failed_over else 0.0,
        "pending_registrations": float(lib.pending_registrations),
        "rpc_submitted": float(bus.stats.submitted),
        "rpc_delivered": float(bus.stats.delivered),
        "rpc_unavailable": float(bus.stats.unavailable),
    }
    if injector is not None:
        for kind, count in injector.stats.items():
            counters[f"faults_{kind}"] = float(count)
    return {
        "times": {j: r.completion_time for j, r in results.items()},
        "counters": counters,
    }


@dataclass(frozen=True)
class FaultsPoint:
    """One (strategy, fault intensity) cell of the study."""

    series: str
    mtbf: Optional[float]
    mttr: float
    #: Long-run fraction of time the controller is down,
    #: ``mttr / (mtbf + mttr)`` (0 for the fault-free point).
    downtime: float
    #: Geometric-mean speedup over the InfiniBand baseline.
    speedup: float
    counters: Dict[str, float]


@dataclass(frozen=True)
class FaultsResult:
    """Speedup vs controller-fault intensity, per resilience strategy."""

    points: Tuple[FaultsPoint, ...]
    mttr: float
    seed: int

    def series(self, name: str) -> List[FaultsPoint]:
        return [p for p in self.points if p.series == name]

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, floats rounded to 4 decimals)
        -- the representation the CI golden file diffs against."""

        def _round(x):
            return None if x is None else round(float(x), 4)

        payload = {
            "mttr": _round(self.mttr),
            "seed": self.seed,
            "points": [
                {
                    "series": p.series,
                    "mtbf": _round(p.mtbf),
                    "downtime": _round(p.downtime),
                    "speedup": _round(p.speedup),
                    "counters": {
                        k: _round(v) for k, v in sorted(p.counters.items())
                    },
                }
                for p in self.points
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def faults_sweep_spec(
    mtbfs: Sequence[Optional[float]] = DEFAULT_MTBFS,
    mttr: float = 6.0,
    seed: int = 7,
    jobs_per_setup: int = 10,
    n_servers: int = 32,
    mean_gap: float = 4.0,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    table: Optional[SensitivityTable] = None,
    series: Sequence[str] = SERIES,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> SweepSpec:
    """The faults study as a sweep: one task per (strategy, MTBF)
    point plus one shared baseline task, fanned out by
    :mod:`repro.sweep` like every other experiment grid."""
    if table is None:
        table = build_catalog_table(method="analytic")
    mtbfs = tuple(mtbfs)
    series = tuple(series)
    common = {
        "table": table,
        "mttr": mttr,
        "seed": seed,
        "jobs_per_setup": jobs_per_setup,
        "n_servers": n_servers,
        "mean_gap": mean_gap,
        "collapse_alpha": collapse_alpha,
        "completion_quantum": completion_quantum,
    }
    tasks = [
        Task(name="faults:baseline", fn=run_faults_point,
             params=dict(common, policy_name="baseline"))
    ]
    for name in series:
        for mtbf in mtbfs:
            label = "none" if mtbf is None else f"{mtbf:g}"
            tasks.append(Task(
                name=f"faults:{name}:mtbf={label}",
                fn=run_faults_point,
                params=dict(common, policy_name=name, mtbf=mtbf),
            ))

    def reduce_to_result(results: Dict[str, Dict]) -> FaultsResult:
        baseline_times = results["faults:baseline"]["times"]
        points: List[FaultsPoint] = []
        for name in series:
            for mtbf in mtbfs:
                label = "none" if mtbf is None else f"{mtbf:g}"
                point = results[f"faults:{name}:mtbf={label}"]
                speedup = geomean([
                    baseline_times[j] / t
                    for j, t in point["times"].items()
                ])
                downtime = (
                    0.0 if mtbf is None else mttr / (mtbf + mttr)
                )
                points.append(FaultsPoint(
                    series=name, mtbf=mtbf, mttr=mttr,
                    downtime=downtime, speedup=speedup,
                    counters=dict(point["counters"]),
                ))
        return FaultsResult(points=tuple(points), mttr=mttr, seed=seed)

    return SweepSpec(
        name="faults",
        tasks=tuple(tasks),
        reduce=reduce_to_result,
        config={
            "mtbfs": [m for m in mtbfs], "mttr": mttr, "seed": seed,
            "jobs_per_setup": jobs_per_setup, "n_servers": n_servers,
            "mean_gap": mean_gap, "collapse_alpha": collapse_alpha,
            "series": list(series),
            "completion_quantum": completion_quantum,
        },
    )
