"""Figure 8: the main testbed results (Section 8.2).

500 randomized cluster setups of 16 jobs on 32 servers; each setup
runs twice -- once under the InfiniBand baseline, once under Saba --
and per-job speedups are aggregated per workload (Figure 8a) and per
setup (the CDF of Figure 8b).

Scale parameters default to the paper's values; CI and the benchmark
harness pass smaller ``n_setups`` (the distribution of setup averages
stabilises far below 500).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA
from repro.cluster.setups import ClusterSetup, generate_setups
from repro.core.table import SensitivityTable
from repro.experiments.common import (
    EXPERIMENT_QUANTUM,
    ScenarioSpec,
    build_catalog_table,
    build_scenario,
    geomean,
)
from repro.sweep import SweepSpec, Task
from repro.units import GBPS_56
from repro.workloads.catalog import CATALOG


@dataclass
class Fig8Result:
    """Aggregated outcome of the testbed experiment."""

    per_workload_speedup: Dict[str, float]
    setup_averages: List[float]
    per_job_speedups: Dict[str, List[float]] = field(repr=False, default_factory=dict)

    @property
    def average_speedup(self) -> float:
        """Geometric mean across workloads (the paper's 1.88x)."""
        return geomean(list(self.per_workload_speedup.values()))

    def cdf(self) -> List[tuple]:
        """(speedup, cumulative fraction) points for Figure 8b."""
        values = sorted(self.setup_averages)
        n = len(values)
        return [(v, (i + 1) / n) for i, v in enumerate(values)]


def run_setup_pair(
    setup: ClusterSetup,
    table: SensitivityTable,
    n_servers: int = 32,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    placement_seed: int = 0,
    saba_kwargs: Optional[dict] = None,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, float]:
    """Run one cluster setup under baseline and Saba; per-job speedups.

    Module-level and driven entirely by its (picklable) arguments: one
    setup is the unit of work the Figure 8 sweep fans out.
    """

    def materialize(topology):
        rng = random.Random(placement_seed + setup.setup_id)
        return setup.materialize(topology.servers, rng, GBPS_56)

    common = dict(
        topology="single_switch",
        topology_kwargs={"n_servers": n_servers},
        collapse_alpha=collapse_alpha,
        completion_quantum=completion_quantum,
    )

    base = build_scenario(ScenarioSpec(policy="baseline", **common))
    baseline = base.run(materialize(base.topology))

    saba_scn = build_scenario(
        ScenarioSpec(policy="saba", policy_kwargs=saba_kwargs or {}, **common),
        table=table,
    )
    saba = saba_scn.run(materialize(saba_scn.topology))

    return {
        job_id: baseline[job_id].completion_time / saba[job_id].completion_time
        for job_id in baseline
    }


def fig8_sweep_spec(
    n_setups: int = 500,
    jobs_per_setup: int = 16,
    n_servers: int = 32,
    seed: int = 2023,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    table: Optional[SensitivityTable] = None,
    degree: int = 3,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> SweepSpec:
    """The Figure 8 grid as a sweep: one task per cluster setup."""
    if table is None:
        table = build_catalog_table(degree=degree, method="analytic")
    setups = list(generate_setups(
        n_setups=n_setups, jobs_per_setup=jobs_per_setup, seed=seed,
        max_instances=n_servers,
    ))
    tasks = [
        Task(
            name=f"fig8:setup{setup.setup_id}",
            fn=run_setup_pair,
            params={
                "setup": setup,
                "table": table,
                "n_servers": n_servers,
                "collapse_alpha": collapse_alpha,
                "completion_quantum": completion_quantum,
            },
        )
        for setup in setups
    ]

    def reduce_to_result(results: Dict[str, Dict[str, float]]) -> Fig8Result:
        per_job: Dict[str, List[float]] = {name: [] for name in CATALOG}
        setup_averages: List[float] = []
        for setup in setups:
            speedups = results[f"fig8:setup{setup.setup_id}"]
            for desc in setup.jobs:
                per_job[desc.workload].append(speedups[desc.job_id])
            setup_averages.append(geomean(list(speedups.values())))
        per_workload = {
            name: geomean(values)
            for name, values in per_job.items() if values
        }
        return Fig8Result(
            per_workload_speedup=per_workload,
            setup_averages=setup_averages,
            per_job_speedups=per_job,
        )

    return SweepSpec(
        name="fig8",
        tasks=tuple(tasks),
        reduce=reduce_to_result,
        config={
            "n_setups": n_setups, "jobs_per_setup": jobs_per_setup,
            "n_servers": n_servers, "seed": seed,
            "collapse_alpha": collapse_alpha, "degree": degree,
            "completion_quantum": completion_quantum,
        },
    )
