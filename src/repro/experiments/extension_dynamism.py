"""Extension study: dynamism (not a paper figure).

Section 2.4 names *dynamism* -- applications arriving, terminating and
migrating over time -- as a core challenge, and Section 6's software
interface exists precisely so the controller can re-allocate on every
registration and connection event.  The paper's evaluation, however,
starts all jobs simultaneously.  This extension staggers job arrivals
with exponential gaps and verifies that Saba's advantage survives a
constantly-changing application mix -- exercising the full
(de)registration path at steady churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA, InfiniBandBaseline
from repro.cluster.runtime import CoRunExecutor
from repro.core.controller import SabaController
from repro.core.library import SabaLibrary
from repro.core.table import SensitivityTable
from repro.experiments.common import (
    EXPERIMENT_QUANTUM,
    build_catalog_table,
    geomean,
    staggered_corun,
)
from repro.simnet.topology import single_switch


@dataclass(frozen=True)
class DynamismResult:
    """Speedups under staggered arrivals."""

    per_job_speedup: Dict[str, float]
    controller_registrations: int
    controller_conn_events: int

    @property
    def average_speedup(self) -> float:
        return geomean(list(self.per_job_speedup.values()))


def run_dynamism(
    jobs_per_setup: int = 12,
    n_servers: int = 32,
    mean_gap: float = 5.0,
    seed: int = 99,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    table: Optional[SensitivityTable] = None,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> DynamismResult:
    """One staggered-arrival co-run, baseline vs Saba.

    Jobs arrive with exponential inter-arrival gaps (mean ``mean_gap``
    seconds), so registrations, PL assignments and port re-enforcement
    happen continuously rather than once at t=0.
    """
    if table is None:
        table = build_catalog_table(method="analytic")

    def run(policy, connections_factory=None):
        topo = single_switch(n_servers)
        jobs, start_times = staggered_corun(
            topo.servers, jobs_per_setup, mean_gap, seed
        )
        executor = CoRunExecutor(
            topo, policy=policy, connections_factory=connections_factory,
            completion_quantum=completion_quantum,
        )
        return executor.run(jobs, start_times=start_times)

    baseline = run(InfiniBandBaseline(collapse_alpha=collapse_alpha))
    controller = SabaController(table, collapse_alpha=collapse_alpha)
    saba = run(controller, SabaLibrary.factory(controller))

    return DynamismResult(
        per_job_speedup={
            job_id: baseline[job_id].completion_time
            / saba[job_id].completion_time
            for job_id in baseline
        },
        controller_registrations=controller.stats.registrations,
        controller_conn_events=(
            controller.stats.conn_creates + controller.stats.conn_destroys
        ),
    )
