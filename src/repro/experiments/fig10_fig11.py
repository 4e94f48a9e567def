"""Figures 10 and 11: the large-scale simulation studies (Section 8.4).

The paper simulates a 1,944-server three-tier spine-leaf cluster with
20 synthetic workloads; instances of every workload are distributed
randomly, one job instance set per workload.  The builders here are
parametric -- ``spine_leaf()`` defaults reproduce the full topology,
while benchmarks run a proportionally scaled-down fabric with the same
three-tier shape.

* :func:`fig10_sweep_spec` -- speedup of Saba, ideal max-min, Homa,
  and Sincronia over the InfiniBand baseline (studies 4-6), as a
  sweep (``runner.run(spec).value``; the ``fig10`` registry entry).
* :func:`run_fig11a` -- centralized vs distributed controller
  (study 7).
* :func:`run_fig11b` -- number of per-port queues in
  {2, 4, 8, 16, unlimited} (study 8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.jobs import Job
from repro.cluster.placement import random_placement
from repro.core.profiler import OfflineProfiler
from repro.core.table import SensitivityTable
from repro.experiments.common import (
    EXPERIMENT_QUANTUM,
    ScenarioSpec,
    build_scenario,
    geomean,
    make_policy,
)
from repro.simnet.topology import Topology, spine_leaf
from repro.sweep import SweepSpec, Task
from repro.workloads.model import ApplicationSpec
from repro.workloads.synthetic import synthetic_workloads

#: Scaled-down simulation defaults: the same three-tier shape as the
#: paper's 54/102/108 x 18 topology, with the paper's key statistical
#: properties preserved -- one workload instance per server, an
#: overprovisioned core (contention concentrates at ToR uplinks, as at
#: full scale), and ~1 flow per application per contended port.  Pass
#: the paper's values for a full-scale run.
DEFAULT_TOPOLOGY = dict(n_spine=8, n_leaf=8, n_tor=8, servers_per_tor=10)

#: The paper's full-scale fabric: 54 spine, 102 leaf and 108 ToR
#: switches with 18 servers per ToR (1,944 servers, §8.1).
PAPER_TOPOLOGY = dict(n_spine=54, n_leaf=102, n_tor=108, servers_per_tor=18)

#: Congestion-control loss used in the *simulation* studies.  The
#: paper's OMNeT++ InfiniBand model keeps its baseline within 1.14x of
#: ideal max-min (Figure 10), far gentler than the real switch, whose
#: measured collapse the testbed experiments model with
#: ``DEFAULT_COLLAPSE_ALPHA``.  This value reproduces that gap.
SIM_COLLAPSE_ALPHA = 0.015


def build_simulation(
    n_workloads: int = 20,
    instances_per_workload: Optional[int] = None,
    topology_kwargs: Optional[dict] = None,
    seed: int = 11,
    num_queues: int = 8,
):
    """Topology + placed jobs for the simulation studies.

    Mirrors §8.1: every server runs one workload instance; each of the
    ``n_workloads`` synthetic workloads gets an equal number of
    instances, randomly distributed.
    """
    kwargs = dict(DEFAULT_TOPOLOGY)
    if topology_kwargs:
        kwargs.update(topology_kwargs)
    kwargs["num_queues"] = num_queues

    def make_topology() -> Topology:
        return spine_leaf(**kwargs)

    topo = make_topology()
    n_servers = len(topo.servers)
    if instances_per_workload is None:
        # One workload instance per server, as in the paper ("each
        # server runs one workload").
        instances_per_workload = max(2, n_servers // n_workloads)
    specs = synthetic_workloads(count=n_workloads,
                                n_instances=instances_per_workload)
    rng = random.Random(seed)
    placements = random_placement(
        [spec.n_instances for spec in specs], topo.servers, rng,
        max_jobs_per_server=n_workloads,
    )

    def make_jobs() -> List[Job]:
        return [
            Job(job_id=spec.name, spec=spec, workload=spec.name,
                placement=list(placement))
            for spec, placement in zip(specs, placements)
        ]

    return make_topology, make_jobs, specs


def profile_synthetic(
    specs: Sequence[ApplicationSpec],
    degree: int = 3,
    rack_nodes: int = 18,
) -> SensitivityTable:
    """Profile each synthetic workload on a rack-scale pod (§8.4:
    'the profiler deploys instances of the workload on a rack-scale
    simulated system with 18 nodes')."""
    profiler = OfflineProfiler(degree=degree, method="analytic",
                               n_nodes=rack_nodes)
    table = SensitivityTable()
    for spec in specs:
        rack_spec = ApplicationSpec(
            name=spec.name, stages=spec.stages,
            n_instances=rack_nodes, fanout=spec.fanout,
            barrier=spec.barrier,
        )
        table.add(profiler.profile_spec(rack_spec).model)
    return table


@dataclass(frozen=True)
class Fig10Result:
    """Per-policy, per-workload speedups over the baseline."""

    speedups: Dict[str, Dict[str, float]]

    def average(self, policy: str) -> float:
        return geomean(list(self.speedups[policy].values()))


def sim_scenario_spec(
    policy: str,
    collapse_alpha: float = SIM_COLLAPSE_ALPHA,
    topology_kwargs: Optional[dict] = None,
    num_queues: int = 8,
    completion_quantum: float = EXPERIMENT_QUANTUM,
    **policy_kwargs,
) -> ScenarioSpec:
    """:class:`ScenarioSpec` for a simulation-study run.

    Merges ``topology_kwargs`` over :data:`DEFAULT_TOPOLOGY` exactly
    as :func:`build_simulation` does, so the spec's topology matches
    the one the placement was computed for.
    """
    kwargs = dict(DEFAULT_TOPOLOGY)
    if topology_kwargs:
        kwargs.update(topology_kwargs)
    kwargs["num_queues"] = num_queues
    return ScenarioSpec(
        topology="spine_leaf",
        topology_kwargs=kwargs,
        policy=policy,
        collapse_alpha=collapse_alpha,
        policy_kwargs=policy_kwargs,
        completion_quantum=completion_quantum,
    )


def run_policy_point(
    policy_name: str,
    table: SensitivityTable,
    collapse_alpha: float = SIM_COLLAPSE_ALPHA,
    seed: int = 11,
    topology_kwargs: Optional[dict] = None,
    n_workloads: int = 20,
    num_queues: int = 8,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, float]:
    """Completion time per job for one policy on the simulated fabric.

    The per-policy unit of work of the Figure 10 sweep: module-level,
    driven only by picklable arguments, and deterministic in ``seed``
    (``build_simulation`` re-derives the same placement in every
    worker process).
    """
    _, make_jobs, _ = build_simulation(
        n_workloads=n_workloads, topology_kwargs=topology_kwargs,
        seed=seed, num_queues=num_queues,
    )
    spec = sim_scenario_spec(
        policy_name, collapse_alpha=collapse_alpha,
        topology_kwargs=topology_kwargs, num_queues=num_queues,
        completion_quantum=completion_quantum,
    )
    results = build_scenario(spec, table=table).run(make_jobs())
    return {job_id: res.completion_time for job_id, res in results.items()}


def fig10_sweep_spec(
    policies: Sequence[str] = ("saba", "ideal-maxmin", "homa", "sincronia"),
    collapse_alpha: float = SIM_COLLAPSE_ALPHA,
    table: Optional[SensitivityTable] = None,
    seed: int = 11,
    topology_kwargs: Optional[dict] = None,
    n_workloads: int = 20,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> SweepSpec:
    """Figure 10 as a sweep: one simulator run per policy.

    The baseline is a task like any other, so all five simulator runs
    proceed in parallel; the reduction divides per-job completion
    times to produce the speedup table.

    The paper's simulator models InfiniBand end to end, so every
    priority-based policy (Saba, Homa, Sincronia) runs on the same
    congestion-controlled transport as the baseline; the congestion-
    control loss applies per queue/class.  Ideal max-min is the
    explicit upper bound and stays loss-free (per-flow round-robin
    queues).  Unknown policy names are rejected here, before the
    synthetic workloads are profiled or any simulator runs.
    """
    policies = tuple(policies)
    for name in policies:
        make_policy(name, table=SensitivityTable(),
                    collapse_alpha=collapse_alpha)
    if table is None:
        _, _, specs = build_simulation(
            n_workloads=n_workloads, topology_kwargs=topology_kwargs,
            seed=seed,
        )
        table = profile_synthetic(specs)
    common = {
        "table": table,
        "collapse_alpha": collapse_alpha,
        "seed": seed,
        "topology_kwargs": topology_kwargs,
        "n_workloads": n_workloads,
        "completion_quantum": completion_quantum,
    }
    tasks = [
        Task(name=f"fig10:{name}", fn=run_policy_point,
             params=dict(common, policy_name=name))
        for name in ("baseline",) + policies
    ]

    def reduce_to_result(results: Dict[str, Dict[str, float]]) -> Fig10Result:
        baseline = results["fig10:baseline"]
        return Fig10Result(speedups={
            name: {
                job_id: baseline[job_id] / t
                for job_id, t in results[f"fig10:{name}"].items()
            }
            for name in policies
        })

    return SweepSpec(
        name="fig10",
        tasks=tuple(tasks),
        reduce=reduce_to_result,
        config={
            "policies": list(policies), "seed": seed,
            "collapse_alpha": collapse_alpha,
            "n_workloads": n_workloads,
            "topology_kwargs": dict(topology_kwargs or {}),
            "completion_quantum": completion_quantum,
        },
    )


def run_fig11a(
    n_shards: int = 4,
    collapse_alpha: float = SIM_COLLAPSE_ALPHA,
    seed: int = 11,
    topology_kwargs: Optional[dict] = None,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, float]:
    """Centralized vs distributed controller (Figure 11a).

    Returns average speedup over the baseline for both designs.
    """
    _, make_jobs, specs = build_simulation(
        topology_kwargs=topology_kwargs, seed=seed
    )
    table = profile_synthetic(specs)

    def run_point(policy: str, **policy_kwargs):
        spec = sim_scenario_spec(
            policy, collapse_alpha=collapse_alpha,
            topology_kwargs=topology_kwargs,
            completion_quantum=completion_quantum, **policy_kwargs,
        )
        return build_scenario(spec, table=table).run(make_jobs())

    baseline = run_point("baseline")
    central_res = run_point("saba")
    dist_res = run_point("saba-distributed", n_shards=n_shards)

    def avg(results):
        return geomean([
            baseline[j].completion_time / r.completion_time
            for j, r in results.items()
        ])

    return {
        "centralized": avg(central_res),
        "distributed": avg(dist_res),
    }


def run_fig11b(
    queue_counts: Sequence[Optional[int]] = (2, 4, 8, 16, None),
    collapse_alpha: float = SIM_COLLAPSE_ALPHA,
    seed: int = 11,
    topology_kwargs: Optional[dict] = None,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, float]:
    """Average speedup vs number of per-port queues (Figure 11b).

    ``None`` means unlimited queues (one per workload -- the upper
    bound configuration of study 8); it is simulated with one queue
    per priority level.
    """
    results: Dict[str, float] = {}
    for q in queue_counts:
        n_queues = q if q is not None else 20
        _, make_jobs, specs = build_simulation(
            topology_kwargs=topology_kwargs, seed=seed, num_queues=n_queues
        )
        table = profile_synthetic(specs)

        def run_point(policy: str, **policy_kwargs):
            spec = sim_scenario_spec(
                policy, collapse_alpha=collapse_alpha,
                topology_kwargs=topology_kwargs, num_queues=n_queues,
                completion_quantum=completion_quantum, **policy_kwargs,
            )
            return build_scenario(spec, table=table).run(make_jobs())

        baseline = run_point("baseline")
        saba = run_point("saba", num_pls=max(16, n_queues))
        label = "unlimited" if q is None else str(q)
        results[label] = geomean([
            baseline[j].completion_time / r.completion_time
            for j, r in saba.items()
        ])
    return results
