"""Shared plumbing for the experiment harnesses.

Scenario construction lives here: a :class:`ScenarioSpec` is one
declarative, picklable description of *how a run is built* -- the
topology builder and its arguments, the policy name and its knobs, and
the fabric configuration (``completion_quantum``, ``incremental``,
``solver_backend``, ``validate``).  :func:`build_scenario` turns a
spec into a ready :class:`Scenario` (topology + :class:`PolicySetup` +
:class:`CoRunExecutor`).  The figure harnesses, the extension
studies, and the storm traffic generator/fuzzer all construct their
runs through this one path, so fuzzing a random spec exercises
exactly the construction code the pinned experiments use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA, InfiniBandBaseline
from repro.baselines.maxmin import IdealMaxMin
from repro.cluster.jobs import Job, JobResult
from repro.cluster.runtime import CoRunExecutor, PolicySetup
from repro.cluster.setups import generate_setups
from repro.core.controller import SabaController
from repro.core.library import SabaLibrary
from repro.core.profiler import OfflineProfiler
from repro.core.table import SensitivityTable
from repro.simnet.topology import Topology, fat_tree, single_switch, spine_leaf
from repro.units import GBPS_56
from repro.workloads.catalog import CATALOG, PROFILER_NODES


#: Default completion-batching quantum for the co-run experiments
#: (simulated seconds).  Stage durations are tens of seconds, so the
#: bounded per-completion error stays below ~1-2 % while a stage's
#: staggered flow completions cost a handful of rate recomputations
#: instead of hundreds.  Every harness threads it through as an
#: explicit ``completion_quantum`` parameter so sweep tasks (and the
#: bench) can vary it and measure the accuracy/speed trade-off.
EXPERIMENT_QUANTUM = 0.1


def geomean(values: Sequence[float]) -> float:
    """Geometric mean ("the average speedup reports the geometric mean
    of the results", Section 8.1)."""
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def build_catalog_table(
    degree: int = 3,
    method: str = "simulate",
    workloads: Optional[Iterable[str]] = None,
    runner: Optional["SweepRunner"] = None,
) -> SensitivityTable:
    """Profile the Table-1 workloads (k=3 by default, as in §8.2).

    Runs as a sweep through the shared result cache
    (:func:`repro.sweep.default_cache`), so the many experiment
    modules that each call this no longer silently re-profile the
    whole catalog: repeated calls in one process reuse the profiling
    points from memory, and setting :data:`repro.sweep.CACHE_DIR_ENV`
    extends the reuse across processes.  The cache keys on each
    point's full configuration plus the package version, so a code
    bump recomputes.  Pass ``runner`` to control jobs/caching
    explicitly.
    """
    from repro.sweep import default_runner

    if runner is None:
        runner = default_runner()
    profiler = OfflineProfiler(degree=degree, method=method)
    names = list(workloads) if workloads is not None else list(CATALOG)
    return profiler.build_table([CATALOG[n] for n in names], runner=runner)


def staggered_corun(
    servers: Sequence[str],
    jobs_per_setup: int,
    mean_gap: float,
    seed: int,
) -> Tuple[List[Job], List[float]]:
    """One randomized cluster setup whose jobs arrive one by one.

    The co-run the dynamism, faults, online and service studies share:
    one :func:`~repro.cluster.setups.generate_setups` draw from
    ``seed`` (instances capped at ``len(servers)``), exponential
    inter-arrival gaps of mean ``mean_gap`` from ``seed + 1``, and a
    placement on ``servers`` from ``seed + 2``.  Each stream has its
    own generator, so the result is a pure function of the arguments;
    call again for fresh :class:`~repro.cluster.jobs.Job` objects (a
    run mutates them).  Returns ``(jobs, start_times)``.
    """
    setup = next(generate_setups(
        n_setups=1, jobs_per_setup=jobs_per_setup, seed=seed,
        max_instances=len(servers),
    ))
    arrival_rng = random.Random(seed + 1)
    start_times: List[float] = []
    t = 0.0
    for _ in setup.jobs:
        start_times.append(t)
        t += arrival_rng.expovariate(1.0 / mean_gap)
    jobs = setup.materialize(servers, random.Random(seed + 2), GBPS_56)
    return jobs, start_times


def standalone_times(
    workloads: Iterable[str],
    n_instances: int = PROFILER_NODES,
    link_capacity: float = GBPS_56,
) -> Dict[str, float]:
    """Unthrottled isolated completion time per workload (testbed
    baseline network, used as the slowdown denominator)."""
    times: Dict[str, float] = {}
    for name in workloads:
        topo = single_switch(max(2, n_instances), capacity=link_capacity)
        spec = CATALOG[name].instantiate(
            n_instances=n_instances, link_capacity=link_capacity
        )
        job = Job("solo", spec, name, topo.servers[:n_instances])
        executor = CoRunExecutor(topo, policy=InfiniBandBaseline())
        times[name] = executor.run([job])["solo"].completion_time
    return times


def make_policy(
    name: str,
    table: Optional[SensitivityTable] = None,
    collapse_alpha: Optional[float] = DEFAULT_COLLAPSE_ALPHA,
    observer=None,
    online_config=None,
    estimator=None,
    warm_start: bool = False,
    link_capacity: float = GBPS_56,
    **controller_kwargs,
) -> PolicySetup:
    """Build the :class:`PolicySetup` for a policy name.

    ``name`` is one of ``"baseline"`` (InfiniBand FECN), ``"ideal"``
    (alias ``"ideal-maxmin"``), ``"homa"``, ``"sincronia"``,
    ``"saba"`` (needs ``table``), ``"saba-distributed"`` (sharded
    controller group over a replicated mapping database; needs a
    non-empty ``table``, accepts ``n_shards``), or
    ``"saba-online"``.  Testbed-style comparisons keep
    ``collapse_alpha`` so Saba runs on the same congestion-control
    substrate as the baseline; pass ``None`` for the idealized
    simulation studies.  ``observer`` attaches an
    :class:`repro.obs.Observer` to the Saba controller so its solve
    and port-programming decisions are traced.

    ``"saba-online"`` builds the telemetry-driven estimation stack
    (:mod:`repro.online`): applications may register with *no*
    profile.  ``table`` is optional there -- with a table the provider
    is hybrid (trusted online fit, else table entry, else prior),
    without it purely online.  ``online_config`` tunes the estimator;
    ``estimator`` passes an existing
    :class:`~repro.online.OnlineSensitivityEstimator` so learned
    models survive across consecutive runs; ``warm_start`` probes the
    sweep result cache for previously profiled grids before falling
    back to the conservative prior.  The harness must still register
    its jobs with ``setup.sampler`` and ``setup.sampler.attach`` the
    run's observer -- the sampler cannot guess job specs from bus
    events.

    The returned setup iterates as ``(policy, connections_factory)``
    for callers still unpacking the pre-:class:`PolicySetup` tuple;
    new code should pass the setup straight to
    :class:`~repro.cluster.runtime.CoRunExecutor` (or read
    ``setup.controller`` to inspect controller state after a run).
    """
    if name == "baseline":
        return PolicySetup(
            policy=InfiniBandBaseline(
                collapse_alpha=(
                    collapse_alpha if collapse_alpha is not None else 0.0
                )
            )
        )
    if name in ("ideal", "ideal-maxmin"):
        return PolicySetup(policy=IdealMaxMin())
    if name == "homa":
        from repro.baselines.homa import HomaPolicy

        return PolicySetup(
            policy=HomaPolicy(collapse_alpha=collapse_alpha)
        )
    if name == "sincronia":
        from repro.baselines.sincronia import SincroniaPolicy

        return PolicySetup(
            policy=SincroniaPolicy(collapse_alpha=collapse_alpha)
        )
    if name == "saba":
        if table is None:
            raise ValueError("saba policy needs a sensitivity table")
        if observer is not None:
            controller_kwargs.setdefault("observer", observer)
        controller = SabaController(
            table, collapse_alpha=collapse_alpha, **controller_kwargs
        )
        return PolicySetup(
            policy=controller,
            connections_factory=SabaLibrary.factory(controller),
            controller=controller,
            pipeline=controller.pipeline,
        )
    if name == "saba-distributed":
        from repro.core.distributed import (
            DistributedControllerGroup,
            MappingDatabase,
        )

        if table is None:
            raise ValueError(
                "saba-distributed policy needs a sensitivity table"
            )
        group = DistributedControllerGroup(
            MappingDatabase(table),
            collapse_alpha=collapse_alpha,
            **controller_kwargs,
        )
        return PolicySetup(
            policy=group,
            connections_factory=SabaLibrary.factory(group),  # type: ignore[arg-type]
            controller=group,
        )
    if name == "saba-online":
        from repro.online import (
            HybridModelProvider,
            OnlineModelProvider,
            OnlineSensitivityEstimator,
            StageSampler,
            conservative_prior,
            warm_start_model,
        )

        if estimator is None:
            estimator = OnlineSensitivityEstimator(
                config=online_config, observer=observer
            )
        elif observer is not None:
            # A reused estimator (wave N of a convergence study) must
            # announce refits on the *current* run's bus, not the bus
            # of the run it was created for.
            estimator.observer = observer
        if warm_start:
            def prior_of(workload: str):
                cached = warm_start_model(workload)
                return (
                    cached if cached is not None
                    else conservative_prior(workload)
                )
        else:
            prior_of = conservative_prior
        if table is not None:
            provider = HybridModelProvider(
                estimator, table, prior_of=prior_of, observer=observer
            )
        else:
            provider = OnlineModelProvider(
                estimator, prior_of=prior_of, observer=observer
            )
        if observer is not None:
            controller_kwargs.setdefault("observer", observer)
        controller = SabaController(
            table if table is not None else SensitivityTable(),
            collapse_alpha=collapse_alpha,
            model_provider=provider,
            **controller_kwargs,
        )
        # Refits move centroids and reprogram ports mid-run.  The
        # subscription outlives the controller harmlessly: once its
        # jobs deregister, on_models_updated is an empty-set no-op.
        estimator.subscribe(controller.on_models_updated)
        return PolicySetup(
            policy=controller,
            connections_factory=SabaLibrary.factory(controller),
            controller=controller,
            pipeline=controller.pipeline,
            provider=provider,
            estimator=estimator,
            sampler=StageSampler(estimator, link_capacity=link_capacity),
        )
    raise ValueError(f"unknown policy {name!r}")


#: Topology builders a :class:`ScenarioSpec` may name.  Each accepts
#: the keyword arguments of the corresponding
#: :mod:`repro.simnet.topology` constructor.
TOPOLOGY_BUILDERS = {
    "single_switch": single_switch,
    "spine_leaf": spine_leaf,
    "fat_tree": fat_tree,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of how one co-run is constructed.

    A spec owns everything :func:`build_scenario` needs to stand up a
    run: the topology builder and its arguments, the policy name plus
    its knobs (``collapse_alpha`` and any controller kwargs), and the
    fabric configuration.  Specs are plain picklable data, so sweep
    tasks and the storm fuzzer carry them across process boundaries,
    and their fields feed straight into a sweep ``config`` for
    content-addressed caching.

    ``policy_kwargs`` passes extra keyword arguments to
    :func:`make_policy` (e.g. ``num_pls`` for the queue-count study).
    ``incremental``/``solver_backend``/``validate`` select the
    fabric's solver path -- the defaults are the bit-reproducible
    object solver, which every pinned golden uses.
    """

    topology: str = "single_switch"
    topology_kwargs: Mapping[str, object] = field(default_factory=dict)
    policy: str = "baseline"
    collapse_alpha: Optional[float] = DEFAULT_COLLAPSE_ALPHA
    policy_kwargs: Mapping[str, object] = field(default_factory=dict)
    completion_quantum: float = EXPERIMENT_QUANTUM
    incremental: bool = True
    solver_backend: str = "object"
    validate: bool = False

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_BUILDERS:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of "
                f"{sorted(TOPOLOGY_BUILDERS)}"
            )

    def build_topology(self) -> Topology:
        """A fresh topology instance (never shared between runs)."""
        return TOPOLOGY_BUILDERS[self.topology](**dict(self.topology_kwargs))

    def config(self) -> Dict[str, object]:
        """JSON/``config_hash``-friendly form for sweep task configs."""
        return {
            "topology": self.topology,
            "topology_kwargs": dict(self.topology_kwargs),
            "policy": self.policy,
            "collapse_alpha": self.collapse_alpha,
            "policy_kwargs": dict(self.policy_kwargs),
            "completion_quantum": self.completion_quantum,
            "incremental": self.incremental,
            "solver_backend": self.solver_backend,
            "validate": self.validate,
        }


@dataclass
class Scenario:
    """A constructed run: topology + policy session + executor.

    Produced by :func:`build_scenario`; ``run`` drives a job set to
    completion on the bundled :class:`CoRunExecutor`.  The setup's
    controller/pipeline handles stay reachable through ``setup`` for
    post-run inspection.
    """

    spec: ScenarioSpec
    topology: Topology
    setup: PolicySetup
    executor: CoRunExecutor

    @property
    def fabric(self):
        return self.executor.fabric

    def run(
        self,
        jobs: Sequence[Job],
        start_times: Optional[Sequence[float]] = None,
        max_time: Optional[float] = None,
    ) -> Dict[str, JobResult]:
        return self.executor.run(
            jobs, start_times=start_times, max_time=max_time
        )


def build_scenario(
    spec: ScenarioSpec,
    table: Optional[SensitivityTable] = None,
    observer=None,
    recorder=None,
    connections_factory=None,
    setup: Optional[PolicySetup] = None,
    faults=None,
    **policy_overrides,
) -> Scenario:
    """Construct the run a :class:`ScenarioSpec` describes.

    ``table`` supplies the sensitivity table for table-driven policies
    (required for ``"saba"``).  ``connections_factory`` overrides the
    policy setup's connection layer -- the service/storm harnesses use
    this to route the same scenario through an
    :class:`~repro.service.AllocationService` front-end.  ``setup``
    passes a pre-built :class:`PolicySetup` instead of calling
    :func:`make_policy` -- for harnesses whose connection factory must
    close over the setup's controller; the spec's ``policy`` name is
    then purely descriptive.  ``policy_overrides`` are forwarded to
    :func:`make_policy` on top of the spec's ``policy_kwargs`` (e.g. a
    run-scoped ``estimator`` that must not be baked into a picklable
    spec).
    """
    topology = spec.build_topology()
    if setup is None:
        kwargs = dict(spec.policy_kwargs)
        kwargs.update(policy_overrides)
        setup = make_policy(
            spec.policy, table=table, collapse_alpha=spec.collapse_alpha,
            observer=observer, **kwargs,
        )
    if connections_factory is not None:
        setup = PolicySetup(
            policy=setup.policy,
            connections_factory=connections_factory,
            controller=setup.controller,
            pipeline=setup.pipeline,
            provider=setup.provider,
            estimator=setup.estimator,
            sampler=setup.sampler,
        )
    executor = CoRunExecutor(
        topology,
        policy=setup,
        recorder=recorder,
        completion_quantum=spec.completion_quantum,
        observer=observer,
        incremental=spec.incremental,
        solver_backend=spec.solver_backend,
        validate=spec.validate,
        faults=faults,
    )
    return Scenario(
        spec=spec, topology=topology, setup=setup, executor=executor,
    )


def run_jobs(
    topology: Topology,
    jobs: Sequence[Job],
    policy,
    connections_factory=None,
    recorder=None,
    observer=None,
    completion_quantum: float = EXPERIMENT_QUANTUM,
) -> Dict[str, JobResult]:
    """Run one co-run to completion.

    ``observer`` threads a shared :class:`repro.obs.Observer` through
    the executor, fabric, and engine; pass the same observer to
    :func:`make_policy` to capture the controller's decisions too.
    ``completion_quantum`` overrides the default completion-batching
    quantum (:data:`EXPERIMENT_QUANTUM`).
    """
    executor = CoRunExecutor(
        topology,
        policy=policy,
        connections_factory=connections_factory,
        recorder=recorder,
        completion_quantum=completion_quantum,
        observer=observer,
    )
    return executor.run(jobs)


@dataclass(frozen=True)
class SpeedupReport:
    """Per-job and aggregate speedups of one policy over another."""

    per_job: Dict[str, float]
    per_workload: Dict[str, List[float]]

    @property
    def average(self) -> float:
        return geomean(list(self.per_job.values()))

    def workload_average(self, workload: str) -> float:
        return geomean(self.per_workload[workload])


def speedup_report(
    baseline: Mapping[str, JobResult], other: Mapping[str, JobResult]
) -> SpeedupReport:
    """Speedup of ``other`` over ``baseline`` per job (>1 = faster)."""
    per_job: Dict[str, float] = {}
    per_workload: Dict[str, List[float]] = {}
    for job_id, base in baseline.items():
        sp = base.completion_time / other[job_id].completion_time
        per_job[job_id] = sp
        per_workload.setdefault(base.workload, []).append(sp)
    return SpeedupReport(per_job=per_job, per_workload=per_workload)
