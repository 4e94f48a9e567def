"""Extension study: online sensitivity estimation (not a paper figure).

Saba's allocation quality rests on an *offline* profiling run per
workload (Section 4) -- a dedicated pod, one run per bandwidth
fraction, before the application may even register.  This extension
measures how close the :mod:`repro.online` stack gets *without* any of
that: applications register cold, the controller allocates them on a
conservative prior, a :class:`~repro.online.StageSampler` harvests
(achieved fraction, observed slowdown) pairs from the live run, and
the :class:`~repro.online.OnlineSensitivityEstimator` re-fits Eq. 1
models that replace the prior as soon as they earn trust.

Three modes share one staggered-arrival co-run (identical jobs,
placements, and arrival times):

* ``baseline`` -- InfiniBand FECN, the speedup denominator;
* ``offline``  -- classic Saba with the full profiled table: the
  quality ceiling the online stack is judged against;
* ``online``   -- Saba with *no* table, run for ``waves`` consecutive
  co-runs sharing one estimator.  Wave 1 starts from the prior; later
  waves register the same applications against whatever the estimator
  learned, so the wave-over-wave speedup trend *is* the convergence
  curve.

The headline number is the convergence gap: the relative difference
between the final online wave's geometric-mean speedup and the offline
speedup.  ``tests/online/test_experiment.py`` asserts it stays within
5 %, and CI diffs the smoke configuration's canonical JSON against
``GOLDEN_online.json``.

Everything derives deterministically from ``seed``; the online mode
deliberately does *not* warm-start from the sweep cache (cache state
varies between environments and would break golden byte-identity).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.infiniband import DEFAULT_COLLAPSE_ALPHA
from repro.core.table import SensitivityTable
from repro.experiments.common import (
    EXPERIMENT_QUANTUM,
    ScenarioSpec,
    build_catalog_table,
    build_scenario,
    geomean,
    staggered_corun,
)
from repro.obs.events import (
    ONLINE_DRIFT,
    ONLINE_FALLBACK,
    ONLINE_REFIT,
    ONLINE_SAMPLE,
    Observer,
)
from repro.online import EstimatorConfig, OnlineSensitivityEstimator
from repro.simnet.topology import single_switch
from repro.sweep import SweepSpec, Task

#: Consecutive co-runs the online mode learns across.
DEFAULT_WAVES = 3

#: The fixed CI configuration (``online --smoke``): the default grid
#: with the wave count pinned, whatever ``--waves`` says.  Part of the
#: compatibility surface: CI diffs its output against
#: ``GOLDEN_online.json``.
SMOKE_GRID: Dict[str, Any] = dict(waves=DEFAULT_WAVES)

#: Estimator tuning for the study.  In-situ samples pool heterogeneous
#: stages of a workload, so the fit-quality gate sits below the
#: offline profiler's pristine-grid expectation (Figure 6a reaches
#: R^2 >= 0.96 there).
STUDY_ESTIMATOR = dict(
    window=96, min_samples=6, min_spread=0.08, min_r_squared=0.55,
    refit_interval=2,
)

#: Observer-bus event types the result reports per wave.
_EVENTS = (ONLINE_SAMPLE, ONLINE_REFIT, ONLINE_DRIFT, ONLINE_FALLBACK)


def run_online_point(
    mode: str,
    table: Optional[SensitivityTable] = None,
    seed: int = 7,
    waves: int = DEFAULT_WAVES,
    jobs_per_setup: int = 6,
    n_servers: int = 16,
    mean_gap: float = 3.0,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    completion_quantum: float = EXPERIMENT_QUANTUM,
    estimator_overrides: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """One mode of the study; module-level and picklable for the sweep.

    ``mode`` is ``"baseline"``, ``"offline"`` (needs ``table``), or
    ``"online"``.  Baseline and offline are single deterministic
    co-runs; online runs ``waves`` consecutive co-runs sharing one
    estimator and reports per-wave times plus estimator telemetry.
    """
    servers = single_switch(n_servers).servers

    def corun():
        # Fresh Job objects for every co-run: a run mutates them.
        return staggered_corun(servers, jobs_per_setup, mean_gap, seed)

    def point_spec(policy: str) -> ScenarioSpec:
        return ScenarioSpec(
            topology="single_switch",
            topology_kwargs={"n_servers": n_servers},
            policy=policy,
            collapse_alpha=collapse_alpha,
            completion_quantum=completion_quantum,
        )

    if mode == "baseline":
        jobs, starts = corun()
        results = build_scenario(point_spec("baseline")).run(
            jobs, start_times=starts
        )
        return {
            "times": {j: r.completion_time for j, r in results.items()},
        }
    if mode == "offline":
        if table is None:
            raise ValueError("offline mode needs a sensitivity table")
        jobs, starts = corun()
        results = build_scenario(point_spec("saba"), table=table).run(
            jobs, start_times=starts
        )
        return {
            "times": {j: r.completion_time for j, r in results.items()},
        }
    if mode != "online":
        raise ValueError(f"unknown mode {mode!r}")

    config = EstimatorConfig(
        **dict(STUDY_ESTIMATOR, **(estimator_overrides or {}))
    )
    estimator = OnlineSensitivityEstimator(config=config)
    wave_records: List[Dict[str, object]] = []
    for _ in range(waves):
        observer = Observer()
        scenario = build_scenario(
            point_spec("saba-online"), table=None, observer=observer,
            estimator=estimator,
        )
        setup = scenario.setup
        jobs, starts = corun()
        for job in jobs:
            setup.sampler.register_job(job)
        detach = setup.sampler.attach(observer)
        results = scenario.run(jobs, start_times=starts)
        detach()
        wave_records.append({
            "times": {j: r.completion_time for j, r in results.items()},
            "fallback_ratio": setup.provider.fallback_ratio,
            "stage_samples": setup.sampler.samples,
            "events": {
                e: observer.bus.counts.get(e, 0) for e in _EVENTS
            },
        })
    return {
        "waves": wave_records,
        "estimator": estimator.stats(),
    }


@dataclass(frozen=True)
class WavePoint:
    """One online wave's aggregate outcome."""

    #: Geometric-mean speedup over the InfiniBand baseline.
    speedup: float
    #: Fraction of model lookups served by a fallback (prior) model.
    fallback_ratio: float
    #: (fraction, slowdown) samples the stage sampler harvested.
    stage_samples: int
    #: ``online.*`` event counts on the wave's bus.
    events: Dict[str, int]


@dataclass(frozen=True)
class OnlineResult:
    """Convergence of cold online estimation toward offline quality."""

    #: Offline (fully profiled) Saba's speedup: the quality ceiling.
    speedup_offline: float
    #: Per-wave online speedups, in wave order.
    wave_points: Tuple[WavePoint, ...]
    #: Per-workload estimator counters after the final wave.
    estimator: Dict[str, Dict[str, object]]
    seed: int
    waves: int

    @property
    def speedup_online(self) -> float:
        """The final wave's speedup (the converged operating point)."""
        return self.wave_points[-1].speedup

    @property
    def convergence_gap(self) -> float:
        """Relative distance of the final online wave from offline
        allocation quality (the acceptance criterion bounds this)."""
        return abs(self.speedup_online - self.speedup_offline) / (
            self.speedup_offline
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, floats rounded to 4 decimals)
        -- the representation the CI golden file diffs against."""

        def _round(x):
            return None if x is None else round(float(x), 4)

        payload = {
            "seed": self.seed,
            "waves": self.waves,
            "speedup_offline": _round(self.speedup_offline),
            "speedup_online": _round(self.speedup_online),
            "convergence_gap": _round(self.convergence_gap),
            "wave_points": [
                {
                    "speedup": _round(p.speedup),
                    "fallback_ratio": _round(p.fallback_ratio),
                    "stage_samples": p.stage_samples,
                    "events": {k: v for k, v in sorted(p.events.items())},
                }
                for p in self.wave_points
            ],
            "estimator": {
                workload: {
                    key: (_round(value) if key == "r_squared" else value)
                    for key, value in sorted(stats.items())
                }
                for workload, stats in sorted(self.estimator.items())
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def online_sweep_spec(
    seed: int = 7,
    waves: int = DEFAULT_WAVES,
    jobs_per_setup: int = 6,
    n_servers: int = 16,
    mean_gap: float = 3.0,
    collapse_alpha: float = DEFAULT_COLLAPSE_ALPHA,
    completion_quantum: float = EXPERIMENT_QUANTUM,
    table: Optional[SensitivityTable] = None,
    estimator_overrides: Optional[Dict[str, float]] = None,
) -> SweepSpec:
    """The study as a sweep: one task per mode, reduced to the
    convergence result."""
    if table is None:
        table = build_catalog_table(method="analytic")
    common = {
        "seed": seed,
        "jobs_per_setup": jobs_per_setup,
        "n_servers": n_servers,
        "mean_gap": mean_gap,
        "collapse_alpha": collapse_alpha,
        "completion_quantum": completion_quantum,
    }
    tasks = (
        Task(name="online:baseline", fn=run_online_point,
             params=dict(common, mode="baseline")),
        Task(name="online:offline", fn=run_online_point,
             params=dict(common, mode="offline", table=table)),
        Task(name="online:online", fn=run_online_point,
             params=dict(common, mode="online", waves=waves,
                         estimator_overrides=estimator_overrides)),
    )

    def reduce_to_result(results: Dict[str, Dict]) -> OnlineResult:
        baseline = results["online:baseline"]["times"]
        offline = results["online:offline"]["times"]
        online = results["online:online"]
        speedup_offline = geomean([
            baseline[j] / t for j, t in offline.items()
        ])
        wave_points = tuple(
            WavePoint(
                speedup=geomean([
                    baseline[j] / t for j, t in wave["times"].items()
                ]),
                fallback_ratio=wave["fallback_ratio"],
                stage_samples=wave["stage_samples"],
                events=dict(wave["events"]),
            )
            for wave in online["waves"]
        )
        return OnlineResult(
            speedup_offline=speedup_offline,
            wave_points=wave_points,
            estimator={
                w: dict(stats) for w, stats in online["estimator"].items()
            },
            seed=seed,
            waves=waves,
        )

    return SweepSpec(
        name="online",
        tasks=tasks,
        reduce=reduce_to_result,
        config=dict(
            common, waves=waves,
            estimator_overrides=dict(estimator_overrides or {}),
        ),
    )
