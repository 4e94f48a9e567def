"""Figures 5 and 6: sensitivity-model accuracy (Section 4.2).

* :func:`fig5_sweep_spec` -- profiling samples plus fitted models of
  degree 1..3 for SQL and LR (the paper's contrast between a
  non-linear and a near-linear workload).
* :func:`fig6a_sweep_spec` -- R^2 of each workload's model vs
  polynomial degree (goodness of fit).
* :func:`run_fig6b` -- *predictive* R^2 when the runtime dataset size
  differs from the profiled one (0.1x / 1x / 10x).
* :func:`run_fig6c` -- predictive R^2 across runtime node counts
  (0.5x .. 4x of the 8-node profiling pod).

The two sweep specs run through a :class:`~repro.sweep.SweepRunner`
(``runner.run(spec).value``) and back the ``fig5``/``fig6a`` entries
of :mod:`repro.sweep.registry`.  Predictive R^2 follows the paper's
method: the model is fitted at the reference configuration (1x
dataset, 8 nodes, k as given) and scored against slowdown samples
*measured* at the runtime configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.profiler import OfflineProfiler
from repro.core.sensitivity import SensitivityModel, fit_sensitivity_model, r_squared
from repro.sweep import SweepSpec
from repro.workloads.catalog import CATALOG, PROFILER_NODES

DATASET_SCALES = (0.1, 1.0, 10.0)
NODE_MULTIPLIERS = (0.5, 1.0, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class Fig5Panel:
    workload: str
    samples: Tuple[Tuple[float, float], ...]
    models: Dict[int, SensitivityModel]
    r2: Dict[int, float]


def _profile_grid_tasks(
    profiler: OfflineProfiler, workloads: Sequence[str]
) -> List:
    """One measurement task per (workload, fraction) at the reference
    shape.  Task names (and therefore cache keys) are shared with the
    catalog-profiling sweep, so a warm profile cache serves Figure 5/6
    for free."""
    return [
        profiler.point_task(CATALOG[name].instantiate(), fraction)
        for name in workloads
        for fraction in profiler.fractions
    ]


def _samples_of(
    results: Dict[str, float],
    name: str,
    fractions: Sequence[float],
) -> List[Tuple[float, float]]:
    times = [(f, results[f"profile:{name}:b={f:g}"]) for f in fractions]
    baseline = dict(times)[1.0]
    return [(f, t / baseline) for f, t in times]


def fig5_sweep_spec(
    workloads: Sequence[str] = ("SQL", "LR"),
    degrees: Sequence[int] = (1, 2, 3),
    method: str = "analytic",
) -> SweepSpec:
    """Figure 5's measurement grid as a sweep."""
    profiler = OfflineProfiler(method=method)
    workloads = tuple(workloads)
    degrees = tuple(degrees)

    def reduce_to_panels(results: Dict[str, float]) -> Dict[str, Fig5Panel]:
        panels: Dict[str, Fig5Panel] = {}
        for name in workloads:
            samples = _samples_of(results, name, profiler.fractions)
            models = {
                k: fit_sensitivity_model(name, samples, degree=k)
                for k in degrees
            }
            panels[name] = Fig5Panel(
                workload=name,
                samples=tuple(samples),
                models=models,
                r2={k: r_squared(m, samples) for k, m in models.items()},
            )
        return panels

    return SweepSpec(
        name="fig5",
        tasks=tuple(_profile_grid_tasks(profiler, workloads)),
        reduce=reduce_to_panels,
        config={"workloads": list(workloads), "degrees": list(degrees),
                "method": method},
    )


def fig6a_sweep_spec(
    degrees: Sequence[int] = (1, 2, 3),
    method: str = "analytic",
) -> SweepSpec:
    """Figure 6a's measurement grid as a sweep."""
    profiler = OfflineProfiler(method=method)
    degrees = tuple(degrees)
    names = tuple(CATALOG)

    def reduce_to_scores(
        results: Dict[str, float]
    ) -> Dict[str, Dict[int, float]]:
        scores: Dict[str, Dict[int, float]] = {}
        for name in names:
            samples = _samples_of(results, name, profiler.fractions)
            scores[name] = {
                k: r_squared(
                    fit_sensitivity_model(name, samples, degree=k), samples
                )
                for k in degrees
            }
        return scores

    return SweepSpec(
        name="fig6a",
        tasks=tuple(_profile_grid_tasks(profiler, names)),
        reduce=reduce_to_scores,
        config={"degrees": list(degrees), "method": method},
    )


def _predictive_r2(
    template,
    model: SensitivityModel,
    profiler: OfflineProfiler,
    dataset_scale: float = 1.0,
    n_instances: int = PROFILER_NODES,
) -> float:
    spec = template.instantiate(
        dataset_scale=dataset_scale, n_instances=n_instances
    )
    samples, _ = profiler.measure_samples(spec)
    return r_squared(model, samples)


def run_fig6b(
    scales: Sequence[float] = DATASET_SCALES,
    degree: int = 3,
    method: str = "analytic",
) -> Dict[str, Dict[float, float]]:
    """Predictive R^2 across runtime dataset sizes (Figure 6b)."""
    profiler = OfflineProfiler(method=method, degree=degree)
    scores: Dict[str, Dict[float, float]] = {}
    for name, template in CATALOG.items():
        model = profiler.profile(template).model
        scores[name] = {
            s: _predictive_r2(template, model, profiler, dataset_scale=s)
            for s in scales
        }
    return scores


def run_fig6c(
    multipliers: Sequence[float] = NODE_MULTIPLIERS,
    degree: int = 3,
    method: str = "analytic",
) -> Dict[str, Dict[float, float]]:
    """Predictive R^2 across runtime node counts (Figure 6c)."""
    profiler = OfflineProfiler(method=method, degree=degree)
    scores: Dict[str, Dict[float, float]] = {}
    for name, template in CATALOG.items():
        model = profiler.profile(template).model
        scores[name] = {}
        for m in multipliers:
            n = max(2, round(m * PROFILER_NODES))
            scores[name][m] = _predictive_r2(
                template, model, profiler, n_instances=n
            )
    return scores
