"""Ablations of the design choices DESIGN.md calls out.

Not part of the paper's evaluation; these quantify the impact of this
implementation's own knobs:

* Eq. 2 solver: SLSQP (the paper's choice) vs KKT water-filling, the
  two methods ``optimize_weights`` dispatches to -- solution quality
  and speed.
* Congestion-collapse severity (the InfiniBand baseline's alpha).
* Shuffle fan-out of the workload model.
"""

import time

import pytest

from repro.core.allocation import AllocationProblem, _solve_kkt, _solve_slsqp
from repro.core.profiler import OfflineProfiler
from repro.experiments.fig8 import fig8_sweep_spec
from repro.sweep import default_runner
from repro.workloads.catalog import CATALOG


@pytest.fixture(scope="module")
def models(catalog_table):
    return [catalog_table.get(n) for n in CATALOG]


def test_ablation_solver_quality(benchmark, models):
    """Both solvers land within a whisker of the same objective."""
    problem = AllocationProblem(models=tuple(models[:6]))

    def solve_all():
        return {
            "slsqp": _solve_slsqp(problem, {}),
            "kkt": _solve_kkt(problem, {}),
        }

    results = benchmark(solve_all)
    objectives = {s: problem.objective(w) for s, w in results.items()}
    print("\nAblation: Eq. 2 solver objective values")
    for solver, val in objectives.items():
        print(f"  {solver:9s} {val:.4f}")
    best = min(objectives.values())
    for solver, val in objectives.items():
        assert val <= best * 1.03 + 0.03, solver


def test_ablation_solver_speed_at_scale(benchmark):
    """KKT on a 256-app port of Figure 12's synthetic models, against
    SLSQP's objective.  Most of its apps clamp to the floor or the cap,
    so the per-app bisections stay cheap at this size (~15 ms per solve
    on a 2-vCPU VM, as for SLSQP)."""
    from repro.experiments.fig12 import synthetic_model_table

    table = synthetic_model_table(64, degree=3)
    pool = [table.get(n) for n in table.names()]
    models = [pool[i % len(pool)] for i in range(256)]
    problem = AllocationProblem(models=tuple(models), min_weight=0.001)

    def kkt():
        return _solve_kkt(problem, {})

    weights = benchmark(kkt)
    assert sum(weights) == pytest.approx(1.0, abs=1e-5)

    t0 = time.perf_counter()
    slsqp = _solve_slsqp(problem, {})
    slsqp_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    _solve_kkt(problem, {})
    kkt_time = time.perf_counter() - t0
    print(f"\nAblation: 256-app Eq. 2 -- kkt {kkt_time * 1e3:.1f} ms, "
          f"slsqp {slsqp_time * 1e3:.1f} ms")
    assert problem.objective(weights) <= problem.objective(slsqp) * 1.05


def test_ablation_collapse_alpha(benchmark, catalog_table):
    """Saba's testbed advantage grows with congestion-control severity
    (alpha = 0 isolates the pure-reallocation effect)."""

    def sweep():
        return {
            alpha: default_runner().run(fig8_sweep_spec(
                n_setups=2, jobs_per_setup=12, table=catalog_table,
                collapse_alpha=alpha,
            )).value.average_speedup
            for alpha in (0.0, 0.04, 0.08)
        }

    averages = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation: average Fig-8 speedup vs collapse alpha")
    for alpha, avg in averages.items():
        print(f"  alpha={alpha:.2f}: {avg:.2f}")
    assert averages[0.08] > averages[0.0]


def test_ablation_fanout(benchmark):
    """The standalone slowdown curves are fan-out invariant -- the
    calibration does not hinge on the peer-sampling substitution."""
    profiler = OfflineProfiler(method="analytic", fractions=(0.25,),
                               degree=1)

    def measure():
        rows = {}
        for fanout in (1, 3, 6):
            spec = CATALOG["LR"].instantiate()
            spec = type(spec)(
                name=spec.name, stages=spec.stages,
                n_instances=spec.n_instances, fanout=fanout,
            )
            samples, _ = profiler.measure_samples(spec)
            rows[fanout] = dict(samples)[0.25]
        return rows

    rows = benchmark(measure)
    print("\nAblation: LR slowdown at 25% BW vs shuffle fan-out")
    for fanout, d in rows.items():
        print(f"  fanout={fanout}: {d:.2f}")
    base = rows[3]
    for fanout, d in rows.items():
        assert d == pytest.approx(base, rel=0.05)
