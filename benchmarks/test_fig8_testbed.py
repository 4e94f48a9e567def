"""Figure 8: main testbed results.

Paper shape: Saba improves average completion time across workloads
(paper: 1.88x at 500 setups); the largest gains go to the most
bandwidth-sensitive workloads (paper: RF 3.9x, LR 3.6x) while
insensitive workloads stay within a few percent of baseline (paper:
Sort -5 %, PR -1 %); nearly all setups come out ahead (paper: 498 of
500).

Default scale: 4 setups (set SABA_FULL_SCALE=1 for the paper's 500).
"""

from _config import scale

from repro.experiments.common import geomean
from repro.experiments.fig8 import fig8_sweep_spec
from repro.sweep import default_runner

SENSITIVE = ("LR", "RF", "GBT", "SVM")
INSENSITIVE = ("PR", "Sort", "WC", "SQL")


def test_fig8_testbed_speedups(benchmark, catalog_table):
    n_setups = scale(4, 500)

    result = benchmark.pedantic(
        lambda: default_runner().run(
            fig8_sweep_spec(n_setups=n_setups, table=catalog_table)
        ).value,
        rounds=1,
        iterations=1,
    )

    print("\nFigure 8a -- average speedup over the baseline per workload")
    for name, speedup in sorted(
        result.per_workload_speedup.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:5s} {speedup:5.2f}")
    print(f"  average (paper: 1.88x): {result.average_speedup:.2f}")

    print("Figure 8b -- CDF of setup-average speedups")
    for v, p in result.cdf():
        print(f"  {v:5.2f} -> {p:4.2f}")

    # Aggregate win.
    assert result.average_speedup > 1.05
    # Sensitive workloads benefit the most.
    sens = [
        result.per_workload_speedup[n]
        for n in SENSITIVE
        if n in result.per_workload_speedup
    ]
    insens = [
        result.per_workload_speedup[n]
        for n in INSENSITIVE
        if n in result.per_workload_speedup
    ]
    assert sens and insens
    assert geomean(sens) > geomean(insens) + 0.1
    # Insensitive workloads lose at most a few percent (paper: 1-5 %).
    assert min(insens) > 0.88
    # Nearly all setups come out ahead.
    ahead = sum(1 for v in result.setup_averages if v > 1.0)
    assert ahead >= 0.8 * len(result.setup_averages)
