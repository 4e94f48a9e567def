"""Figure 10: Saba vs ideal max-min vs Homa vs Sincronia at scale.

Paper shape (average speedups over the InfiniBand baseline): Saba
1.27x > Sincronia 1.19x > ideal max-min 1.14x > Homa 1.12x > 1.0.

What reproduces here: every queue-separating policy beats the
congestion-collapsing baseline, and Saba visibly redistributes
completion time across sensitivity classes.  What does not: Saba's
*average* stays near the baseline instead of leading the pack -- in
this fluid substrate per-application WFQ pays structural costs
(per-port weight variance under ECMP, min-over-path stage completion)
that per-flow schemes avoid, and the synthetic-workload simulation
lacks the NIC-level multi-application contention where Saba earns its
testbed headline (which Figure 8 *does* reproduce).  See
EXPERIMENTS.md gap G3.

The benchmark runs a proportionally scaled-down spine-leaf fabric with
the same three-tier shape; SABA_FULL_SCALE=1 uses the paper's
54/102/108x18 topology.
"""

from _config import scale

from repro.experiments.fig10_fig11 import PAPER_TOPOLOGY, fig10_sweep_spec
from repro.sweep import default_runner


def test_fig10_policy_comparison(benchmark):
    topology_kwargs = scale(None, PAPER_TOPOLOGY)

    result = benchmark.pedantic(
        lambda: default_runner().run(
            fig10_sweep_spec(topology_kwargs=topology_kwargs)
        ).value,
        rounds=1,
        iterations=1,
    )

    print("\nFigure 10 -- average speedup over the baseline")
    paper = {
        "saba": 1.27, "ideal-maxmin": 1.14, "homa": 1.12, "sincronia": 1.19,
    }
    for policy in ("saba", "ideal-maxmin", "homa", "sincronia"):
        print(
            f"  {policy:13s} measured {result.average(policy):5.2f}   "
            f"paper {paper[policy]:.2f}"
        )
    print("  (Saba's simulated average diverges from the paper here; "
          "see EXPERIMENTS.md gap G3 -- the testbed benchmark carries "
          "the headline)")

    averages = {p: result.average(p) for p in result.speedups}
    # Queue separation beats the congestion-collapsing baseline.
    for policy in ("ideal-maxmin", "homa", "sincronia"):
        assert averages[policy] > 1.0, f"{policy}: {averages[policy]}"
    # Saba stays in the baseline's neighbourhood...
    assert averages["saba"] > 0.9
    assert abs(averages["saba"] - averages["ideal-maxmin"]) < 0.25
    # ...while clearly redistributing: its per-workload spread exceeds
    # ideal max-min's (which treats all workloads identically), with
    # the most sensitive workloads on the winning side.
    def spread(policy):
        values = list(result.speedups[policy].values())
        return max(values) / min(values)

    assert spread("saba") > spread("ideal-maxmin")
    saba = result.speedups["saba"]
    sensitive = [saba[f"SYN{i:02d}"] for i in (17, 18, 19)]
    insensitive = [saba[f"SYN{i:02d}"] for i in (0, 1, 2)]
    assert max(sensitive) > max(insensitive)
