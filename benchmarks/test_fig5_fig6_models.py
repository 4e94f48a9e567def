"""Figures 5 and 6: sensitivity-model fits and their accuracy.

Paper shape: (5) SQL is non-linear and needs k=3 for a good fit while
LR is near-linear; (6a) R^2 rises with the polynomial degree; (6b)
dataset-size mismatch costs accuracy but R^2 stays useful; (6c) node
counts up to 3x stay accurate, 4x degrades most models.
"""

from repro.experiments.fig5_fig6 import (
    fig5_sweep_spec,
    fig6a_sweep_spec,
    run_fig6b,
    run_fig6c,
)
from repro.sweep import default_runner


def test_fig5_model_fits(benchmark):
    panels = benchmark(lambda: default_runner().run(fig5_sweep_spec()).value)

    print("\nFigure 5 -- R^2 of SQL and LR fits by degree")
    for name, panel in panels.items():
        cells = "  ".join(f"k={k}: {panel.r2[k]:.3f}" for k in sorted(panel.r2))
        print(f"{name:4s} {cells}")

    sql, lr = panels["SQL"], panels["LR"]
    # Higher degrees fit SQL's kinked curve better; LR is well-captured
    # even at k=1 (the paper's contrast, though our inverse-basis fits
    # compress the gap -- see EXPERIMENTS.md).
    assert sql.r2[3] >= sql.r2[2] >= sql.r2[1]
    assert sql.r2[3] > 0.99
    assert lr.r2[1] > 0.95
    # LR degrades smoothly and further than SQL at moderate throttling.
    assert lr.models[3].predict(0.5) > sql.models[3].predict(0.5)


def test_fig6a_accuracy_vs_degree(benchmark):
    scores = benchmark(lambda: default_runner().run(fig6a_sweep_spec()).value)

    print("\nFigure 6a -- R^2 vs polynomial degree")
    for name, by_degree in scores.items():
        print(f"{name:5s} " + "  ".join(
            f"k={k}:{by_degree[k]:.2f}" for k in sorted(by_degree)))

    for name, by_degree in scores.items():
        assert by_degree[1] <= by_degree[2] + 1e-9
        assert by_degree[2] <= by_degree[3] + 1e-9
        assert by_degree[1] > 0.6  # paper: all workloads above 0.60 at k=1
        assert by_degree[3] > 0.9


def test_fig6b_accuracy_vs_dataset_size(benchmark):
    scores = benchmark(run_fig6b)

    print("\nFigure 6b -- predictive R^2 vs runtime dataset size")
    for name, by_scale in scores.items():
        print(f"{name:5s} " + "  ".join(
            f"{s}x:{by_scale[s]:.2f}" for s in sorted(by_scale)))

    for name, by_scale in scores.items():
        # Matching configuration is (near-)perfect.
        assert by_scale[1.0] > 0.9
    n = len(scores)
    avg_small = sum(s[0.1] for s in scores.values()) / n
    avg_big = sum(s[10.0] for s in scores.values()) / n
    # Mismatched dataset sizes cost accuracy but the models keep
    # predictive power on average (paper: all above 0.55; ours keeps
    # the average there with a few harder outliers).
    assert avg_small > 0.6
    assert avg_big > 0.5
    mismatch_drop = {
        name: by_scale[1.0] - min(by_scale[0.1], by_scale[10.0])
        for name, by_scale in scores.items()
    }
    # Some workloads are affected far more than others (paper: NI worst,
    # SVM most robust).
    assert max(mismatch_drop.values()) > min(mismatch_drop.values()) + 0.02


def test_fig6c_accuracy_vs_node_count(benchmark):
    scores = benchmark(run_fig6c)

    print("\nFigure 6c -- predictive R^2 vs runtime node count")
    for name, by_mult in scores.items():
        print(f"{name:5s} " + "  ".join(
            f"{m}x:{by_mult[m]:.2f}" for m in sorted(by_mult)))

    n = len(scores)
    for name, by_mult in scores.items():
        assert by_mult[1.0] > 0.9
    # Up to 3x the models keep predictive power on average (paper: all
    # >= 0.50 at 3x); 4x hurts more than 2x -- "the number of nodes is
    # a crucial factor governing the accuracy".
    avg2 = sum(s[2.0] for s in scores.values()) / n
    avg3 = sum(s[3.0] for s in scores.values()) / n
    avg4 = sum(s[4.0] for s in scores.values()) / n
    assert avg3 > 0.6
    assert avg4 < avg2
    # LR and RF stay accurate even at 4x (paper names them among the
    # exceptions).
    assert scores["LR"][4.0] > 0.9
    assert scores["RF"][4.0] > 0.9
