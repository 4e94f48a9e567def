#!/usr/bin/env python
"""Datacenter-scale simulation: Saba vs the state of the art.

A miniature of the paper's Section 8.4 study: a three-tier spine-leaf
fabric runs twenty synthetic workloads spanning the sensitivity range,
once under each policy -- the InfiniBand baseline, ideal max-min
fairness, Homa, Sincronia, and Saba -- and reports per-policy average
speedups (the Figure 10 comparison).

Run:  python examples/datacenter_simulation.py [--full-scale]
(--full-scale uses the paper's 1,944-server topology; expect a long
runtime.)
"""

import argparse

from repro.experiments.fig10_fig11 import PAPER_TOPOLOGY, fig10_sweep_spec
from repro.sweep import default_runner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="use the paper's 54/102/108x18 spine-leaf topology",
    )
    args = parser.parse_args()
    topology_kwargs = PAPER_TOPOLOGY if args.full_scale else None

    result = default_runner().run(
        fig10_sweep_spec(topology_kwargs=topology_kwargs)
    ).value

    print("Average speedup over the InfiniBand baseline (Figure 10):")
    paper = {
        "saba": 1.27, "ideal-maxmin": 1.14, "homa": 1.12, "sincronia": 1.19,
    }
    for policy in ("saba", "sincronia", "ideal-maxmin", "homa"):
        print(
            f"  {policy:13s} measured {result.average(policy):5.2f}   "
            f"(paper {paper[policy]:.2f})"
        )

    saba = result.speedups["saba"]
    best = max(saba, key=lambda w: saba[w])
    worst = min(saba, key=lambda w: saba[w])
    print("\nSaba per-workload extremes:")
    print(f"  best : {best} {saba[best]:.2f}x")
    print(f"  worst: {worst} {saba[worst]:.2f}x "
          f"(paper: worst case -3 %)")


if __name__ == "__main__":
    main()
