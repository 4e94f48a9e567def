#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds one JSON line per run, as ``run.py --out`` appends them.
For every (workload, metric) both sides have, prints each side's median
and quartiles with the run count, the change of the median, and a
verdict against the metric's bound in ``BENCHMARK.json``:

``worse``
    AFTER's median is worse than BEFORE's by more than the bound.
``better``
    AFTER's median is better by more than the spread of BEFORE's own
    runs (interquartile distance), and AFTER wins at least nine tenths
    of all (BEFORE run, AFTER run) pairs.
``unresolved``
    A side's runs spread wider (interquartile distance over median)
    than the bound, so a change of the bound's size cannot be told from
    noise.  Every AFTER run reading better than every BEFORE run still
    counts as ``better``, and every one reading worse, with the median
    beyond the bound, as ``worse``.
``unchanged``
    None of the above.

Per-layer metrics have no bound; they are listed with ``-`` for the
verdict.  Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: Share of pairs AFTER must win for a ``better`` verdict.
WIN_SHARE = 0.9

Samples = Dict[Tuple[str, str], List[float]]


def load_results(path: str) -> Samples:
    """(workload, metric) -> values over the file's runs."""
    out: Samples = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                out[(record["workload"], name)].append(float(metric["value"]))
    return out


def load_spec(path: str = BENCHMARK_JSON) -> Dict[str, dict]:
    """Metric name -> its ``BENCHMARK.json`` entry (end-to-end and per-layer)."""
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def improvement(before: float, after: float, better: str) -> float:
    """Signed relative change of ``after`` over ``before``; positive is better."""
    change = (after - before) / abs(before) if before else 0.0
    return change if better == "higher" else -change


def verdict(
    before: Sequence[float], after: Sequence[float], better: str, bound: Optional[float]
) -> str:
    if bound is None:
        return "-"
    change = improvement(statistics.median(before), statistics.median(after), better)
    pairs = len(before) * len(after)
    wins = sum(improvement(b, a, better) > 0 for b in before for a in after)
    losses = sum(improvement(b, a, better) < 0 for b in before for a in after)
    noisy = max(quantiles.relative_spread(before), quantiles.relative_spread(after)) > bound
    if change < -bound and (not noisy or losses == pairs):
        return "worse"
    if wins == pairs or (
        not noisy
        and change > quantiles.relative_spread(before)
        and wins >= WIN_SHARE * pairs
    ):
        return "better"
    return "unresolved" if noisy else "unchanged"


def compare(before: Samples, after: Samples, spec: Dict[str, dict]) -> List[dict]:
    rows = []
    for key in sorted(set(before) & set(after)):
        workload, name = key
        entry = spec.get(name, {})
        better = entry.get("better", "lower")
        a, b = before[key], after[key]
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": entry.get("unit", ""),
            "before": quantiles.quartiles(a) + (len(a),),
            "after": quantiles.quartiles(b) + (len(b),),
            "change": improvement(statistics.median(a), statistics.median(b), better),
            "verdict": verdict(a, b, better, entry.get("bound")),
        })
    return rows


def _side(q: Tuple[float, float, float, int]) -> str:
    q1, med, q3, n = q
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={n}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    rows = compare(load_results(args.before), load_results(args.after), load_spec())
    for row in rows:
        print(
            f"{row['workload']:14s} {row['metric']:36s} {row['unit']:8s} "
            f"before {_side(row['before'])}  after {_side(row['after'])}  "
            f"{row['change']:+.2%} better  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
