#!/usr/bin/env python3
"""Run one workload of the Saba simulator benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig10-saba --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then repeats its unit of work until ``--seconds`` of
measurement are spent and prints the end-to-end metrics.  ``--trace 1``
runs one unit untraced and one unit under the span tracer
(``ledger.py``) and prints the per-layer metrics.  Every unit's outputs
are checked; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 2376, "failed": 0, "metrics": {...}}

``attempted`` counts the client calls the units made and ``failed`` the
ones refused.  ``--out FILE`` also appends that object, tagged with the
workload, seed and trace flag, as one line of ``FILE`` -- the input of
``compare.py``.  Metric definitions are in ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: After one uncounted warm-up, a ``--trace 0`` run sets up at least
#: this many times, and until :data:`SETUP_SECONDS` are spent (at most
#: :data:`SETUP_MAX_REPEATS` times); ``setup_s`` is the median, which a
#: cheap set-up needs many samples to make steady.
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 50


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result as a JSON line to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_unit(workload, built):
    """One unit from a clean heap: garbage left by earlier units would
    otherwise make each later unit pay more for cyclic collection."""
    gc.collect()
    return workload.run(built)


def measure(workload, inputs, built, seconds: float, clock) -> list:
    """Repeat units until another one would overrun ``seconds``."""
    units = []
    started = clock()
    while True:
        if built is None:
            built = workload.build(inputs)
        unit = run_unit(workload, built)
        built = None
        unit.release()
        units.append(unit)
        spent = clock() - started
        if spent + spent / len(units) > seconds:
            return units


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import metrics
    from ledger import Tracer
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    clock = time.perf_counter

    # The first set-up also pays one-time costs of the process (lazy
    # imports, first solver calls) and is not counted.
    inputs = workload.prepare(args.seed)
    built = workload.build(inputs)
    setup_times: List[float] = []
    while not args.trace and len(setup_times) < SETUP_MAX_REPEATS and (
        len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_SECONDS
    ):
        built = None
        gc.collect()
        t0 = clock()
        inputs = workload.prepare(args.seed)
        built = workload.build(inputs)
        setup_times.append(clock() - t0)

    if args.trace:
        # Untraced units bracket the traced one, so a first-unit warm-up
        # or a drift of the machine's speed does not read as overhead.
        units = [run_unit(workload, built)]
        units[0].release()
        del built
        tracer = Tracer()
        with tracer.installed():
            traced = run_unit(workload, workload.build(inputs))
        values = metrics.per_layer(tracer, traced)
        traced.release()
        units += [traced, run_unit(workload, workload.build(inputs))]
        units[-1].release()
        untraced_wall = (units[0].wall + units[-1].wall) / 2
        values["trace_overhead_frac"] = traced.wall / untraced_wall - 1.0
    else:
        units = measure(workload, inputs, built, args.seconds, clock)
        values = metrics.end_to_end(setup_times, units)

    correct = True
    try:
        workload.check(inputs, units)
    except CheckFailed as exc:
        correct = False
        print(f"perfbench: check failed: {exc}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": sum(len(u.call_seconds) for u in units),
        "failed": sum(u.rejected for u in units),
        "metrics": {
            name: {"value": value, "unit": metrics.METRIC_UNITS[name]}
            for name, value in values.items()
        },
    }
    print(f"perfbench: {args.workload} seed={args.seed} units={len(units)} "
          f"{json.dumps(workload.describe(inputs, units[-1]), sort_keys=True)}",
          file=sys.stderr)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        record.update(result)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
