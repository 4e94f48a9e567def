#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks its runs against.

Usage, from the repository root::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``:

* ``fig10-saba`` -- the Figure 10 co-run's baseline job completion
  times and the Saba ``app_speedup`` over them;
* ``incast-waves`` -- for each input variant, the simulated horizon and
  per-wave completion summary, recorded on the pure-Python object
  solver so the vector kernels the timed runs use are checked against
  an independent solve path.

Takes a few minutes; rerun only when the simulator's results are meant
to change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def fig10_reference() -> dict:
    fig10 = workloads.Fig10Saba()
    inputs = fig10.prepare(0)
    unit = fig10.run(fig10.build(inputs))
    return {
        "jobs": len(unit.outputs["completion"]),
        "app_speedup": fig10.app_speedup(inputs, unit),
        "baseline": dict(sorted(inputs.baseline.items())),
    }


def incast_reference() -> dict:
    incast = workloads.IncastWaves(solver_backend="object")
    out = {}
    for variant in range(workloads.INCAST_VARIANTS):
        inputs = incast.prepare(variant)
        unit = incast.run(incast.build(inputs))
        out[str(variant)] = unit.outputs
        print(f"incast variant {variant}: horizon {unit.outputs['horizon']!r}", file=sys.stderr)
    return out


def main() -> int:
    reference = {"fig10-saba": fig10_reference(), "incast-waves": incast_reference()}
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
