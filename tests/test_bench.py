"""The fabric and control benches, run through the CLI with CI's flags.

The argv lists are the ``fabric-bench`` and ``control-bench`` commands
of ``.github/workflows/ci.yml``.  Their integer counters are pure
functions of the scenario, so they are pinned exactly.  Each run gets
one unmeetable floor instead of CI's wall-clock one: the floors are
checked after the agreement and completion checks, so exiting on that
floor shows those checks passed, and the ``--out`` artifact is written
before any check can exit.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main

FABRIC_CI = [
    "fabric", "bench", "--tor", "4", "--servers-per-tor", "6",
    "--apps", "8", "--fanout", "4", "--waves", "3", "--min-speedup", "1.0",
]
HYPERSCALE_CI = [
    "fabric", "bench", "--scenario", "hyperscale", "--tor", "40",
    "--waves", "3", "--min-flows-per-sec", "12000",
]
CONTROL_CI = [
    "control", "bench", "--spine", "4", "--leaf", "4", "--tor", "4",
    "--servers-per-tor", "6", "--apps", "8", "--conns-per-app", "3",
    "--rounds", "10", "--min-skips", "1", "--min-speedup", "1.0",
]
HEADER_KEYS = {
    "bench", "created_unix", "code_version", "cpu_count",
    "python_version", "numpy_version",
}


def _run_below_floor(tmp_path, argv, floor, match):
    """Run ``argv`` with an unmeetable ``floor``; returns the artifact."""
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match=match):
        main(argv + floor + ["--out", str(out)])
    payload = json.loads(out.read_text())
    assert HEADER_KEYS <= payload.keys()
    return payload


def test_fabric_corun_ci_grid(tmp_path):
    payload = _run_below_floor(
        tmp_path, FABRIC_CI, ["--min-speedup", "1e9"],
        "incremental speedup .* below the required",
    )
    runs = [payload[key] for key in ("full", "incremental")]
    assert [run["flows_completed"] for run in runs] == [96, 96]
    assert [(run["components_solved"], run["flows_solved"]) for run in runs] == [
        (632, 1684), (112, 307),
    ]
    assert payload["identical_results"] is True


def test_fabric_hyperscale_ci_grid(tmp_path):
    payload = _run_below_floor(
        tmp_path, HYPERSCALE_CI, ["--min-flows-per-sec", "1e12"],
        "throughput .* below the required",
    )
    assert payload["total_flows"] == 4680
    run = payload["incremental"]
    assert (run["flows_completed"], run["components_solved"]) == (4680, 120)


def test_control_ci_grid(tmp_path):
    payload = _run_below_floor(
        tmp_path, CONTROL_CI, ["--min-skips", "1000000"],
        "skipped only 1760 port updates",
    )
    assert payload["signatures_on"]["signature_skips"] == 1760
    assert payload["signatures_off"]["signature_skips"] == 0
    assert payload["eager"]["passes"] == 480
    assert payload["coalesced"]["passes"] == 10
    assert payload["identical_tables"] is True
    assert payload["identical_coalesced_tables"] is True
