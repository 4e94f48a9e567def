"""The serial-vs-parallel benchmark behind BENCH_sweep.json."""

from __future__ import annotations

import json

from repro.bench import SWEEP_REPEATS, dumps, run_sweep, write


def test_run_bench_reduced_grid(tmp_path):
    lines = []
    payload = run_sweep(
        workloads=("SQL", "LR"),
        fractions=(0.5, 1.0),
        n_nodes=4,
        jobs=2,
        progress=lines.append,
    )
    assert payload["identical_results"] is True
    assert payload["n_tasks"] == 4
    assert payload["jobs"] == 2
    assert payload["serial_seconds"] > 0
    assert payload["parallel_seconds"] > 0
    assert payload["grid"]["workloads"] == ["SQL", "LR"]
    assert any("bench" in line for line in lines)
    # Serial and parallel runs alternate, SWEEP_REPEATS of each.
    runs = [line for line in lines if " done in " in line]
    assert [("jobs=1 " in line) for line in runs] == [True, False] * SWEEP_REPEATS

    out = tmp_path / "BENCH_sweep.json"
    write(dumps(payload), str(out))
    assert json.loads(out.read_text())["bench"] == "sweep.profile-catalog"


def test_run_bench_caps_degree_to_grid():
    # A 2-point grid can only support a linear fit; the bench must not
    # ask for the default cubic.
    payload = run_sweep(workloads=("SQL",), fractions=(0.5,), n_nodes=4,
                        jobs=1)
    assert payload["identical_results"] is True
    assert payload["grid"]["fractions"] == [0.5, 1.0]
