"""Results must not depend on what ran earlier in the process."""

import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)


@pytest.fixture
def small(monkeypatch):
    """Shrink the churn and incast workloads to test size."""
    monkeypatch.setattr(workloads, "CHURN_BASE_RATE", 300.0)
    monkeypatch.setattr(workloads, "CHURN_DURATION", 0.2)
    monkeypatch.setattr(workloads, "CHURN_PROBES", (0.1, 0.2))
    monkeypatch.setattr(
        workloads, "INCAST_TOPOLOGY", dict(n_spine=2, n_leaf=4, n_tor=4, servers_per_tor=6)
    )
    monkeypatch.setattr(workloads, "INCAST_WAVES", 3)


def outputs(workload, seed=1):
    inputs = workload.prepare(seed)
    unit = workload.run(workload.build(inputs))
    assert unit.rejected == 0
    return unit.outputs


def test_results_do_not_depend_on_run_order(small):
    churn, incast = workloads.ServiceChurn(), workloads.IncastWaves()
    churn_first = outputs(churn)
    incast_second = outputs(incast)
    incast_first = outputs(incast)
    churn_second = outputs(churn)
    assert churn_first == churn_second
    assert incast_first == incast_second
    assert not churn_first["violations"]


def test_flow_id_reset_is_what_keeps_runs_independent(small, monkeypatch):
    churn = workloads.ServiceChurn()
    fresh = outputs(churn)
    monkeypatch.setattr(workloads, "reset_flow_ids", lambda: None)
    # Without the reset the second build continues the flow-id
    # sequence, and ECMP hashes the same connections onto other paths.
    assert outputs(churn) != fresh


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "incast-waves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
