"""Shape of the faults study: graceful degradation, not collapse."""

import json

import pytest

from repro.experiments.extension_faults import (
    faults_sweep_spec,
    run_faults_point,
)
from repro.sweep import SweepRunner


@pytest.fixture(scope="module")
def faults_result(catalog_table):
    return SweepRunner(jobs=1, cache=None).run(faults_sweep_spec(
        mtbfs=(None, 40.0, 8.0), mttr=5.0, seed=7, jobs_per_setup=6,
        n_servers=16, mean_gap=3.0, table=catalog_table,
    )).value


def test_saba_beats_baseline_without_faults(faults_result):
    for series in ("saba", "saba-failover"):
        clean = [p for p in faults_result.series(series)
                 if p.mtbf is None][0]
        assert clean.speedup > 1.05
        assert clean.counters["dropped_control_messages"] == 0
        assert clean.counters["rpc_unavailable"] == 0


def test_speedup_degrades_gracefully_with_downtime(faults_result):
    """More controller downtime costs allocation quality, but
    fail_open means Saba never does *worse* than the baseline."""
    points = sorted(faults_result.series("saba"),
                    key=lambda p: p.downtime)
    speedups = [p.speedup for p in points]
    # The fault-free point is the best (or tied); heavy faults erode
    # the advantage...
    assert speedups[0] >= speedups[-1]
    # ... but never push Saba below the baseline.
    for p in points:
        assert p.speedup >= 0.95


def test_faulted_points_exercise_the_recovery_machinery(faults_result):
    heavy = [p for p in faults_result.series("saba")
             if p.mtbf is not None and p.mtbf <= 10.0][0]
    assert heavy.counters["dropped_control_messages"] > 0
    assert heavy.counters["replayed_conns"] > 0
    assert heavy.counters["rpc_unavailable"] > 0
    assert heavy.counters["faults_crash"] > 0
    # Nothing is left stranded once the run completes.
    assert heavy.counters["pending_registrations"] == 0


def test_each_refused_call_is_one_attempt(faults_result):
    """A call the crashed controller refuses is not re-sent: the
    simulated clock stands still during a call, so a retry would meet
    the same crash window.  Each refusal is one injected crash and one
    dropped control message."""
    for p in faults_result.series("saba"):
        c = p.counters
        assert (c["rpc_unavailable"] == c.get("faults_crash", 0.0)
                == c["dropped_control_messages"])


def test_failover_drops_less_than_fail_open(faults_result):
    """Promoting the standby keeps the control plane available."""
    for mtbf in (40.0, 8.0):
        fo = [p for p in faults_result.series("saba-failover")
              if p.mtbf == mtbf][0]
        plain = [p for p in faults_result.series("saba")
                 if p.mtbf == mtbf][0]
        assert fo.counters["failed_over"] == 1.0
        assert (fo.counters["dropped_control_messages"]
                < plain.counters["dropped_control_messages"])
        assert fo.speedup >= 0.95


def test_to_json_is_canonical(faults_result):
    payload = json.loads(faults_result.to_json())
    assert payload["seed"] == 7
    assert len(payload["points"]) == 6
    # Round-tripping the parsed payload with sorted keys reproduces
    # the exact bytes: no float noise survives the rounding.
    assert json.dumps(payload, sort_keys=True, indent=2) == \
        faults_result.to_json()


def test_unknown_policy_rejected(catalog_table):
    with pytest.raises(ValueError):
        run_faults_point("homa", catalog_table)


def test_baseline_point_has_no_control_plane(catalog_table):
    out = run_faults_point(
        "baseline", catalog_table, jobs_per_setup=3, n_servers=8,
    )
    assert out["counters"] == {}
    assert len(out["times"]) == 3
