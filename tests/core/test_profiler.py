"""Tests for the offline profiler (Section 4.1 pipeline)."""

import pytest

from repro.errors import ProfilingError
from repro.core.profiler import OfflineProfiler, ProfileResult
from repro.core.sensitivity import PROFILE_FRACTIONS, r_squared
from repro.workloads.catalog import CATALOG


def test_default_fractions_are_section_7_1():
    profiler = OfflineProfiler()
    assert profiler.fractions == PROFILE_FRACTIONS


def test_fraction_one_always_included():
    profiler = OfflineProfiler(fractions=(0.25, 0.5))
    assert 1.0 in profiler.fractions


def test_bad_fractions_rejected():
    with pytest.raises(ProfilingError):
        OfflineProfiler(fractions=())
    with pytest.raises(ProfilingError):
        OfflineProfiler(fractions=(0.0, 1.0))
    with pytest.raises(ProfilingError):
        OfflineProfiler(fractions=(1.5,))


def test_unknown_method_rejected():
    with pytest.raises(ProfilingError):
        OfflineProfiler(method="hardware")


@pytest.mark.parametrize("workload", ["LR", "PR", "SQL"])
def test_simulated_profile_matches_analytic(workload):
    """The event-driven measurement and the closed-form stage model
    must agree on isolated runs -- this pins the simulator's core."""
    sim = OfflineProfiler(method="simulate", fractions=(0.25, 0.75))
    ana = OfflineProfiler(method="analytic", fractions=(0.25, 0.75))
    spec = CATALOG[workload].instantiate()
    s_samples, _ = sim.measure_samples(spec)
    a_samples, _ = ana.measure_samples(spec)
    for (b1, d1), (b2, d2) in zip(s_samples, a_samples):
        assert b1 == b2
        assert d1 == pytest.approx(d2, rel=1e-6)


def test_profile_returns_monotone_slowdowns():
    profiler = OfflineProfiler(method="analytic")
    result = profiler.profile(CATALOG["LR"])
    assert isinstance(result, ProfileResult)
    slowdowns = [d for _, d in result.samples]
    assert slowdowns == sorted(slowdowns, reverse=True)
    assert result.slowdown_at(1.0) == pytest.approx(1.0)


def test_profile_model_fits_well():
    profiler = OfflineProfiler(method="analytic", degree=3)
    result = profiler.profile(CATALOG["LR"])
    assert r_squared(result.model, list(result.samples)) > 0.98


def test_slowdown_at_unprofiled_fraction_raises():
    profiler = OfflineProfiler(method="analytic", fractions=(0.5,), degree=1)
    result = profiler.profile(CATALOG["LR"])
    with pytest.raises(ProfilingError):
        result.slowdown_at(0.33)


def test_slowdown_at_error_lists_available_fractions():
    profiler = OfflineProfiler(method="analytic", fractions=(0.5,), degree=1)
    result = profiler.profile(CATALOG["LR"])
    with pytest.raises(ProfilingError, match=r"available fractions: 0\.5, 1"):
        result.slowdown_at(0.33)


def test_slowdown_at_tolerance_absorbs_float_arithmetic():
    profiler = OfflineProfiler(
        method="analytic", fractions=(0.25, 0.75), degree=1
    )
    result = profiler.profile(CATALOG["LR"])
    # 1 - 0.75 != 0.25 bit-exactly; the default tolerance matches it.
    assert result.slowdown_at(1 - 0.75) == result.slowdown_at(0.25)
    with pytest.raises(ProfilingError):
        result.slowdown_at(0.25 + 1e-4, tol=1e-6)
    assert result.slowdown_at(0.25 + 1e-4, tol=1e-3) == \
        result.slowdown_at(0.25)


def test_build_table_covers_all_workloads():
    profiler = OfflineProfiler(method="analytic")
    table = profiler.build_table(CATALOG.values())
    assert table.names() == sorted(CATALOG)


def test_profile_respects_node_count():
    profiler = OfflineProfiler(method="analytic", n_nodes=4)
    result = profiler.profile(CATALOG["LR"])
    assert result.workload == "LR"
    # Different deployment shape -> different absolute times.
    t4 = dict(result.completion_times)[1.0]
    t8 = dict(
        OfflineProfiler(method="analytic").profile(CATALOG["LR"]).completion_times
    )[1.0]
    assert t4 != pytest.approx(t8)


def test_profiling_time_is_recorded():
    profiler = OfflineProfiler(method="analytic")
    result = profiler.profile(CATALOG["WC"])
    assert result.wall_time >= 0.0


def test_profiling_cost_accounts_all_runs():
    profiler = OfflineProfiler(method="analytic")
    result = profiler.profile(CATALOG["Sort"])
    cost = profiler.profiling_cost(result)
    # 7 runs on an 8-node pod, each at least the unthrottled time.
    baseline = dict(result.completion_times)[1.0]
    assert cost >= 7 * baseline * 8 * 0.99
    # Throttled runs are longer, so the bound is strict.
    assert cost > 7 * baseline * 8
