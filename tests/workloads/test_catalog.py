"""Tests pinning the workload catalog to the paper's Figure 1a shape."""

import pytest

from repro.units import GBPS_56
from repro.workloads.catalog import (
    CATALOG,
    PROFILER_NODES,
    get_template,
    workload_names,
)

SENSITIVE = ("LR", "RF", "GBT", "SVM")
INSENSITIVE = ("PR", "SQL", "WC", "Sort")


def _slowdown(name, b, **kwargs):
    spec = CATALOG[name].instantiate(**kwargs)
    return spec.slowdown_at(b, GBPS_56)


def test_catalog_has_the_ten_table1_workloads():
    assert workload_names() == [
        "LR", "RF", "GBT", "SVM", "NW", "NI", "PR", "SQL", "WC", "Sort",
    ]


def test_categories_match_table1():
    assert CATALOG["LR"].category == "ML"
    assert CATALOG["NW"].category == "Graph"
    assert CATALOG["PR"].category == "Websearch"
    assert CATALOG["NI"].category == "Websearch"
    assert CATALOG["SQL"].category == "SQL"
    assert CATALOG["Sort"].category == "Micro"


def test_dataset_descriptions_present():
    for template in CATALOG.values():
        assert template.dataset  # Table 1 column


def test_get_template_unknown():
    with pytest.raises(KeyError):
        get_template("nope")


def test_fig1a_lr_slowdowns():
    """LR: ~1.3x at 75 %, ~3.4x at 25 % (Figure 1a)."""
    assert _slowdown("LR", 0.75) == pytest.approx(1.3, abs=0.15)
    assert _slowdown("LR", 0.25) == pytest.approx(3.4, abs=0.5)


def test_fig1a_sort_nearly_insensitive():
    """Sort: ~1.1x at 25 % (Figure 1a)."""
    assert _slowdown("Sort", 0.25) == pytest.approx(1.1, abs=0.1)
    assert _slowdown("Sort", 0.75) == pytest.approx(1.0, abs=0.05)


def test_fig1a_pr_mildly_sensitive():
    assert _slowdown("PR", 0.25) == pytest.approx(1.4, abs=0.15)


def test_fig1a_average_slowdown_at_quarter_bandwidth():
    """'With 25% of bandwidth, the slowdown of applications varies from
    1.1x (Sort) to 3.4x (LR), with an average of 2.1x.'"""
    values = [_slowdown(name, 0.25) for name in CATALOG]
    assert min(values) == pytest.approx(1.1, abs=0.15)
    assert max(values) == pytest.approx(3.4, abs=0.5)
    assert sum(values) / len(values) == pytest.approx(2.1, abs=0.25)


def test_sensitive_strictly_above_insensitive_at_quarter():
    worst_insensitive = max(_slowdown(n, 0.25) for n in INSENSITIVE)
    best_sensitive = min(_slowdown(n, 0.25) for n in SENSITIVE)
    assert best_sensitive > worst_insensitive + 0.5


def test_insensitive_curves_saturate_at_low_bandwidth():
    """The aux (non-network) drain keeps insensitive slowdowns bounded
    even at 5 % bandwidth -- the property Saba's skew relies on."""
    for name in INSENSITIVE:
        assert _slowdown(name, 0.05) < 2.6


def test_sql_is_nonlinear_flat_then_steep():
    """Figure 5: SQL is flat down to ~25 % then degrades steeply."""
    assert _slowdown("SQL", 0.5) < 1.12
    assert _slowdown("SQL", 0.25) < 1.35
    assert _slowdown("SQL", 0.05) > 2.0


def test_slowdowns_monotone_across_profile_fractions():
    for name in CATALOG:
        values = [_slowdown(name, b) for b in (1.0, 0.9, 0.75, 0.5, 0.25, 0.1, 0.05)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(1.0)


def test_instantiate_scales_instances():
    spec8 = CATALOG["LR"].instantiate(n_instances=8)
    spec16 = CATALOG["LR"].instantiate(n_instances=16)
    # Work splits across instances: per-stage compute shrinks.
    assert spec16.stages[0].compute_time < spec8.stages[0].compute_time
    assert spec16.n_instances == 16


def test_instantiate_dataset_scale_monotone():
    t1 = CATALOG["LR"].instantiate(dataset_scale=1.0).analytic_completion_time(
        1.0, GBPS_56
    )
    t10 = CATALOG["LR"].instantiate(dataset_scale=10.0).analytic_completion_time(
        1.0, GBPS_56
    )
    t01 = CATALOG["LR"].instantiate(dataset_scale=0.1).analytic_completion_time(
        1.0, GBPS_56
    )
    assert t01 < t1 < t10
    # Sublinear: 10x data is far less than 10x time (see template doc).
    assert t10 < 6 * t1


def test_instantiate_rejects_bad_args():
    with pytest.raises(ValueError):
        CATALOG["LR"].instantiate(dataset_scale=0.0)
    with pytest.raises(ValueError):
        CATALOG["LR"].instantiate(n_instances=0)


def test_sync_traffic_grows_with_instances():
    """Synchronisation volume grows with the deployment, eroding the
    profiled model at 3-4x node counts (Figure 6c)."""
    tpl = CATALOG["NW"]
    ref = tpl.instantiate(n_instances=8)
    big = tpl.instantiate(n_instances=32)
    # Per-instance shuffle shrinks 4x, but sync grows; total comm per
    # instance must shrink by less than the pure-shuffle factor.
    assert big.stages[0].comm_bytes > ref.stages[0].comm_bytes / 4


def test_profiler_reference_is_eight_nodes():
    assert PROFILER_NODES == 8
    spec = CATALOG["LR"].instantiate()
    assert spec.n_instances == 8
