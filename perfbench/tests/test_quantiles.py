import statistics

import pytest

import quantiles


def test_sample_count_rule():
    assert quantiles.min_samples(0.5) == 20
    assert quantiles.min_samples(0.9) == 100
    assert quantiles.min_samples(0.99) == 1000
    assert quantiles.min_samples(0.999) == 10000


def test_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError, match="at least 1000"):
        quantiles.percentile(list(range(999)), 0.99)
    with pytest.raises(ValueError):
        quantiles.percentile(list(range(19)), 0.5)


def test_percentile_interpolates():
    values = list(range(1000))
    assert quantiles.percentile(values, 0.99) == pytest.approx(989.01)
    assert quantiles.percentile(values[::-1], 0.5) == pytest.approx(499.5)


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    assert quantiles.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quantiles.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert quantiles.quartiles([2.0]) == (2.0, 2.0, 2.0)
