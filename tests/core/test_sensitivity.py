"""Tests for sensitivity models, fitting, and R^2."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProfilingError
from repro.core.sensitivity import (
    PROFILE_FRACTIONS,
    SensitivityModel,
    fit_sensitivity_model,
    r_squared,
)


def _hyperbolic_samples(c=0.8, a=0.2):
    """D(b) = a + c/b with D(1) = 1 -- an LR-like curve."""
    return [(b, a + c / b) for b in PROFILE_FRACTIONS]


def test_profile_fractions_match_section_7_1():
    assert PROFILE_FRACTIONS == (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0)


def test_model_validation():
    with pytest.raises(ProfilingError):
        SensitivityModel(name="x", coefficients=())
    with pytest.raises(ProfilingError):
        SensitivityModel(name="x", coefficients=(1.0,), fit_domain=(0.5, 0.2))
    with pytest.raises(ProfilingError):
        SensitivityModel(name="x", coefficients=(1.0,), basis="exp")


def test_degree():
    model = SensitivityModel(name="x", coefficients=(1.0, 2.0, 3.0))
    assert model.degree == 2


def test_inverse_basis_fits_hyperbola_exactly():
    samples = _hyperbolic_samples()
    model = fit_sensitivity_model("LR-like", samples, degree=1)
    assert r_squared(model, samples) > 0.9999
    assert model.predict(0.25) == pytest.approx(0.2 + 0.8 / 0.25, rel=1e-6)


def test_power_basis_matches_paper_form():
    samples = [(b, 3.0 - 2.0 * b) for b in PROFILE_FRACTIONS]
    model = fit_sensitivity_model("lin", samples, degree=1, basis="power")
    assert model.basis == "power"
    assert r_squared(model, samples) > 0.9999
    assert model.coefficients[1] == pytest.approx(-2.0, abs=1e-6)


def test_predict_clips_to_fit_domain():
    model = fit_sensitivity_model("x", _hyperbolic_samples(), degree=2)
    assert model.predict(0.001) == pytest.approx(model.predict(0.05))
    assert model.predict(2.0) == pytest.approx(model.predict(1.0))


def test_predict_floored_at_one():
    model = SensitivityModel(name="x", coefficients=(0.1,), basis="power")
    assert model.predict(0.5) == 1.0


def test_monotone_fit_never_increases_with_bandwidth():
    # A steep hyperbola whose unconstrained cubic in b oscillates.
    samples = [(b, 0.05 + 0.95 / b) for b in PROFILE_FRACTIONS]
    model = fit_sensitivity_model("steep", samples, degree=3, basis="power")
    xs = np.linspace(0.05, 1.0, 200)
    preds = [model.predict(float(x)) for x in xs]
    # The constraint is enforced on a finite grid, so allow a hair of
    # slack between grid points.
    for a, b in zip(preds, preds[1:]):
        assert b <= a + 1e-3


def test_monotone_fit_inverse_basis():
    samples = [(b, max(1.0, 0.2 + 0.1 / b)) for b in PROFILE_FRACTIONS]
    model = fit_sensitivity_model("flatish", samples, degree=3)
    xs = np.linspace(0.05, 1.0, 100)
    derivs = [model.derivative(float(x)) for x in xs]
    assert all(d <= 1e-6 for d in derivs)


def test_derivative_matches_finite_difference():
    model = fit_sensitivity_model("x", _hyperbolic_samples(), degree=2)
    for b in (0.2, 0.5, 0.8):
        eps = 1e-6
        fd = (model._raw(b + eps) - model._raw(b - eps)) / (2 * eps)
        assert model.derivative(b) == pytest.approx(fd, rel=1e-3)


def test_is_convex_decreasing_true_for_hyperbola():
    model = fit_sensitivity_model("x", _hyperbolic_samples(), degree=1)
    assert model.is_convex_decreasing(0.1, 0.9)


def test_fit_needs_enough_samples():
    with pytest.raises(ProfilingError):
        fit_sensitivity_model("x", [(1.0, 1.0), (0.5, 2.0)], degree=3)


def test_fit_rejects_bad_fractions():
    with pytest.raises(ProfilingError):
        fit_sensitivity_model("x", [(0.0, 1.0), (0.5, 1.5), (1.0, 1.0)], degree=1)
    with pytest.raises(ProfilingError):
        fit_sensitivity_model("x", [(1.5, 1.0), (0.5, 1.5), (1.0, 1.0)], degree=1)


def test_fit_rejects_subunity_slowdowns():
    with pytest.raises(ProfilingError):
        fit_sensitivity_model("x", [(0.5, 0.5), (0.75, 1.0), (1.0, 1.0)], degree=1)


def test_fit_rejects_bad_degree():
    with pytest.raises(ProfilingError):
        fit_sensitivity_model("x", _hyperbolic_samples(), degree=0)


def test_r_squared_increases_with_degree_on_kinked_curve():
    """Figure 6a: higher polynomial degree => higher R^2."""
    # SQL-like: flat then steep.
    samples = [
        (b, max(1.0, 1.0 + 2.5 * (0.25 - b) / 0.2)) for b in PROFILE_FRACTIONS
    ]
    scores = [
        r_squared(fit_sensitivity_model("sql", samples, degree=k), samples)
        for k in (1, 2, 3)
    ]
    assert scores[0] <= scores[1] + 1e-9 <= scores[2] + 2e-9
    assert scores[2] > 0.9


def test_r_squared_perfect_fit_is_one():
    samples = _hyperbolic_samples()
    model = fit_sensitivity_model("x", samples, degree=2)
    assert r_squared(model, samples) == pytest.approx(1.0, abs=1e-6)


def test_r_squared_clamped_at_zero():
    model = SensitivityModel(name="x", coefficients=(100.0,), basis="power")
    samples = [(0.5, 1.0), (1.0, 2.0)]
    assert r_squared(model, samples) == 0.0


def test_r_squared_empty_samples():
    model = SensitivityModel(name="x", coefficients=(1.0,))
    with pytest.raises(ProfilingError):
        r_squared(model, [])


def test_as_vector_pads_and_truncates():
    model = SensitivityModel(name="x", coefficients=(1.0, 2.0))
    assert list(model.as_vector(3)) == [1.0, 2.0, 0.0, 0.0]
    assert list(model.as_vector(0)) == [1.0]


@given(
    c=st.floats(min_value=0.01, max_value=5.0),
    degree=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_fitted_models_monotone_for_random_hyperbolas(c, degree):
    samples = [(b, (1 - c) + c / b) if (1 - c) + c / b >= 1.0 else (b, 1.0)
               for b in PROFILE_FRACTIONS]
    samples = [(b, max(1.0, d)) for b, d in samples]
    model = fit_sensitivity_model("x", samples, degree=degree)
    xs = np.linspace(0.05, 1.0, 60)
    preds = [model.predict(float(x)) for x in xs]
    for a, b in zip(preds, preds[1:]):
        assert b <= a + 1e-5


def test_near_flat_curve_fits_without_blowup():
    """A network-insensitive app's curve is ~1.0 everywhere.

    The residual variance is near machine epsilon; the fit must stay
    numerically stable, keep D >= 1, and remain monotone rather than
    amplifying the noise into spurious slope.
    """
    samples = [(b, 1.0 + 1e-9 * (1.0 - b)) for b in PROFILE_FRACTIONS]
    model = fit_sensitivity_model("flat", samples, degree=3)
    for b in PROFILE_FRACTIONS:
        assert model.predict(b) == pytest.approx(1.0, abs=1e-6)
    lo, hi = model.fit_domain
    preds = [model.predict(float(x)) for x in np.linspace(lo, hi, 40)]
    for a, b in zip(preds, preds[1:]):
        assert b <= a + 1e-6


def test_two_point_window_linear_fit_exact():
    """Degree 1 with exactly two samples: the minimal online window.

    The online estimator clamps degree to len(samples) - 1, so its
    first refit is a two-point line -- which must interpolate both
    samples exactly.
    """
    samples = [(0.5, 2.0), (1.0, 1.0)]
    model = fit_sensitivity_model("tiny", samples, degree=1)
    assert model.predict(0.5) == pytest.approx(2.0, abs=1e-8)
    assert model.predict(1.0) == pytest.approx(1.0, abs=1e-8)
    assert model.r_squared == pytest.approx(1.0)


def test_fit_attaches_r_squared():
    model = fit_sensitivity_model("x", _hyperbolic_samples(), degree=3)
    assert model.r_squared is not None
    assert model.r_squared == pytest.approx(
        r_squared(model, _hyperbolic_samples())
    )


@given(
    c=st.floats(min_value=0.05, max_value=4.0),
    noise=st.floats(min_value=0.0, max_value=0.3),
    degree=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_convex_fits_stay_in_waterfilling_fast_path(c, noise, degree):
    """``convex=True`` fits satisfy ``is_convex_decreasing`` on the
    fit range even for noisy windows -- the invariant that keeps the
    online estimator's refits inside the Eq. 2 fast path."""
    samples = []
    for i, b in enumerate(PROFILE_FRACTIONS):
        bump = noise if i % 2 else -noise  # deterministic "noise"
        samples.append((b, max(1.0, (1 - c) + c / b + bump)))
    model = fit_sensitivity_model(
        "x", samples, degree=degree, monotone=True, convex=True
    )
    lo, hi = model.fit_domain
    assert model.is_convex_decreasing(lo, hi)
