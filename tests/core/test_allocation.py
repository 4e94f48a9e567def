"""Tests for the Eq. 2 weight optimiser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
from repro.core.allocation import (
    AllocationProblem,
    _solve_kkt,
    _solve_slsqp,
    equal_split,
    optimize_weights,
)
from repro.core.sensitivity import (
    PROFILE_FRACTIONS,
    SensitivityModel,
    fit_sensitivity_model,
)

#: The two methods :func:`optimize_weights` dispatches a multi-app port
#: to, called directly so each can serve as the other's oracle.
SOLVERS = {"slsqp": _solve_slsqp, "kkt": _solve_kkt}


def _solve(solver, models, **problem):
    return SOLVERS[solver](AllocationProblem(models=tuple(models), **problem), {})


def _model(name, c, aux=0.0):
    """Hyperbolic-with-floor model: D(b) = 1-c + c/(b+aux), floored."""
    samples = [
        (b, max(1.0, (1 - c) + c / (b + aux))) for b in PROFILE_FRACTIONS
    ]
    return fit_sensitivity_model(name, samples, degree=3)


SENSITIVE = _model("sensitive", c=0.8)
INSENSITIVE = _model("insensitive", c=0.1, aux=0.4)


def test_single_app_gets_everything():
    assert optimize_weights([SENSITIVE]) == [1.0]


@pytest.mark.parametrize("solver", SOLVERS)
def test_weights_sum_to_total(solver):
    weights = _solve(solver, [SENSITIVE, INSENSITIVE, SENSITIVE], total=0.9)
    assert sum(weights) == pytest.approx(0.9, abs=1e-6)


@pytest.mark.parametrize("solver", SOLVERS)
def test_sensitive_app_gets_more(solver):
    w_sens, w_insens = _solve(solver, [SENSITIVE, INSENSITIVE])
    assert w_sens > w_insens + 0.1


@pytest.mark.parametrize("solver", SOLVERS)
def test_min_weight_respected(solver):
    weights = _solve(
        solver, [SENSITIVE, INSENSITIVE, INSENSITIVE], min_weight=0.05
    )
    assert all(w >= 0.05 - 1e-9 for w in weights)


def test_identical_models_get_equal_weights():
    weights = optimize_weights([SENSITIVE, SENSITIVE, SENSITIVE])
    assert weights[0] == pytest.approx(weights[1], abs=0.02)
    assert weights[1] == pytest.approx(weights[2], abs=0.02)


def test_solvers_agree_on_convex_instance():
    models = [SENSITIVE, INSENSITIVE, _model("mid", c=0.4)]
    results = {solver: _solve(solver, models) for solver in SOLVERS}
    problem = AllocationProblem(models=tuple(models))
    objectives = {
        solver: problem.objective(w) for solver, w in results.items()
    }
    best = min(objectives.values())
    for solver, val in objectives.items():
        assert val <= best + 0.02, f"{solver} objective {val} vs best {best}"


def test_kkt_matches_slsqp_closely():
    models = [_model(f"m{i}", c=0.1 + 0.2 * i) for i in range(4)]
    w_kkt = _solve("kkt", models)
    w_slsqp = _solve("slsqp", models)
    for a, b in zip(w_kkt, w_slsqp):
        assert a == pytest.approx(b, abs=0.05)


def test_auto_solver_runs():
    weights = optimize_weights([SENSITIVE, INSENSITIVE])
    assert sum(weights) == pytest.approx(1.0, abs=1e-6)


#: D = 0.2 + 0.8/b and D = 0.7 + 0.3/b: convex and decreasing.
CONVEX = [
    SensitivityModel(name="steep", coefficients=(0.2, 0.8)),
    SensitivityModel(name="flat", coefficients=(0.7, 0.3)),
]
#: Not decreasing on the feasible box: D = 3 - 2/b + 0.5/b^2 falls to
#: a minimum at b = 0.5, then rises again.
NON_CONVEX = SensitivityModel(name="dip", coefficients=(3.0, -2.0, 0.5))


@pytest.mark.parametrize("models, label", [
    ([SENSITIVE], "direct"),
    ([SENSITIVE] * 10, "equal"),
    (CONVEX, "kkt"),
    ([CONVEX[0], NON_CONVEX], "slsqp"),
])
def test_dispatch_reports_the_method_used(models, label):
    """The one dispatch: one app, floor-exhausted, all convex, else."""
    stats = {}
    weights = optimize_weights(models, min_weight=0.1, stats=stats)
    assert stats["solver"] == label
    assert sum(weights) == pytest.approx(1.0, abs=1e-6)
    if label in SOLVERS:
        assert weights == _solve(label, models, min_weight=0.1)


def test_problem_validation():
    with pytest.raises(AllocationError):
        AllocationProblem(models=())
    with pytest.raises(AllocationError):
        AllocationProblem(models=(SENSITIVE,), total=0.0)
    with pytest.raises(AllocationError):
        AllocationProblem(models=(SENSITIVE,), min_weight=-0.1)
    with pytest.raises(AllocationError):
        # 3 apps x 0.5 floor > 1.0 total.
        AllocationProblem(
            models=(SENSITIVE, SENSITIVE, SENSITIVE), min_weight=0.5
        )


def test_equal_split():
    problem = AllocationProblem(models=(SENSITIVE, INSENSITIVE), total=0.8)
    assert equal_split(problem) == [0.4, 0.4]


def test_objective_evaluates_sum_of_slowdowns():
    problem = AllocationProblem(models=(SENSITIVE, INSENSITIVE))
    val = problem.objective([0.5, 0.5])
    assert val == pytest.approx(
        SENSITIVE.predict(0.5) + INSENSITIVE.predict(0.5)
    )


def test_skewed_beats_equal_for_mixed_sensitivities():
    """The crux of Section 2.2: an unequal split lowers total slowdown."""
    problem = AllocationProblem(models=(SENSITIVE, INSENSITIVE))
    optimal = optimize_weights([SENSITIVE, INSENSITIVE])
    assert problem.objective(optimal) < problem.objective([0.5, 0.5]) - 0.05


@given(
    cs=st.lists(
        st.floats(min_value=0.05, max_value=0.9), min_size=2, max_size=6
    )
)
@settings(max_examples=40, deadline=None)
def test_optimum_never_worse_than_equal_split(cs):
    models = [_model(f"m{i}", c=c) for i, c in enumerate(cs)]
    problem = AllocationProblem(models=tuple(models))
    weights = optimize_weights(models)
    assert sum(weights) == pytest.approx(1.0, abs=1e-5)
    assert problem.objective(weights) <= (
        problem.objective(equal_split(problem)) + 1e-4
    )


@given(
    n=st.integers(min_value=2, max_value=8),
    total=st.floats(min_value=0.5, max_value=1.0),
)
@settings(max_examples=30, deadline=None)
def test_feasibility_properties(n, total):
    models = [_model(f"m{i}", c=0.1 + 0.7 * i / n) for i in range(n)]
    weights = optimize_weights(models, total=total, min_weight=0.01)
    assert sum(weights) == pytest.approx(total, abs=1e-5)
    assert all(w >= 0.01 - 1e-9 for w in weights)


def test_floor_consumes_budget_returns_equal_split():
    models = [SENSITIVE] * 10
    weights = optimize_weights(models, total=1.0, min_weight=0.1)
    assert weights == pytest.approx([0.1] * 10)


def test_kkt_handles_mixed_degrees():
    low = fit_sensitivity_model(
        "low", [(b, max(1.0, 0.5 + 0.5 / b)) for b in PROFILE_FRACTIONS],
        degree=1,
    )
    high = fit_sensitivity_model(
        "high", [(b, max(1.0, 0.2 + 0.8 / b)) for b in PROFILE_FRACTIONS],
        degree=3,
    )
    weights = _solve("kkt", [low, high])
    assert sum(weights) == pytest.approx(1.0, abs=1e-5)
    assert weights[1] > weights[0]  # steeper model earns more


def test_vectorised_kkt_matches_scalar_objective_at_scale():
    models = [
        _model(f"m{i}", c=0.05 + 0.9 * (i / 39)) for i in range(40)
    ]
    weights = _solve("kkt", models, min_weight=0.005)
    problem = AllocationProblem(
        models=tuple(models), min_weight=0.005
    )
    slsqp = _solve("slsqp", models, min_weight=0.005)
    assert problem.objective(weights) <= problem.objective(slsqp) * 1.02


def _parent_derivative(model, b):
    """``SensitivityModel.derivative`` before the bound D', verbatim:
    ``_clip``, then Horner over ``i * c_i`` (``_poly_deriv``)."""
    lo, hi = model.fit_domain
    b = min(max(b, lo), hi)

    def _poly_deriv(x):
        acc = 0.0
        for i in range(model.degree, 0, -1):
            acc = acc * x + i * model.coefficients[i]
        return acc

    if model.basis == "inverse":
        x = 1.0 / b
        return _poly_deriv(x) * (-1.0 / (b * b))
    return _poly_deriv(b)


@st.composite
def _batch_point(draw):
    """Models mixing both bases and degrees 0-3, with one point each
    that may fall inside, outside or exactly on the model's fit
    domain."""
    n = draw(st.integers(min_value=1, max_value=6))
    models, points = [], []
    for i in range(n):
        degree = draw(st.integers(min_value=0, max_value=3))
        coefficients = tuple(draw(st.lists(
            st.floats(min_value=-5.0, max_value=5.0),
            min_size=degree + 1, max_size=degree + 1,
        )))
        lo = draw(st.floats(min_value=0.01, max_value=0.5))
        hi = draw(st.floats(min_value=lo + 0.01, max_value=1.0))
        models.append(SensitivityModel(
            name=f"m{i}", coefficients=coefficients, fit_domain=(lo, hi),
            basis=draw(st.sampled_from(("inverse", "power"))),
        ))
        points.append(draw(st.one_of(
            st.floats(min_value=lo, max_value=hi),
            st.floats(min_value=1e-3, max_value=1.5),
            st.sampled_from((lo, hi)),
        )))
    return models, points


@given(_batch_point())
@settings(max_examples=200, deadline=None)
def test_batch_derivative_equals_scalar_derivative(case):
    """The KKT solver's bound D' is the models' former derivative, bit
    for bit, so neither its weights nor ``is_convex_decreasing``'s
    decisions can move."""
    models, points = case
    expected = [_parent_derivative(m, w).hex() for m, w in zip(models, points)]
    assert [m.bind_derivative()(w).hex() for m, w in zip(models, points)] == expected
    assert [m.derivative(w).hex() for m, w in zip(models, points)] == expected


#: ``test_kkt_handles_mixed_degrees``'s fitted pair, with the fit's
#: coefficients written out so the instance does not depend on the
#: machine's least-squares kernels.
MIXED_DEGREES = [
    SensitivityModel(
        name="low", coefficients=(0.4999999999999994, 0.5000000000000002),
    ),
    SensitivityModel(name="high", coefficients=(
        0.20000000000046497, 0.8000000000000206,
        3.9689650451118243e-16, -7.82998370114651e-17,
    )),
]
#: D = 4 - 5b + 2b^2 on the power basis: convex and decreasing on the
#: box, mixed with the two inverse-basis ``CONVEX`` models.
POWER_MIX = [
    SensitivityModel(
        name="bowl", coefficients=(4.0, -5.0, 2.0), basis="power",
    ),
    *CONVEX,
]


@pytest.mark.parametrize("models, expected", [
    (CONVEX, [0.6202041041586864, 0.37979589584131357]),
    (MIXED_DEGREES, [0.4415184413373402, 0.5584815586626598]),
    (POWER_MIX, [0.27116940499803477, 0.4520237255152426,
                 0.27680686948672256]),
], ids=["convex", "mixed-degrees", "power-mix"])
def test_kkt_weights_are_pinned(models, expected):
    """Exact KKT weights: speeding the solver up must not move them."""
    stats = {}
    assert _solve_kkt(AllocationProblem(models=tuple(models)), stats) == (
        expected
    )
    assert stats["solver"] == "kkt"
