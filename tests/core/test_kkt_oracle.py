"""Differential suite: the KKT Eq. 2 solve against its former self.

:func:`repro.core.allocation._solve_kkt` bisects each model's marginal
in plain Python over the model's bound derivative
(:meth:`SensitivityModel.bind_derivative`).  It performs the float
operations the numpy version performed elementwise, in the same
order, so no weight may move by a bit.  The oracle below is the
solver as it was before, copied verbatim: a padded coefficient matrix
(``_ModelBatch``) and one vectorised bisection across all models per
``lambda`` probe.  Both sides must return ``==`` weights and ``==``
stats (method and probe count), or raise the same exception type, on
random instances and on every KKT instance of the Figure 10 co-run.
"""

from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationProblem,
    _renormalise,
    _solve_kkt,
    equal_split,
)
from repro.core.sensitivity import SensitivityModel
from repro.errors import AllocationError
from tests.core.test_slsqp_oracle import fig10_problems


# -- the reference: the solver before per-app scalar bisection --------------


class _ModelBatch:
    """Vectorised derivative evaluation for a set of models."""

    def __init__(self, models: Sequence[SensitivityModel]) -> None:
        self.n = len(models)
        degree = max(m.degree for m in models)
        coeffs = np.zeros((self.n, degree + 1))
        for i, m in enumerate(models):
            coeffs[i, : m.degree + 1] = m.coefficients
        #: ``k * c_k`` per degree, highest first: the Horner columns of
        #: ``dD/dx``.
        self.slopes = [k * coeffs[:, k] for k in range(degree, 0, -1)]
        self.inverse = np.array([m.basis == "inverse" for m in models])
        self.lo = np.array([m.fit_domain[0] for m in models])
        self.hi = np.array([m.fit_domain[1] for m in models])

    def derivative(self, w: np.ndarray) -> np.ndarray:
        """dD/db at ``w`` (per model), with domain clipping."""
        b = np.minimum(np.maximum(w, self.lo), self.hi)
        x = np.where(self.inverse, 1.0 / b, b)
        acc = np.zeros(self.n)
        for slope in self.slopes:
            acc = acc * x + slope
        return np.where(self.inverse, acc * (-1.0 / (b * b)), acc)


def _weights_at_lambda(
    batch: _ModelBatch, lam: float, lo: float, hi: float, iters: int = 30
) -> np.ndarray:
    """Solve ``D_i'(w_i) = -lam`` per model by vector bisection.

    For convex decreasing ``D``, ``D'`` is increasing, so the root is
    unique; outside the bracket the answer clamps to the boundary.
    """
    target = -lam
    a = np.full(batch.n, lo)
    b = np.full(batch.n, hi)
    at_lo = batch.derivative(a) >= target  # floor: gain already below
    at_hi = batch.derivative(b) <= target  # cap: gain still above
    for _ in range(iters):
        mid = 0.5 * (a + b)
        below = batch.derivative(mid) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    w = 0.5 * (a + b)
    w = np.where(at_lo, lo, w)
    w = np.where(at_hi, hi, w)
    return w


def reference_solve_kkt(problem: AllocationProblem, stats: dict) -> List[float]:
    """Bisection on the shared marginal ``lambda`` (vectorised)."""
    n = len(problem.models)
    lo_w = problem.min_weight
    hi_w = problem.total - (n - 1) * problem.min_weight
    batch = _ModelBatch(problem.models)
    probes = 0

    def excess(lam: float) -> float:
        nonlocal probes
        probes += 1
        return float(
            _weights_at_lambda(batch, lam, lo_w, hi_w).sum()
        ) - problem.total

    # Bracket lambda: at lambda -> 0+ every app wants its cap; at a huge
    # lambda every app drops to the floor.
    if excess(0.0) <= 0.0:
        # All models (near-)insensitive: fall back to an equal split.
        stats.update(solver="equal", iterations=probes)
        return equal_split(problem)
    lam_hi = 1.0
    for _ in range(60):
        if excess(lam_hi) <= 0.0:
            break
        lam_hi *= 4.0
    else:
        raise AllocationError("could not bracket lambda; models degenerate")
    # Brent needs far fewer probes than plain bisection, and each probe
    # is a full vectorised inner solve -- this is the hot path of the
    # Figure 12 controller-overhead measurement.
    from scipy import optimize as _sopt

    lam_star = _sopt.brentq(
        excess, 0.0, lam_hi, xtol=1e-6, rtol=1e-6, maxiter=60
    )
    weights = _weights_at_lambda(batch, lam_star, lo_w, hi_w)
    stats.update(solver="kkt", iterations=probes)
    return _renormalise([float(w) for w in weights], problem)


def assert_same_solve(problem: AllocationProblem) -> None:
    ref_stats: dict = {}
    try:
        expected = reference_solve_kkt(problem, ref_stats)
    except Exception as exc:
        with pytest.raises(type(exc)):
            _solve_kkt(problem, {})
        return
    stats: dict = {}
    assert _solve_kkt(problem, stats) == expected
    assert stats == ref_stats


# -- random instances -------------------------------------------------------


@st.composite
def _fit_domains(draw):
    """Fit domains that the feasible box may overhang on either side."""
    lo = draw(st.floats(1e-3, 0.3))
    hi = draw(st.one_of(st.just(1.0), st.floats(lo + 0.01, 1.0)))
    return lo, hi


@st.composite
def _convex_models(draw):
    """Convex and decreasing on the fit domain, degree 1-3.

    Inverse basis: ``D = c_0 + sum c_k / b^k`` with ``c_1 > 0`` and
    every ``c_k >= 0``.  Power basis: ``c_2, c_3 >= 0`` and ``c_1`` low
    enough that ``D'`` stays negative up to the domain's top.
    """
    degree = draw(st.integers(1, 3))
    lo, hi = draw(_fit_domains())
    slopes = [draw(st.floats(0.01, 4.0))]
    slopes += [draw(st.floats(0.0, 4.0)) for _ in range(degree - 1)]
    basis = draw(st.sampled_from(("inverse", "power")))
    if basis == "power":
        c2, c3 = (slopes[1:] + [0.0, 0.0])[:2]
        slopes[0] = -slopes[0] - 2.0 * c2 * hi - 3.0 * c3 * hi * hi
    return SensitivityModel(
        name="convex",
        coefficients=(draw(st.floats(0.5, 3.0)), *slopes),
        fit_domain=(lo, hi),
        basis=basis,
    )


@st.composite
def _flat_models(draw):
    """``D' = 0`` everywhere, which meets both clamps at ``lambda = 0``."""
    return SensitivityModel(
        name="flat",
        coefficients=(draw(st.floats(0.5, 3.0)),) + (0.0,) * draw(st.integers(0, 3)),
        fit_domain=draw(_fit_domains()),
        basis=draw(st.sampled_from(("inverse", "power"))),
    )


@st.composite
def _any_models(draw):
    """Arbitrary coefficients on either basis, degree 0-3."""
    degree = draw(st.integers(0, 3))
    return SensitivityModel(
        name="any",
        coefficients=tuple(draw(st.floats(-4.0, 4.0)) for _ in range(degree + 1)),
        fit_domain=draw(_fit_domains()),
        basis=draw(st.sampled_from(("inverse", "power"))),
    )


@st.composite
def _instances(draw):
    """2-64 apps, a total in (0, 1] and a floor from 0 up to just
    under ``total/n``.  The apps share up to 8 distinct models, as
    Figure 12's ports share a model pool.  Two thirds of the instances
    draw only convex models, so interior bisections run; the rest mix
    convex, flat and arbitrary models, both bases and all degrees."""
    n = draw(st.integers(2, 64))
    total = draw(st.one_of(st.floats(0.05, 1.0), st.floats(1e-6, 1.0)))
    top = total / n
    floor = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, top, exclude_max=True),
            st.sampled_from([1e-9, 1e-6, 1e-3]).map(
                lambda gap: max(0.0, top - gap * top)
            ),
        )
    )
    family = draw(st.sampled_from(("convex", "convex", "mixed")))
    pool = _convex_models() if family == "convex" else st.one_of(
        _convex_models(), _flat_models(), _any_models()
    )
    distinct = draw(st.lists(pool, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return AllocationProblem(
        models=tuple(distinct[i] for i in picks), total=total, min_weight=floor
    )


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_matches_vectorised_bisection(problem):
    assert_same_solve(problem)


def test_flat_model_takes_the_cap_at_zero_lambda():
    """At ``lambda = 0`` a flat model meets both clamps; the cap wins,
    as it did in the vectorised code, so the zero probe's excess and
    with it Brent's first interpolation stay put."""
    steep = SensitivityModel(name="steep", coefficients=(1.0, 2.0))
    flat = SensitivityModel(name="flat", coefficients=(2.0,))
    problem = AllocationProblem(models=(steep, flat, flat), min_weight=0.1)
    stats: dict = {}
    weights = _solve_kkt(problem, stats)
    assert stats["solver"] == "kkt"
    assert weights[0] == max(weights) > 0.79
    assert_same_solve(problem)


# -- the Figure 10 co-run's instances ---------------------------------------


def test_fig10_instances_match():
    problems = fig10_problems("kkt_instances")
    assert len(problems) == 122
    for problem in problems:
        assert_same_solve(problem)
