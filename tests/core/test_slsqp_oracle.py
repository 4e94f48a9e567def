"""Differential suite: the SLSQP Eq. 2 solve against its former self.

:func:`repro.core.allocation._solve_slsqp` hands SLSQP its own
objective gradient and constraint Jacobian.  They reproduce scipy's
default 2-point finite differences (same step, same bound handling,
same quotient) but move one prediction at a time, so none of that may
move a bit.  The oracle below is the solver as it was before, copied
verbatim: it passes no ``jac`` and lets scipy's ``approx_derivative``
difference both functions.  Both sides must return ``==`` weights and
``==`` stats (method and iteration count), on random instances and on
every SLSQP instance of the Figure 10 co-run.
"""

import json
import math
from pathlib import Path
from typing import List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationProblem,
    _renormalise,
    _solve_slsqp,
)
from repro.core.sensitivity import SensitivityModel
from repro.errors import AllocationError

#: Every distinct SLSQP (``instances``) and KKT (``kkt_instances``)
#: instance of one perfbench ``fig10-saba`` unit, recorded by wrapping
#: ``repro.core.pipeline.optimize_weights``.  The 20 synthetic models'
#: coefficients are written out, so the instances do not depend on the
#: least-squares kernel that fitted them.
FIG10_INSTANCES = Path(__file__).with_name("fig10_slsqp_instances.json")


def fig10_problems(key: str) -> List[AllocationProblem]:
    """The recorded instances under ``key``, in recording order."""
    recorded = json.loads(FIG10_INSTANCES.read_text())
    models = [
        SensitivityModel(
            name=m["name"],
            coefficients=tuple(m["coefficients"]),
            fit_domain=tuple(m["fit_domain"]),
            basis=m["basis"],
        )
        for m in recorded["models"]
    ]
    return [
        AllocationProblem(
            models=tuple(models[i] for i in indices),
            total=recorded["total"],
            min_weight=floor,
        )
        for indices, floor in recorded[key]
    ]


# -- the reference: the solver before its exact derivatives ---------------


def reference_solve_slsqp(problem: AllocationProblem, stats: dict) -> List[float]:
    from scipy import optimize  # local import: keep scipy optional at import time

    n = len(problem.models)
    x0 = np.full(n, problem.total / n)
    bounds = [
        (problem.min_weight, problem.total - (n - 1) * problem.min_weight)
    ] * n

    def objective(x: np.ndarray) -> float:
        return float(sum(m.predict(float(w)) for m, w in zip(problem.models, x)))

    result = optimize.minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=bounds,
        constraints=[{
            "type": "eq",
            "fun": lambda x: float(np.sum(x) - problem.total),
        }],
        options={"maxiter": 200, "ftol": 1e-9},
    )
    if not result.success and not np.isfinite(result.fun):
        raise AllocationError(f"SLSQP failed: {result.message}")
    stats.update(solver="slsqp", iterations=int(result.nit))
    return _renormalise([float(w) for w in result.x], problem)


def assert_same_solve(problem: AllocationProblem) -> None:
    stats: dict = {}
    ref_stats: dict = {}
    weights = _solve_slsqp(problem, stats)
    assert weights == reference_solve_slsqp(problem, ref_stats)
    assert stats == ref_stats


# -- random instances -------------------------------------------------------

_coefficient = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw, flat: bool = False):
    """One Eq. 1 model; ``flat`` ones predict a constant slowdown."""
    degree = draw(st.integers(1, 3))
    coefficients = [draw(st.floats(0.5, 3.0))]
    coefficients += [0.0 if flat else draw(_coefficient) for _ in range(degree)]
    return SensitivityModel(
        name="m",
        coefficients=tuple(coefficients),
        fit_domain=(draw(st.sampled_from([0.01, 0.05, 0.1])), 1.0),
        basis=draw(st.sampled_from(["inverse", "power"])),
    )


def _just_below(x: float, ulps: int) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, 0.0)
    return x


@st.composite
def _instances(draw):
    """2-12 models, a total in (0, 1] and a floor from 0 up to
    ``total/n - 1e-9``, so that some boxes are narrower than scipy's
    step.  Some totals sit a few ulps below ``n * 2**-k``: every weight
    then starts just under a power of two, where ``w + h`` rounds and
    the quotient's ``(w + h) - w`` differs from ``h``.  With ``at_cap``
    every model but a steep inverse one is flat, so the optimum sits at
    the box's cap and the step there flips sign.
    """
    n = draw(st.integers(2, 12))
    binade = n * 2.0 ** -(math.ceil(math.log2(n)) + draw(st.integers(0, 2)))
    total = draw(
        st.one_of(
            st.floats(0.05, 1.0),
            st.integers(1, 8).map(lambda ulps: _just_below(binade, ulps)),
        )
    )
    top = total / n - 1e-9
    floor = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, top),
            st.sampled_from([1e-9, 3e-9, 1e-8, 3e-8, 1e-7]).map(
                lambda gap: max(0.0, total / n - gap)
            ),
        )
    )
    if draw(st.booleans()):  # at_cap
        steep = SensitivityModel(
            name="steep", coefficients=(1.0, draw(st.floats(0.5, 4.0)))
        )
        models = [steep] + draw(st.lists(_models(flat=True), min_size=n - 1, max_size=n - 1))
    else:
        models = draw(st.lists(_models(), min_size=n, max_size=n))
    return AllocationProblem(models=tuple(models), total=total, min_weight=floor)


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_matches_scipy_finite_differences(problem):
    assert_same_solve(problem)


def test_cap_flips_the_step():
    """The at-cap case of the strategy, pinned: the steep app ends at
    the cap, where scipy steps backwards."""
    steep = SensitivityModel(name="steep", coefficients=(1.0, 2.0))
    flat = SensitivityModel(name="flat", coefficients=(2.0, 0.0))
    problem = AllocationProblem(models=(steep, flat, flat), min_weight=0.1)
    weights = _solve_slsqp(problem, {})
    assert weights[0] == max(weights) > 0.79
    assert_same_solve(problem)


# -- the Figure 10 co-run's instances ---------------------------------------


def test_fig10_instances_match():
    problems = fig10_problems("instances")
    assert len(problems) == 633
    for problem in problems:
        assert_same_solve(problem)
