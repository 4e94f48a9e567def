"""The Eq. 2 weight optimiser.

For applications ``A = {a_1 .. a_n}`` sending flows through one switch
output port, find weights ``W = {w_1 .. w_n}``:

    minimize    sum_i D_i(w_i)
    subject to  sum_i w_i = C_saba,   w_i >= w_min            (Eq. 2)

where ``D_i`` are the fitted sensitivity models and ``C_saba`` is the
link-capacity share reserved for Saba-compliant applications.

:func:`optimize_weights` is the one entry point.  It picks the method
from the instance and reports it as ``stats["solver"]``:

* ``"direct"`` -- one application gets the whole budget;
* ``"equal"`` -- the floor uses the whole budget, so the equal split is
  the only feasible point; KKT also reports it when no model gains
  from weight even at the cap and it falls back to the equal split;
* ``"kkt"`` -- every model is convex and decreasing on the feasible
  box: water-filling on the KKT conditions.  The optimum equalises
  marginal utilities, ``D_i'(w_i) = -lambda`` with box clamping, so an
  outer root-find on ``lambda`` plus inner bisections on each ``D_i'``
  solves the problem;
* ``"slsqp"`` -- otherwise scipy's Sequential Least Squares
  Programming, the algorithm the paper uses via NLopt (Section 7.2),
  which handles non-convex polynomial models.

A KKT solve costs 4-24 Brent probes, each 30 bisection steps of plain
Python per application whose root lies inside the box; apps clamped
to the floor or the cap cost one comparison.  SLSQP's cost grows with
its iteration count and with ``n``: each gradient makes 2n model
predictions and n sums of n terms (see ``_solve_slsqp``).  On a
2-vCPU VM, on the Figure 10 co-run, whose ports carry 2-7 applications
when they take KKT, a KKT solve averaged 0.4 ms against 1.3-1.5 ms
for SLSQP.  With Figure 12's synthetic models, a 256-app solve, whose
apps mostly clamp, took ~15 ms with either method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AllocationError
from repro.core.sensitivity import SensitivityModel

#: Default weight floor: no application is starved below 10 % of the
#: Saba share (WFQ "is not subject to starvation", Section 5.2; the
#: floor also hedges against model error in the starvation region and
#: bounds the worst-case slowdown of de-prioritised applications).
#: The controller scales the floor down when more than ~1/floor
#: applications share a port.
DEFAULT_MIN_WEIGHT = 0.10


@dataclass(frozen=True)
class AllocationProblem:
    """One Eq. 2 instance (a single switch output port)."""

    models: Tuple[SensitivityModel, ...]
    total: float = 1.0
    min_weight: float = DEFAULT_MIN_WEIGHT

    def __post_init__(self) -> None:
        if not self.models:
            raise AllocationError("no applications to allocate for")
        if not 0.0 < self.total <= 1.0:
            raise AllocationError(f"total must be in (0, 1]: {self.total}")
        if self.min_weight < 0:
            raise AllocationError(f"negative min_weight: {self.min_weight}")
        if self.min_weight * len(self.models) > self.total + 1e-12:
            raise AllocationError(
                f"{len(self.models)} applications need at least "
                f"{self.min_weight * len(self.models):.3f} capacity, "
                f"but only {self.total} is available"
            )

    def objective(self, weights: Sequence[float]) -> float:
        """Total predicted slowdown at ``weights``."""
        return sum(m.predict(w) for m, w in zip(self.models, weights))


def equal_split(problem: AllocationProblem) -> List[float]:
    """The max-min strawman: every application gets the same share."""
    n = len(problem.models)
    return [problem.total / n] * n


def optimize_weights(
    models: Sequence[SensitivityModel],
    total: float = 1.0,
    min_weight: float = DEFAULT_MIN_WEIGHT,
    stats: Optional[dict] = None,
) -> List[float]:
    """Solve Eq. 2; returns one weight per model, summing to ``total``.

    ``stats``, when given, is filled in place with solver telemetry:
    ``{"solver": <method used>, "iterations": <int>}`` -- consumed by
    the observability layer's ``solve.end`` events.
    """
    problem = AllocationProblem(
        models=tuple(models), total=total, min_weight=min_weight
    )
    if stats is None:
        stats = {}
    n = len(problem.models)
    if n == 1:
        stats.update(solver="direct", iterations=0)
        return [problem.total]
    if problem.min_weight * n >= problem.total - 1e-9:
        stats.update(solver="equal", iterations=0)
        return equal_split(problem)
    hi = problem.total - (n - 1) * problem.min_weight
    if all(
        m.is_convex_decreasing(problem.min_weight, hi)
        for m in problem.models
    ):
        return _solve_kkt(problem, stats)
    return _solve_slsqp(problem, stats)


# -- KKT water-filling ---------------------------------------------------------
#
# At the optimum of Eq. 2 with convex decreasing models, every
# non-clamped application sits where its marginal benefit equals a
# shared multiplier: D_i'(w_i) = -lambda.  The solver inverts each
# marginal by bisection over the model's bound derivative, one app at
# a time in plain Python, and root-finds lambda to meet the capacity
# constraint -- O(n) per lambda probe.  Plain Python beats a numpy
# call per step on the few apps a port carries in the experiments;
# with every app's root interior, a bisection vectorised across the
# port wins from ~50 apps (DESIGN.md section 3).  Each float operation
# is the vectorised bisection's, in its order, so the weights match it
# bit for bit (tests/core/test_kkt_oracle.py keeps it as the oracle).


def _solve_kkt(problem: AllocationProblem, stats: dict) -> List[float]:
    """Brent on the shared marginal ``lambda`` over per-app bisections."""
    n = len(problem.models)
    lo_w = problem.min_weight
    hi_w = problem.total - (n - 1) * problem.min_weight
    marginals = []
    for model in problem.models:
        derivative = model.bind_derivative()
        marginals.append((derivative, derivative(lo_w), derivative(hi_w)))
    probes = 0

    def weights_at(lam: float) -> List[float]:
        """Solve ``D_i'(w_i) = -lam`` per model by bisection.

        For convex decreasing ``D``, ``D'`` is increasing, so the root is
        unique; outside the bracket the answer clamps to the boundary.
        """
        target = -lam
        weights = []
        for derivative, d_lo, d_hi in marginals:
            if d_hi <= target:  # cap: gain still above
                weights.append(hi_w)
            elif d_lo >= target:  # floor: gain already below
                weights.append(lo_w)
            else:
                a, b = lo_w, hi_w
                for _ in range(30):
                    mid = 0.5 * (a + b)
                    if derivative(mid) < target:
                        a = mid
                    else:
                        b = mid
                weights.append(0.5 * (a + b))
        return weights

    def excess(lam: float) -> float:
        nonlocal probes
        probes += 1
        # numpy's pairwise sum, as the vectorised bisection totalled:
        # Python's ``sum`` associates differently (and compensates on
        # CPython >= 3.12).
        return float(np.array(weights_at(lam)).sum()) - problem.total

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
    # is a full inner solve -- this is the hot path of the Figure 12
    # controller-overhead measurement.
    from scipy import optimize as _sopt

    lam_star = _sopt.brentq(
        excess, 0.0, lam_hi, xtol=1e-6, rtol=1e-6, maxiter=60
    )
    weights = weights_at(lam_star)
    stats.update(solver="kkt", iterations=probes)
    return _renormalise(weights, problem)


# -- SLSQP -----------------------------------------------------------------------
#
# Given no ``jac``, scipy differences the objective and the capacity
# constraint through ``approx_derivative``, re-evaluating all n
# predictions for each of the n coordinates.  ``gradient`` and
# ``residual_jacobian`` return exactly scipy's 2-point numbers (step,
# bound handling and quotient) but move one prediction at a time.  The
# analytic derivative would move the weights (DESIGN.md section 5f).

#: scipy's default absolute step for SLSQP's finite differences
#: (``optimize.minimize``'s ``eps`` option), ``sqrt(eps)``.
_FD_STEP = float(np.sqrt(np.finfo(float).eps))


def _fd_step(w: float, lo: float, hi: float) -> float:
    """scipy's forward-difference step at ``w`` in the box ``[lo, hi]``.

    ``+h`` where ``w + h`` stays in the box and ``-h`` where it leaves;
    where the box is narrower than ``h``, the distance to the farther
    bound.
    """
    lower, upper = w - lo, hi - w
    if _FD_STEP <= max(lower, upper):
        moved = w + _FD_STEP
        return -_FD_STEP if moved < lo or moved > hi else _FD_STEP
    return upper if upper >= lower else -lower


def _solve_slsqp(problem: AllocationProblem, stats: dict) -> List[float]:
    from scipy import optimize  # local import: keep scipy optional at import time

    models = problem.models
    n = len(models)
    lo = problem.min_weight
    hi = problem.total - (n - 1) * problem.min_weight
    x0 = np.full(n, problem.total / n)
    bounds = [(lo, hi)] * n

    def objective(x: np.ndarray) -> float:
        return float(sum(m.predict(float(w)) for m, w in zip(problem.models, x)))

    def residual(x: np.ndarray) -> float:
        return float(np.sum(x) - problem.total)

    def gradient(x: np.ndarray) -> np.ndarray:
        # Each moved objective re-sums the whole prediction list in
        # model order, as ``objective`` does: ``sum`` compensates on
        # CPython >= 3.12, so a running total would not be bit-equal.
        ws = x.tolist()
        predictions = [m.predict(w) for m, w in zip(models, ws)]
        f0 = float(sum(predictions))
        grad = np.empty(n)
        for i, w in enumerate(ws):
            moved = w + _fd_step(w, lo, hi)
            kept = predictions[i]
            predictions[i] = models[i].predict(moved)
            grad[i] = (float(sum(predictions)) - f0) / (moved - w)
            predictions[i] = kept
        return grad

    def residual_jacobian(x: np.ndarray) -> np.ndarray:
        x = np.clip(x, lo, hi)
        r0 = residual(x)
        jac = np.empty(n)
        for i, w in enumerate(x.tolist()):
            x[i] = w + _fd_step(w, lo, hi)
            jac[i] = (residual(x) - r0) / (x[i] - w)
            x[i] = w
        return jac

    result = optimize.minimize(
        objective,
        x0,
        jac=gradient,
        method="SLSQP",
        bounds=bounds,
        constraints=[{"type": "eq", "fun": residual, "jac": residual_jacobian}],
        options={"maxiter": 200, "ftol": 1e-9},
    )
    if not result.success and not np.isfinite(result.fun):
        raise AllocationError(f"SLSQP failed: {result.message}")
    stats.update(solver="slsqp", iterations=int(result.nit))
    return _renormalise([float(w) for w in result.x], problem)


# -- shared ------------------------------------------------------------------------


def _renormalise(weights: List[float], problem: AllocationProblem) -> List[float]:
    """Clamp to the floor and rescale the slack so weights sum exactly."""
    floor = problem.min_weight
    w = np.maximum(np.asarray(weights, dtype=float), floor)
    slack = w - floor
    budget = problem.total - floor * len(w)
    total_slack = float(slack.sum())
    if budget <= 0 or total_slack <= 0:
        out = np.full(len(w), problem.total / len(w))
    else:
        out = floor + slack * (budget / total_slack)
    return [float(v) for v in out]
