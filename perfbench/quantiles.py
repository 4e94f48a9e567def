"""Order statistics the benchmark reports, with their sample-count rule.

A percentile is reported only when at least :data:`TAIL_SAMPLES`
samples lie beyond it: p50 needs 20 samples, p99 needs 1,000.  A
timing with fewer samples has no trustworthy tail, so asking for one is
an error rather than a quietly optimistic number.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def min_samples(q: float) -> int:
    """Fewest samples for which the ``q``-quantile has
    :data:`TAIL_SAMPLES` samples beyond it (``q`` in ``(0, 1)``)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    # round() absorbs float noise such as 10 / (1 - 0.99) = 1000.0000000000009.
    return math.ceil(round(TAIL_SAMPLES / (1.0 - q), 9))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` by linear interpolation.

    Raises :class:`ValueError` when fewer than :func:`min_samples`
    values are given.
    """
    need = min_samples(q)
    if len(values) < need:
        raise ValueError(
            f"p{q * 100:g} needs at least {need} samples, got {len(values)}"
        )
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
