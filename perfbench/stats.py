"""Order statistics shared by every workload (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: The tail percentile reported when enough samples lie beyond it.
TAIL_WANTED = 99.0
#: A tail percentile is reported only when at least this many samples lie
#: strictly beyond it; otherwise the highest percentile that qualifies is.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; the rank is ceil(q*n)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    # The epsilon keeps float noise from pushing an exact rank up by one.
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile <= :data:`TAIL_WANTED` with
    :data:`TAIL_SAMPLES` samples past it.

    With ``n`` samples, the nearest-rank percentile ``q`` has
    ``n - ceil(q*n/100)`` samples above it; the result is the largest
    ``q`` (to 0.1) keeping that count at ``TAIL_SAMPLES`` or more.  With
    ``TAIL_SAMPLES`` samples or fewer no tail qualifies: the median is
    returned then, and the caller reports the sample count beside it.
    """
    if n <= TAIL_SAMPLES:
        return 50.0
    best = 100.0 * (n - TAIL_SAMPLES) / n
    q = min(TAIL_WANTED, math.floor(best * 10.0) / 10.0)
    return max(50.0, q)


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile used, value)`` of the qualifying tail of ``values``."""
    q = tail_percentile(len(values))
    return q, percentile(values, q)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)
