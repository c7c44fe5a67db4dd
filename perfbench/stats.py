"""Percentiles and the sample-count rule the benchmark reports timings by.

A timing is reported as its median plus one tail percentile, and a tail
percentile is only meaningful when at least ``MIN_BEYOND`` samples lie
beyond it: p95 needs 200 samples, p75 needs 40.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_needed(p: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond ``p``."""
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p!r}")
    # Round before ceil so 10 / 0.05 does not become 200.00000000000003.
    return math.ceil(round(MIN_BEYOND * 100.0 / (100.0 - p), 9))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
