"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def tail_percentile(min_samples: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile with ``beyond`` samples above it.

    Holds for every run of at least ``min_samples`` samples: with the
    nearest-rank rule below, ``n - ceil(p/100 * n)`` samples lie beyond
    percentile ``p``, which is at least ``beyond`` whenever
    ``p <= 100 * (1 - beyond / n)``, and that bound only grows with ``n``.
    """
    if min_samples <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail")
    return math.floor(100 * (min_samples - beyond) / min_samples)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond_count(values: Sequence[float], pct: float) -> int:
    """How many samples sit strictly after the ``pct`` nearest-rank index."""
    return len(values) - max(1, math.ceil(pct / 100 * len(values)))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

