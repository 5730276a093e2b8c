"""The few statistics the harness and ``compare`` share."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
TAIL_CAP = 99.0


def tail_percentile(sample_count: int) -> float:
    """The highest percentile (capped at p99) that still has
    ``MIN_SAMPLES_BEYOND`` samples beyond it; 50.0 when even the median of
    the upper half is not supported."""
    if sample_count <= 0:
        raise ValueError("no samples")
    supported = 100.0 * (1.0 - MIN_SAMPLES_BEYOND / sample_count)
    return max(50.0, min(TAIL_CAP, supported))


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def p50_and_tail(latencies: Sequence[float]) -> tuple[float, float]:
    """The median and the ``tail_percentile`` of a latency sample."""
    ordered = sorted(latencies)
    return percentile(ordered, 50.0), percentile(ordered, tail_percentile(len(ordered)))


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (what the
    driver computes over ten runs); 0.0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else 0.0
