"""Zipf / power-law sampling and fitting.

The paper's long-tail argument (Section 3.2) rests on the query stream being
a power law with a heavy tail.  The query-log generator samples query
frequencies from a Zipf distribution, and the analysis code fits the
rank-frequency exponent to verify the generated stream has the right shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.util.rng import SeededRng


class ZipfSampler:
    """Sample ranks 1..n with probability proportional to ``1 / rank**s``."""

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cumulative: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        # Guard against floating point drift on the last bucket.
        self._cumulative[-1] = 1.0

    def sample_rank(self, rng: SeededRng) -> int:
        """Draw one 1-based rank."""
        value = rng.random()
        low, high = 0, self.n - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < value:
                low = mid + 1
            else:
                high = mid
        return low + 1

    def sample_counts(self, rng: SeededRng, total: int) -> list[int]:
        """Draw ``total`` samples and return per-rank counts (index 0 = rank 1)."""
        counts = [0] * self.n
        for _ in range(total):
            counts[self.sample_rank(rng) - 1] += 1
        return counts


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``log(frequency) = intercept - exponent * log(rank)``."""

    exponent: float
    intercept: float
    r_squared: float


def fit_power_law(frequencies: Sequence[float]) -> PowerLawFit:
    """Fit a rank-frequency power law to a descending frequency list.

    ``frequencies`` must already be sorted in descending order (rank 1 first).
    Zero frequencies are ignored.  Returns the fitted exponent (positive for
    a decaying power law), intercept and the R^2 of the log-log regression.
    """
    points = [
        (math.log(rank), math.log(freq))
        for rank, freq in enumerate(frequencies, start=1)
        if freq > 0
    ]
    if len(points) < 2:
        raise ValueError("need at least two non-zero frequencies to fit")
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    ss_xx = sum((x - mean_x) ** 2 for x, _ in points)
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    ss_yy = sum((y - mean_y) ** 2 for _, y in points)
    if ss_xx == 0:
        raise ValueError("degenerate rank axis")
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    if ss_yy == 0:
        r_squared = 1.0
    else:
        r_squared = (ss_xy * ss_xy) / (ss_xx * ss_yy)
    return PowerLawFit(exponent=-slope, intercept=intercept, r_squared=r_squared)


def tail_mass(frequencies: Sequence[float], head_size: int) -> float:
    """Fraction of total volume carried by ranks beyond ``head_size``.

    ``frequencies`` is a descending rank-frequency list.  A heavy tail means
    this stays large even for a sizeable head.
    """
    total = sum(frequencies)
    if total == 0:
        return 0.0
    head = sum(frequencies[:head_size])
    return (total - head) / total
