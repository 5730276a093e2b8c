"""Statistics helpers: concentration curves and capture-recapture estimates.

The long-tail experiment (E1) needs cumulative-share curves over form ranks,
and the coverage-estimation experiment (E7) needs capture-recapture
estimators with confidence statements of the form the paper asks for:
"with probability M%, more than N% of the site's content has been exposed".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def cumulative_share(values: Sequence[float]) -> list[float]:
    """Cumulative share of the total, after sorting values descending.

    ``cumulative_share([5, 3, 2])`` -> ``[0.5, 0.8, 1.0]``.  Returns an empty
    list for empty input and a list of zeros when the total is zero.
    """
    ordered = sorted(values, reverse=True)
    total = sum(ordered)
    if not ordered:
        return []
    if total == 0:
        return [0.0] * len(ordered)
    shares = []
    running = 0.0
    for value in ordered:
        running += value
        shares.append(running / total)
    return shares


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches the "linear" (inclusive) convention: the serving layer uses
    this for latency p50/p90/p99.  Raises ``ValueError`` on empty input
    or an out-of-range ``q``.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (q / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(ordered[lower])
    low_value, high_value = ordered[lower], ordered[upper]
    if low_value == high_value:
        # Skip the interpolation: a*(1-f) + a*f can drift an ulp off a.
        return float(low_value)
    fraction = position - lower
    return low_value * (1.0 - fraction) + high_value * fraction


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = equal, ->1 = concentrated)."""
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((index + 1) * value for index, value in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


@dataclass(frozen=True)
class CaptureRecaptureEstimate:
    """Population-size estimate from two capture occasions."""

    estimate: float
    first_sample: int
    second_sample: int
    recaptured: int
    std_error: float


def lincoln_petersen_estimate(
    first_sample: int, second_sample: int, recaptured: int
) -> CaptureRecaptureEstimate:
    """Classic Lincoln-Petersen estimator ``N = n1 * n2 / m``.

    Raises ``ValueError`` when there are no recaptures (the estimator is
    undefined); callers should fall back to :func:`chapman_estimate` which
    tolerates zero recaptures.
    """
    if recaptured <= 0:
        raise ValueError("Lincoln-Petersen requires at least one recapture")
    estimate = first_sample * second_sample / recaptured
    variance = (
        first_sample
        * second_sample
        * (first_sample - recaptured)
        * (second_sample - recaptured)
        / (recaptured**3)
        if recaptured > 0
        else float("inf")
    )
    return CaptureRecaptureEstimate(
        estimate=estimate,
        first_sample=first_sample,
        second_sample=second_sample,
        recaptured=recaptured,
        std_error=math.sqrt(max(0.0, variance)),
    )


def chapman_estimate(
    first_sample: int, second_sample: int, recaptured: int
) -> CaptureRecaptureEstimate:
    """Chapman's bias-corrected capture-recapture estimator.

    ``N = (n1 + 1)(n2 + 1)/(m + 1) - 1``.  Defined even with zero recaptures,
    which matters early in a surfacing run when the two probe samples barely
    overlap.
    """
    if first_sample < 0 or second_sample < 0 or recaptured < 0:
        raise ValueError("sample sizes must be non-negative")
    if recaptured > min(first_sample, second_sample):
        raise ValueError("recaptured cannot exceed either sample size")
    estimate = (first_sample + 1) * (second_sample + 1) / (recaptured + 1) - 1
    variance = (
        (first_sample + 1)
        * (second_sample + 1)
        * (first_sample - recaptured)
        * (second_sample - recaptured)
        / ((recaptured + 1) ** 2 * (recaptured + 2))
    )
    return CaptureRecaptureEstimate(
        estimate=estimate,
        first_sample=first_sample,
        second_sample=second_sample,
        recaptured=recaptured,
        std_error=math.sqrt(max(0.0, variance)),
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Used to turn "we saw k of n sampled records already surfaced" into the
    probabilistic coverage statement the paper asks for.
    """
    if trials <= 0:
        return (0.0, 1.0)
    if successes < 0 or successes > trials:
        raise ValueError("successes must be between 0 and trials")
    proportion = successes / trials
    denominator = 1 + z * z / trials
    center = proportion + z * z / (2 * trials)
    margin = z * math.sqrt(
        proportion * (1 - proportion) / trials + z * z / (4 * trials * trials)
    )
    low = (center - margin) / denominator
    high = (center + margin) / denominator
    return (max(0.0, low), min(1.0, high))
