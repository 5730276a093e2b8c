"""Shared utilities: deterministic RNG, text processing and statistics."""

from repro.util.rng import SeededRng
from repro.util.text import jaccard, normalize, tokenize
from repro.util.zipf import ZipfSampler, fit_power_law
from repro.util.stats import (
    chapman_estimate,
    cumulative_share,
    gini,
    lincoln_petersen_estimate,
    wilson_interval,
)

__all__ = [
    "SeededRng",
    "tokenize",
    "normalize",
    "jaccard",
    "ZipfSampler",
    "fit_power_law",
    "cumulative_share",
    "gini",
    "lincoln_petersen_estimate",
    "chapman_estimate",
    "wilson_interval",
]
