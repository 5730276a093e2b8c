"""Deterministic random number generation.

Every stochastic component of the reproduction (data generation, site
generation, query-log sampling, probing) draws from a :class:`SeededRng`
so that experiments are reproducible run-to-run.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A thin, explicit wrapper around :class:`random.Random`.

    The wrapper exists so that (a) every component receives its randomness
    through an injected object rather than the global module state, and
    (b) child generators can be derived deterministically by name, which
    keeps independent subsystems reproducible even when the order of calls
    between them changes.
    """

    def __init__(self, seed: int | str = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    def child(self, name: str) -> "SeededRng":
        """Derive an independent generator keyed by ``name``.

        Two children with different names produce independent streams;
        the same name always produces the same stream.
        """
        return SeededRng(f"{self._seed}/{name}")

    # -- passthroughs -----------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements (``k`` is clamped to ``len(items)``)."""
        k = min(k, len(items))
        return self._random.sample(list(items), k)

    def sample_indices(self, total: int, k: int) -> list[int]:
        """Sample ``k`` distinct indices from ``range(total)`` without
        materializing the range (``k`` is clamped to ``total``)."""
        return self._random.sample(range(total), min(k, total))

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a new, shuffled copy of ``items``."""
        copy = list(items)
        self._random.shuffle(copy)
        return copy

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with probability proportional to its weight."""
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def bounded_int_lognormal(self, mu: float, sigma: float, low: int, high: int) -> int:
        """A log-normal draw rounded to int and clamped into [low, high].

        Used for site/database sizes, which the paper describes as highly
        skewed (few huge sites, many small ones).
        """
        value = int(round(self._random.lognormvariate(mu, sigma)))
        return max(low, min(high, value))

    def maybe(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._random.random() < probability
