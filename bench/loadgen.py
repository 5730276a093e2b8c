"""Deterministic request streams.

CONTRACT (see ``bench/README.md``):

- Request ``i`` of a workload is a pure function of ``(seed, workload, i)``
  and the query populations: every draw is built from
  ``unit(seed, workload, label, n)``, a hash, so there is no RNG state to
  share or to advance, and request ``i`` regenerated alone equals request
  ``i`` of the full stream.
- Draws are stratified (``StratifiedDraws``): every block of ``BLOCK``
  consecutive requests covers [0, 1) evenly, so two seeds ask for nearly
  the same multiset of queries in another order.  Modelled from per-query
  costs over thirty seeds, 300 ``federated_mixed`` requests cost
  2.63-3.06 ms each with independent draws (how many live probes a seed
  happens to draw) and 2.73-2.94 ms stratified: the spread between seeds
  should be the machine's noise, not the dice.
- No wall clock, no process id, no dict-order dependence.
- The corpus is a fixed data set (``WORLD_SEED``); ``--seed`` moves the
  traffic drawn over it, not the documents.  Worlds of different seeds
  differ by +-20 % in size and surfacing cost, which would put the
  seed-to-seed spread of every timing above its bound.
- Populations come from the system's own public generators
  (``WorkloadGenerator.population``, ``structured_queries``,
  ``table_lookup_queries``); this module only draws ranks over them.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

#: The simulated web every workload but ``surface_cold`` is built from.
WORLD_SEED = 7
#: Seed of ``WorkloadGenerator``'s rank shuffle: which queries are hot is
#: part of the data set, not of the traffic.
POPULATION_SEED = 7
#: ``surface_cold`` surfaces web ``SURFACE_WEB_SEED_BASE + j`` in pass ``j``.
SURFACE_WEB_SEED_BASE = 1000

ZIPF_EXPONENT = 1.05
#: Requests per stratification block (see ``StratifiedDraws``).
BLOCK = 100
MODE_KEYWORD = "keyword"
MODE_STRUCTURED = "structured"
MODE_TABLE = "table"
#: Cumulative 60 / 25 / 15 mode mix of ``federated_mixed``.
MODE_MIX = ((0.60, MODE_KEYWORD), (0.85, MODE_STRUCTURED), (1.0, MODE_TABLE))


def unit(seed: int, workload: str, label: str, index: int) -> float:
    """A uniform draw in [0, 1) named by its four coordinates."""
    digest = hashlib.blake2b(
        f"{seed}/{workload}/{label}/{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class StratifiedDraws:
    """Draws in [0, 1), one per request index, stratified by block.

    Block ``b`` holds indices ``b * BLOCK .. b * BLOCK + BLOCK - 1``.  A
    permutation of the block, fixed by ``(seed, workload, label, b)``,
    gives each index a stratum ``t``; its draw is ``(t + jitter) / BLOCK``
    with ``jitter = unit(seed, workload, label, index)``.  So each block
    has exactly one draw in each ``1 / BLOCK`` wide slice of [0, 1)."""

    def __init__(self, seed: int, workload: str, label: str) -> None:
        self.seed = seed
        self.workload = workload
        self.label = label
        #: Permutations by block: a memo, never a source of state (a miss
        #: recomputes the same list).
        self._strata: dict[int, list[int]] = {}

    def draw(self, index: int) -> float:
        block, position = divmod(index, BLOCK)
        strata = self._strata.get(block)
        if strata is None:
            strata = self._strata[block] = shuffled(
                self.seed, self.workload, f"{self.label}/strata/{block}", range(BLOCK)
            )
        jitter = unit(self.seed, self.workload, self.label, index)
        return (strata[position] + jitter) / BLOCK


class ZipfRanks:
    """Inverse-CDF lookup of 0-based ranks with weight ``1 / (rank + 1) ** s``."""

    def __init__(self, size: int, exponent: float = ZIPF_EXPONENT) -> None:
        if size <= 0:
            raise ValueError(f"population must not be empty, got {size}")
        weights = [1.0 / (rank**exponent) for rank in range(1, size + 1)]
        total = sum(weights)
        running = 0.0
        self._cumulative: list[float] = []
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0

    def rank(self, draw: float) -> int:
        return bisect_left(self._cumulative, draw)


@dataclass(frozen=True)
class Request:
    """One request of a stream: what to ask, and whether to probe live."""

    mode: str
    text: str
    live: bool = False


class KeywordStream:
    """Zipf(1.05) draws over the ranked keyword population."""

    def __init__(self, seed: int, workload: str, population: Sequence[str]) -> None:
        self.population = list(population)
        self._ranks = ZipfRanks(len(self.population))
        self._draws = StratifiedDraws(seed, workload, "rank")

    def request(self, index: int) -> Request:
        return Request(MODE_KEYWORD, self.population[self._ranks.rank(self._draws.draw(index))])

    def requests(self, count: int) -> list[Request]:
        return [self.request(index) for index in range(count)]


class MixedStream:
    """The 60/25/15 keyword / structured / table-lookup stream; structured
    requests carry the live flag (they are the ones a form can bind).  One
    stratified draw picks the mode, and its position inside the mode's
    share of [0, 1) picks the rank, so a block holds 60/25/15 requests whose
    ranks are spread evenly over each population's Zipf distribution."""

    def __init__(
        self,
        seed: int,
        workload: str,
        keyword: Sequence[str],
        structured: Sequence[str],
        table: Sequence[str],
    ) -> None:
        self._populations = {
            MODE_KEYWORD: list(keyword),
            MODE_STRUCTURED: list(structured),
            MODE_TABLE: list(table),
        }
        self._ranks = {
            mode: ZipfRanks(len(population))
            for mode, population in self._populations.items()
        }
        self._draws = StratifiedDraws(seed, workload, "mode-rank")

    def request(self, index: int) -> Request:
        draw = self._draws.draw(index)
        lower = 0.0
        for upper, mode in MODE_MIX:
            if draw < upper:
                break
            lower = upper
        rank = self._ranks[mode].rank((draw - lower) / (upper - lower))
        return Request(mode, self._populations[mode][rank], live=mode == MODE_STRUCTURED)

    def requests(self, count: int) -> list[Request]:
        return [self.request(index) for index in range(count)]


def shuffled(seed: int, workload: str, label: str, items: Sequence) -> list:
    """``items`` in an order that depends only on ``(seed, workload, label)``."""
    keyed = [(unit(seed, workload, label, index), index) for index in range(len(items))]
    return [items[index] for _draw, index in sorted(keyed)]


def inputs_sha256(payload: object) -> str:
    """Digest of a run's generated inputs (canonical JSON)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
