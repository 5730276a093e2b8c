"""The query-result cache behind the serving frontend.

A production search stack answers the overwhelming majority of its
traffic from caches: query streams are Zipf-distributed, so a small
LRU over normalized query strings absorbs the head of the distribution
while the long tail falls through to the index.  This cache is that
layer for the reproduction.

Entries are keyed on ``(normalized query, k)`` and stamped with the
*corpus generation* -- a counter the frontend bumps from an ingest
listener on every new document.  A stamped entry whose generation no
longer matches is treated as a miss and dropped on the next lookup, so
a write anywhere in the content store (crawl, surfacing, webtables,
vertical registration) can never serve a stale result list.  Expiry is
lazy: bumping the generation is O(1) regardless of cache size, which
matters during bulk ingestion (a crawl bumps it once per page).  Nothing
expires on a timer: every write already makes every entry stale, and the
cache never reads a clock.  The frontend maps each raw request text to
its key once, so a hit reaches :meth:`QueryResultCache.get` without
tokenizing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.search.engine import SearchResult
from repro.util.text import tokenize


def normalize_query(query: str) -> str:
    """The cache's query key: the engine's own token stream, joined.

    Two query strings that tokenize identically (case, punctuation,
    whitespace) are the same search by construction, so they must share
    one cache entry.
    """
    return " ".join(tokenize(query))


@dataclass
class _Entry:
    results: tuple[SearchResult, ...]
    generation: int


class QueryResultCache:
    """A thread-safe LRU cache of ranked result lists.

    ``max_entries=0`` disables storage entirely (every lookup is a miss),
    which gives the frontend an honest "uncached" mode without a second
    code path.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def generation(self) -> int:
        """The corpus generation new entries are stamped with."""
        return self._generation

    def bump_generation(self) -> None:
        """Invalidate every live entry in O(1) (stale entries are dropped
        lazily on their next lookup)."""
        with self._lock:
            self._generation += 1

    def advance_generation(self, to: int) -> None:
        """Fast-forward the generation counter (never backwards).

        Used when a service is restored from a snapshot: the restored
        cache starts past every generation the snapshotted process ever
        stamped, so a pre-snapshot ranking carried across the restart
        (``put(generation=...)``) can never be served as fresh.
        """
        with self._lock:
            if to > self._generation:
                self._generation = to

    def get(self, query_key: str, k: int) -> tuple[SearchResult, ...] | None:
        """The cached ranking, or ``None`` on a miss or a stale entry."""
        entry_key = (query_key, k)
        with self._lock:
            entry = self._entries.get(entry_key)
            if entry is None:
                self.misses += 1
                return None
            if entry.generation != self._generation:
                del self._entries[entry_key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(entry_key)
            self.hits += 1
            return entry.results

    def put(
        self,
        query_key: str,
        k: int,
        results: Sequence[SearchResult],
        generation: int | None = None,
    ) -> None:
        """Store a ranking (LRU-evicting).

        Callers that computed ``results`` outside the lock must pass the
        ``generation`` they observed *before* ranking: if a write landed
        while the search ran, the entry is stored already-stale instead
        of poisoning the cache with a pre-write ranking stamped fresh.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[(query_key, k)] = _Entry(
                results=tuple(results),
                generation=self._generation if generation is None else generation,
            )
            self._entries.move_to_end((query_key, k))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int | float]:
        """Counters plus the derived hit rate (deterministic ordering)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "evictions": self.evictions,
            "generation": self._generation,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "misses": self.misses,
        }
