"""QueryResultCache: LRU + TTL + generation invalidation semantics."""

from __future__ import annotations

import pytest

from repro.search.engine import SearchResult
from repro.serve.cache import QueryResultCache, normalize_query


def result(doc_id: int, score: float = 1.0) -> SearchResult:
    return SearchResult(
        doc_id=doc_id,
        url=f"http://host/{doc_id}",
        host="host",
        title=f"doc {doc_id}",
        score=score,
        source="surface",
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestNormalizeQuery:
    def test_case_whitespace_punctuation_fold_to_one_key(self):
        assert normalize_query("Red  TOYOTA, Camry!") == normalize_query("red toyota camry")

    def test_distinct_queries_stay_distinct(self):
        assert normalize_query("red toyota") != normalize_query("blue toyota")


class TestLru:
    def test_hit_returns_stored_ranking(self):
        cache = QueryResultCache(max_entries=4)
        ranking = (result(1, 2.0), result(2, 1.0))
        cache.put("q", 10, ranking)
        assert cache.get("q", 10) == ranking
        assert cache.hits == 1 and cache.misses == 0

    def test_same_query_different_k_are_different_entries(self):
        cache = QueryResultCache(max_entries=4)
        cache.put("q", 10, (result(1),))
        assert cache.get("q", 5) is None
        assert cache.get("q", 10) is not None

    def test_least_recently_used_entry_is_evicted(self):
        cache = QueryResultCache(max_entries=2)
        cache.put("a", 10, (result(1),))
        cache.put("b", 10, (result(2),))
        assert cache.get("a", 10) is not None  # refresh "a"
        cache.put("c", 10, (result(3),))  # evicts "b"
        assert cache.get("b", 10) is None
        assert cache.get("a", 10) is not None
        assert cache.get("c", 10) is not None
        assert cache.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = QueryResultCache(max_entries=0)
        cache.put("q", 10, (result(1),))
        assert cache.stats()["entries"] == 0
        assert cache.get("q", 10) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(max_entries=-1)


class TestTtl:
    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = QueryResultCache(max_entries=4, ttl_seconds=10.0, clock=clock)
        cache.put("q", 10, (result(1),))
        clock.advance(9.9)
        assert cache.get("q", 10) is not None
        clock.advance(0.2)
        assert cache.get("q", 10) is None
        assert cache.expirations == 1

    def test_no_ttl_means_no_expiry(self):
        clock = FakeClock()
        cache = QueryResultCache(max_entries=4, ttl_seconds=None, clock=clock)
        cache.put("q", 10, (result(1),))
        clock.advance(1e9)
        assert cache.get("q", 10) is not None

    def test_non_positive_ttl_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(ttl_seconds=0.0)


class TestGenerationInvalidation:
    def test_bump_invalidates_every_entry(self):
        cache = QueryResultCache(max_entries=4)
        cache.put("a", 10, (result(1),))
        cache.put("b", 10, (result(2),))
        cache.bump_generation()
        assert cache.get("a", 10) is None
        assert cache.get("b", 10) is None
        assert cache.invalidations == 2

    def test_fresh_entry_after_bump_is_served(self):
        cache = QueryResultCache(max_entries=4)
        cache.put("a", 10, (result(1),))
        cache.bump_generation()
        cache.put("a", 10, (result(1), result(2)))
        assert cache.get("a", 10) == (result(1), result(2))

    def test_put_with_pre_search_generation_is_born_stale(self):
        """A ranking computed before a write raced in must not be served:
        the caller passes the generation it observed before searching."""
        cache = QueryResultCache(max_entries=4)
        observed = cache.generation
        cache.bump_generation()  # a write lands while the search runs
        cache.put("q", 10, (result(1),), generation=observed)
        assert cache.get("q", 10) is None

    def test_stats_rendering_is_deterministic(self):
        cache = QueryResultCache(max_entries=4)
        cache.put("a", 10, (result(1),))
        cache.get("a", 10)
        cache.get("zzz", 10)
        stats = cache.stats()
        assert list(stats) == sorted(stats)
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
