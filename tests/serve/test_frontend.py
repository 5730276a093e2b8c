"""QueryFrontend behavior: serving, admission control, shedding, stats."""

from __future__ import annotations

import threading

import pytest

from repro.query.executor import QueryExecutor
from repro.query.planner import QueryPlanner
from repro.search.engine import SearchEngine
from repro.serve.frontend import QueryFrontend, ServeStats
from repro.store.records import IngestRecord
from repro.util.text import tokenize


def record(doc_id: int, text: str) -> IngestRecord:
    return IngestRecord(
        url=f"http://site.example.com/{doc_id}",
        host="site.example.com",
        title=f"doc {doc_id}",
        text=text,
        tokens=tokenize(text),
        source="surface",
    )


@pytest.fixture
def engine() -> SearchEngine:
    engine = SearchEngine()
    engine.ingest_records(
        [
            record(1, "red toyota camry excellent condition"),
            record(2, "blue honda civic low mileage"),
            record(3, "red ford mustang convertible"),
            record(4, "toyota corolla reliable commuter"),
        ]
    )
    return engine


class TestServe:
    def test_serve_matches_engine_search(self, engine):
        with QueryFrontend(engine, workers=2) as frontend:
            assert frontend.serve("red toyota", k=3) == engine.search("red toyota", k=3)

    def test_second_serve_is_a_cache_hit_with_identical_results(self, engine):
        with QueryFrontend(engine, workers=2) as frontend:
            first = frontend.serve("toyota", k=2)
            second = frontend.serve("Toyota!", k=2)  # normalizes to the same key
            assert second == first
            assert frontend.cache.hits == 1

    def test_ingest_invalidates_cache_before_next_query(self, engine):
        with QueryFrontend(engine, workers=2) as frontend:
            stale = frontend.serve("toyota", k=10)
            engine.ingest_records([record(5, "toyota tacoma pickup truck")])
            fresh = frontend.serve("toyota", k=10)
            assert fresh == engine.search("toyota", k=10)
            assert len(fresh) == len(stale) + 1
            assert frontend.cache.hits == 0  # the stale entry was never re-served

    def test_constructor_validation(self, engine):
        with pytest.raises(ValueError):
            QueryFrontend(engine, workers=0)
        with pytest.raises(ValueError):
            QueryFrontend(engine, queue_limit=0)

    def test_closed_frontend_rejects_submissions_and_serves(self, engine):
        """After close() the listener is gone, so serving from the cache
        could go stale undetected -- every request must be refused."""
        frontend = QueryFrontend(engine, workers=1)
        frontend.serve("toyota", k=2)
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.submit("toyota")
        with pytest.raises(RuntimeError):
            frontend.serve("toyota", k=2)
        assert len(frontend.cache) == 0

    def test_closed_frontend_refuses_plans_too(self, engine):
        """Strings and plans share one read core, closed check included."""
        frontend = QueryFrontend(engine, workers=1, executor=QueryExecutor(engine))
        plan = QueryPlanner(engine).plan("toyota", k=2)
        assert not frontend.serve_plan(plan).cached
        assert frontend.serve_plan(plan).cached
        frontend.close()
        with pytest.raises(RuntimeError, match="closed"):
            frontend.serve_plan(plan)

    def test_ttl_uses_the_injected_clock(self, engine):
        now = [0.0]
        frontend = QueryFrontend(
            engine, workers=1, ttl_seconds=10.0, clock=lambda: now[0]
        )
        try:
            first = frontend.serve("toyota", k=2)
            now[0] += 11.0
            assert frontend.serve("toyota", k=2) == first
            assert frontend.cache.expirations == 1, (
                "the entry must expire on the injected clock, not wall time"
            )
        finally:
            frontend.close()

    def test_close_unsubscribes_from_the_ingestor(self, engine):
        frontend = QueryFrontend(engine, workers=1)
        frontend.serve("toyota", k=2)
        frontend.close()
        generation = frontend.cache.generation
        engine.ingest_records([record(6, "toyota yaris hatchback")])
        assert frontend.cache.generation == generation, (
            "a closed frontend must not stay subscribed to ingests"
        )

    def test_latency_history_is_bounded(self, engine):
        with QueryFrontend(engine, workers=1, latency_window=5) as frontend:
            for _ in range(20):
                frontend.serve("toyota", k=2)
            stats = frontend.stats()
            assert stats.served == 20
            assert len(frontend._latencies) == 5
            assert stats.latency_p99 >= 0.0
        with pytest.raises(ValueError):
            QueryFrontend(engine, latency_window=0)


class TestAdmissionControl:
    def test_submit_sheds_when_queue_is_full(self, engine):
        """With one worker blocked and every queue slot held, the next
        submission must be refused, deterministically."""
        release = threading.Event()
        entered = threading.Event()

        class BlockingEngine:
            ingestor = engine.ingestor
            backend = engine.backend

            def search(self, query, k=10):
                entered.set()
                release.wait(timeout=10)
                return engine.search(query, k=k)

        frontend = QueryFrontend(BlockingEngine(), workers=1, queue_limit=2)
        try:
            first = frontend.submit("toyota", k=2)  # occupies the worker
            assert first is not None
            assert entered.wait(timeout=10)
            second = frontend.submit("honda", k=2)  # occupies the last slot
            assert second is not None
            shed = frontend.submit("ford", k=2)  # queue full -> shed
            assert shed is None
            assert frontend.stats().shed == 1
            release.set()
            assert first.result(timeout=10) == engine.search("toyota", k=2)
            assert second.result(timeout=10) == engine.search("honda", k=2)
        finally:
            release.set()
            frontend.close()

    def test_slots_are_released_after_completion(self, engine):
        with QueryFrontend(engine, workers=2, queue_limit=2) as frontend:
            for _ in range(10):  # far more requests than slots, sequentially
                future = frontend.submit("toyota", k=2)
                assert future is not None
                future.result(timeout=10)
            assert frontend.stats().shed == 0

    def test_blocking_workload_never_sheds(self, engine):
        with QueryFrontend(engine, workers=2, queue_limit=1) as frontend:
            outcome = frontend.serve_workload(["toyota"] * 50, default_k=2)
            assert outcome.stats.shed == 0
            assert outcome.stats.served == 50
            assert all(result is not None for result in outcome.results)


class TestStats:
    def test_workload_stats_count_hits_and_percentiles(self, engine):
        # One worker: with 2+, the two "toyota" requests could both miss
        # before either populates the cache, making hit counts racy.
        with QueryFrontend(engine, workers=1) as frontend:
            outcome = frontend.serve_workload(["toyota", "toyota", "honda"], default_k=2)
        stats = outcome.stats
        assert stats.served == 3
        assert stats.cache_hits == 1 and stats.cache_misses == 2
        assert stats.cache_hit_rate == pytest.approx(1 / 3)
        assert 0 <= stats.latency_p50 <= stats.latency_p90 <= stats.latency_p99
        assert stats.latency_max >= stats.latency_p99
        assert stats.qps > 0

    def test_stats_rendering_mentions_the_load_story(self, engine):
        with QueryFrontend(engine, workers=2) as frontend:
            frontend.serve("toyota")
            rendered = str(frontend.stats())
        assert "served: 1" in rendered
        assert "hit rate" in rendered

    def test_empty_stats_are_all_zero(self):
        stats = ServeStats.from_counters(0, 0, 0, 0, [])
        assert stats.cache_hit_rate == 0.0
        assert stats.latency_p99 == 0.0
        assert stats.qps == 0.0
