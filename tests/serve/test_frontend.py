"""QueryFrontend behavior: serving, caching, lifecycle, stats."""

from __future__ import annotations

import threading

import pytest

import repro.serve.frontend as frontend_module
from repro.search.engine import SearchEngine
from repro.serve.frontend import QueryFrontend, ServeStats
from repro.store.records import IngestRecord
from repro.util.rng import SeededRng
from repro.util.text import tokenize
from repro.util.zipf import ZipfSampler


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
            QueryFrontend(engine, cache_size=-1)

    def test_closed_frontend_rejects_submissions_and_serves(self, engine):
        """After close() the listener is gone, so serving from the cache
        could go stale undetected -- every request must be refused."""
        frontend = QueryFrontend(engine, workers=1)
        frontend.serve("toyota", k=2)
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.serve_workload(["toyota"])
        with pytest.raises(RuntimeError):
            frontend.serve("toyota", k=2)
        assert frontend.cache.stats()["entries"] == 0

    def test_close_unsubscribes_from_the_ingestor(self, engine):
        frontend = QueryFrontend(engine, workers=1)
        frontend.serve("toyota", k=2)
        frontend.close()
        generation = frontend.cache.generation
        engine.ingest_records([record(6, "toyota yaris hatchback")])
        assert frontend.cache.generation == generation, (
            "a closed frontend must not stay subscribed to ingests"
        )


class TestHitPath:
    """A hit costs one alias lookup and one cache lookup: no tokenizing, no
    clock read."""

    @pytest.fixture
    def normalizations(self, monkeypatch) -> list[str]:
        calls: list[str] = []
        normalize = frontend_module.normalize_query

        def counting(query: str) -> str:
            calls.append(query)
            return normalize(query)

        monkeypatch.setattr(frontend_module, "normalize_query", counting)
        return calls

    def test_a_repeated_request_is_normalized_once(self, engine, normalizations):
        with QueryFrontend(engine, workers=1) as frontend:
            first = frontend.serve("Red  TOYOTA, Camry!", k=3)
            assert frontend.serve("Red  TOYOTA, Camry!", k=3) == first
            assert frontend.serve("Red  TOYOTA, Camry!", k=2) == first[:2]
        assert normalizations == ["Red  TOYOTA, Camry!"]

    def test_hit_path_normalizes_each_distinct_request_once(self, engine, normalizations):
        """A fixed Zipf stream over twelve spellings (two of them empty):
        every request after a text's first is answered without tokenizing."""
        spellings = [
            "red toyota", "Red  TOYOTA!", "honda civic", "ford", "toyota", "TOYOTA",
            "camry", "mustang convertible", "low mileage", "blue honda", "", "  ,  ",
        ]
        rng, ranks = SeededRng("hit-path"), ZipfSampler(len(spellings))
        stream = [spellings[ranks.sample_rank(rng) - 1] for _ in range(600)]
        with QueryFrontend(engine, workers=1) as frontend:
            for text in stream:
                assert frontend.serve(text, k=3) == engine.search(text, k=3)
        assert sorted(normalizations) == sorted(set(stream))
        print(f"frontend hit path: {len(stream)} serves, {len(normalizations)} normalizations")

    def test_two_spellings_of_one_query_share_one_entry(self, engine):
        with QueryFrontend(engine, workers=1) as frontend:
            first = frontend.serve("Red  TOYOTA, Camry!", k=3)
            assert frontend.serve("red toyota camry", k=3) == first
            stats = frontend.cache.stats()
            assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)

    @pytest.mark.parametrize("cache_size", [0, 1, 8])
    def test_the_alias_map_holds_at_most_the_cache_capacity(self, engine, cache_size):
        with QueryFrontend(engine, workers=1, cache_size=cache_size) as frontend:
            for index in range(3 * max(cache_size, 1)):
                frontend.serve(f"toyota {index}", k=2)
                assert len(frontend._aliases) <= cache_size

    def test_serve_reads_no_clock_and_serve_workload_still_times(self, engine):
        armed = [False]
        ticks = [0.0]

        def clock() -> float:
            if armed[0]:
                raise AssertionError("serve() read the clock")
            ticks[0] += 1.0
            return ticks[0]

        with QueryFrontend(engine, workers=1, clock=clock) as frontend:
            armed[0] = True
            miss = frontend.serve("toyota", k=2)  # miss, stored
            assert frontend.serve("Toyota!", k=2) == miss  # hit
            assert frontend.serve("", k=2) == []
            armed[0] = False
            stats = frontend.serve_workload(["toyota", "honda"], default_k=2).stats
        # One worker, and the replaying thread reads the clock only before
        # submitting and after gathering: each request reads it twice in a row.
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)
        assert stats.latency_p50 == stats.latency_max == 1.0

    def test_an_ingest_between_two_serves_makes_the_second_a_miss(self, engine):
        with QueryFrontend(engine, workers=1) as frontend:
            before = frontend.serve("Toyota!", k=10)
            engine.ingest_records([record(7, "toyota hilux workhorse")])
            after = frontend.serve("Toyota!", k=10)
            assert after == engine.search("toyota", k=10) != before
            assert (frontend.cache.hits, frontend.cache.misses) == (0, 2)


class TestWorkload:
    """A replay serves every request: nothing is shed, however far the
    stream outruns the workers."""

    def test_a_workload_serves_every_request_and_sheds_none(self, engine):
        with QueryFrontend(engine, workers=2) as frontend:
            outcome = frontend.serve_workload(["toyota"] * 50, default_k=2)
        assert outcome.shed == 0
        assert outcome.stats.served == 50
        assert outcome.results == [engine.search("toyota", k=2)] * 50

    def test_requests_beyond_the_workers_wait_instead_of_being_shed(self, engine):
        """One worker held inside its first search: the other requests
        queue behind it and are all answered once it lets go."""
        release = threading.Event()
        entered = threading.Event()

        class BlockingEngine:
            ingestor = engine.ingestor
            backend = engine.backend

            def search(self, query, k=10):
                entered.set()
                assert release.wait(timeout=10)
                return engine.search(query, k=k)

        queries = ["toyota", "honda", "ford", "red"]
        outcomes = []
        with QueryFrontend(BlockingEngine(), workers=1) as frontend:
            replay = threading.Thread(
                target=lambda: outcomes.append(frontend.serve_workload(queries, default_k=2))
            )
            replay.start()
            try:
                assert entered.wait(timeout=10)
                assert replay.is_alive() and outcomes == []
            finally:
                release.set()
                replay.join(timeout=10)
        assert not replay.is_alive()
        [outcome] = outcomes
        assert outcome.shed == 0 and outcome.stats.served == len(queries)
        assert outcome.results == [engine.search(query, k=2) for query in queries]


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
            rendered = str(frontend.serve_workload(["toyota"]).stats)
        assert "served: 1" in rendered
        assert "hit rate" in rendered

    def test_empty_stats_are_all_zero(self):
        stats = ServeStats.from_counters(0, 0, 0, [])
        assert stats.cache_hit_rate == 0.0
        assert stats.latency_p99 == 0.0
        assert stats.qps == 0.0
