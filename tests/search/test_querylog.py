"""Tests for the power-law query-log generator."""

from __future__ import annotations

from repro.search.querylog import (
    KIND_HEAD,
    KIND_TAIL,
    QueryLog,
    QueryLogConfig,
    QueryLogGenerator,
    Query,
)
from repro.util.rng import SeededRng
from repro.util.zipf import fit_power_law, tail_mass


def make_log(small_web, volume: int = 5000) -> QueryLog:
    generator = QueryLogGenerator(small_web, SeededRng(99))
    return generator.generate(QueryLogConfig(total_volume=volume))


class TestPopulation:
    def test_head_queries_reference_surface_topics(self, small_web):
        generator = QueryLogGenerator(small_web, SeededRng(1))
        head = generator.head_population(QueryLogConfig())
        assert head
        surface_hosts = {site.host for site in small_web.surface_sites()}
        assert all(query.target_host in surface_hosts for query in head)
        assert all(query.kind == KIND_HEAD for query in head)

    def test_tail_queries_reference_deep_records(self, small_web):
        generator = QueryLogGenerator(small_web, SeededRng(1))
        tail = generator.tail_population(QueryLogConfig())
        assert tail
        deep_hosts = {site.host for site in small_web.deep_sites()}
        for query in tail[:50]:
            assert query.kind == KIND_TAIL
            assert query.target_host in deep_hosts
            assert query.target_record_id is not None
            assert query.text.strip()

    def test_tail_query_text_matches_record_content(self, small_web):
        generator = QueryLogGenerator(small_web, SeededRng(1))
        tail = generator.tail_population(QueryLogConfig())
        query = tail[0]
        site = small_web.site(query.target_host)
        assert query.target_table == site.table.name
        row = site.table.get(query.target_record_id)
        row_text = " ".join(str(value).lower() for value in row.values())
        assert any(token in row_text for token in query.text.split())


class TestGeneratedLog:
    def test_total_volume_matches_config(self, small_web):
        log = make_log(small_web, volume=3000)
        assert log.total_volume == 3000

    def test_ranks_are_contiguous(self, small_web):
        log = make_log(small_web)
        ranks = sorted(query.rank for query in log)
        assert ranks == list(range(1, len(log) + 1))

    def test_frequencies_follow_power_law(self, small_web):
        log = make_log(small_web, volume=20000)
        frequencies = [freq for freq in log.frequencies() if freq > 0]
        fit = fit_power_law(frequencies)
        assert fit.exponent > 0.4
        assert fit.r_squared > 0.6

    def test_tail_carries_substantial_volume(self, small_web):
        log = make_log(small_web, volume=20000)
        assert tail_mass(log.frequencies(), head_size=20) > 0.2

    def test_head_ranks_are_mostly_head_queries(self, small_web):
        log = make_log(small_web)
        top = [query for query in log if query.rank <= 10]
        head_share = sum(1 for query in top if query.kind == KIND_HEAD) / len(top)
        assert head_share >= 0.5

    def test_by_kind_partitions_log(self, small_web):
        log = make_log(small_web)
        assert len(log.by_kind(KIND_HEAD)) + len(log.by_kind(KIND_TAIL)) == len(log)

    def test_generation_is_deterministic(self, small_web):
        first = QueryLogGenerator(small_web, SeededRng(7)).generate(QueryLogConfig(total_volume=1000))
        second = QueryLogGenerator(small_web, SeededRng(7)).generate(QueryLogConfig(total_volume=1000))
        assert [(q.text, q.frequency) for q in first] == [(q.text, q.frequency) for q in second]

    def test_empty_web_gives_empty_log(self):
        from repro.webspace.web import Web

        log = QueryLogGenerator(Web(), SeededRng(1)).generate(QueryLogConfig(total_volume=100))
        assert len(log) == 0
        assert log.total_volume == 0


class TestLogBoundaries:
    """Boundary behavior of the QueryLog views."""

    def _log(self) -> QueryLog:
        queries = [
            Query(text="alpha", kind=KIND_HEAD, frequency=10, rank=1),
            Query(text="bravo", kind=KIND_TAIL, frequency=5, rank=2),
            Query(text="charlie", kind=KIND_TAIL, frequency=1, rank=3),
        ]
        return QueryLog(queries)

    def test_by_kind_unknown_kind_is_empty(self):
        assert self._log().by_kind("no-such-kind") == []

    def test_by_kind_known_kinds(self):
        log = self._log()
        assert [q.text for q in log.by_kind(KIND_HEAD)] == ["alpha"]
        assert [q.text for q in log.by_kind(KIND_TAIL)] == ["bravo", "charlie"]

    def test_iteration_and_length_follow_the_stored_queries(self):
        log = self._log()
        assert len(log) == 3
        assert [q.text for q in log] == ["alpha", "bravo", "charlie"]

    def test_total_volume_sums_frequencies(self):
        assert self._log().total_volume == 16

    def test_frequencies_are_in_rank_order(self):
        shuffled = QueryLog(
            [
                Query(text="charlie", kind=KIND_TAIL, frequency=1, rank=3),
                Query(text="alpha", kind=KIND_HEAD, frequency=10, rank=1),
                Query(text="bravo", kind=KIND_TAIL, frequency=5, rank=2),
            ]
        )
        assert shuffled.frequencies() == [10, 5, 1]

    def test_empty_log_boundaries(self):
        empty = QueryLog([])
        assert empty.by_kind(KIND_HEAD) == []
        assert empty.total_volume == 0
        assert empty.frequencies() == []
        assert list(empty) == []
