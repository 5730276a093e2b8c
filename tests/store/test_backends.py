"""Unit tests for the unified content store (records, ingestor, backends)."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterBackend, shard_of
from repro.persist import SqliteBackend
from repro.store import (
    IngestRecord,
    Ingestor,
    InMemoryBackend,
    StorageBackend,
)
from repro.store.records import SOURCE_SURFACE, SOURCE_SURFACED, SOURCE_WEBTABLE
from repro.webspace.page import WebPage


def record(url: str, text: str, source: str = SOURCE_SURFACE) -> IngestRecord:
    return IngestRecord(
        url=url,
        host="h.test",
        title="t",
        text=text,
        tokens=text.split(),
        source=source,
    )


def page(url: str, title: str, body: str, status: int = 200) -> WebPage:
    html = f"<html><head><title>{title}</title></head><body><p>{body}</p></body></html>"
    return WebPage(url=url, html=html, status=status)


def sharded(shard_count: int, replicas: int = 1) -> ClusterBackend:
    """The hash-partitioned backend; identity is asserted on it, so the
    deadline is far beyond anything a loaded box could miss."""
    return ClusterBackend(shard_count, replicas=replicas, deadline_seconds=30)


#: Every DocumentCatalog subclass; "sharded" is the 4 x 1 cluster.
BACKENDS = {
    "memory": lambda tmp_path: InMemoryBackend(),
    "sqlite": lambda tmp_path: SqliteBackend(tmp_path / "store.sqlite3"),
    "cluster-1x1": lambda tmp_path: sharded(1),
    "sharded": lambda tmp_path: sharded(4),
    "cluster-4x2": lambda tmp_path: sharded(4, replicas=2),
}


@pytest.fixture(params=list(BACKENDS))
def backend(request, tmp_path):
    made = BACKENDS[request.param](tmp_path)
    yield made
    if hasattr(made, "close"):
        made.close()


@pytest.fixture
def cluster_of():
    """Build ``sharded(n)`` backends that are closed when the test ends."""
    made: list[ClusterBackend] = []

    def make(shard_count: int) -> ClusterBackend:
        made.append(sharded(shard_count))
        return made[-1]

    yield make
    for cluster in made:
        cluster.close()


class TestBackendContract:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_sequential_doc_ids_and_dedup(self, backend):
        assert backend.add(record("u://1", "alpha")) == 1
        assert backend.add(record("u://2", "bravo")) == 2
        assert backend.add(record("u://1", "alpha again")) == 1  # dedup by URL
        assert len(backend) == 2
        assert "u://1" in backend and "u://3" not in backend
        assert backend.doc_id_for_url("u://2") == 2
        assert backend.doc_id_for_url("u://nope") is None

    def test_get_and_document_for_url(self, backend):
        backend.add(record("u://1", "alpha"))
        doc = backend.get(1)
        assert doc.doc_id == 1 and doc.url == "u://1" and doc.text == "alpha"
        assert backend.document_for_url("u://1").doc_id == 1
        assert backend.document_for_url("u://nope") is None
        with pytest.raises(KeyError):
            backend.get(99)

    def test_documents_are_doc_id_ordered(self, backend):
        for index in range(20):
            backend.add(record(f"u://{index}", f"token{index}"))
        assert [doc.doc_id for doc in backend.documents()] == list(range(1, 21))

    def test_documents_filter_by_source_and_host(self, backend):
        backend.add(record("u://1", "alpha", source=SOURCE_SURFACED))
        backend.add(record("u://2", "bravo"))
        assert [d.doc_id for d in backend.documents(source=SOURCE_SURFACED)] == [1]
        assert [d.doc_id for d in backend.documents_for_host("h.test")] == [1, 2]
        assert backend.documents_for_host("other.test") == []

    def test_search(self, backend):
        backend.add(record("u://1", "toyota camry austin"))
        backend.add(record("u://2", "honda civic austin"))
        ranked = backend.search(["toyota"])
        assert [doc_id for doc_id, _ in ranked] == [1]
        assert [doc_id for doc_id, _ in backend.search(["austin"])] == [1, 2]
        assert backend.search(["nosuchterm"]) == []

    def test_count_by_source_is_sorted(self, backend):
        backend.add(record("u://1", "x", source="zeta"))
        backend.add(record("u://2", "x", source="alpha"))
        stats = backend.stats()
        assert stats.documents == 2
        assert list(stats.by_source) == ["alpha", "zeta"]

    def test_by_source_sums_to_the_store(self, backend):
        """``stats().by_source`` is the one per-source count: it accounts
        for every stored document exactly once (a re-added URL is one)."""
        sources = (SOURCE_SURFACE, SOURCE_SURFACED, SOURCE_WEBTABLE)
        for index in range(30):
            backend.add(record(f"u://{index % 25}", "x", source=sources[index % 3]))
        stats = backend.stats()
        assert sum(stats.by_source.values()) == stats.documents == len(backend) == 25

    def test_empty_backend_reads_are_empty(self, backend):
        assert len(backend) == 0
        assert "u://1" not in backend
        assert backend.documents() == []
        assert backend.export_records() == []
        assert backend.search(["alpha"]) == []
        assert backend.search([], limit=3) == []
        assert backend.stats().documents == 0

    def test_ranking_is_score_descending_then_id_ascending(self, backend):
        # Three identical documents tie; a shorter match outranks them.
        for index in range(3):
            backend.add(record(f"u://tie/{index}", "alpha filler filler filler"))
        backend.add(record("u://short", "alpha"))
        ranked = backend.search(["alpha"])
        assert [doc_id for doc_id, _ in ranked] == [4, 1, 2, 3]
        assert ranked[1][1] == ranked[2][1] == ranked[3][1] < ranked[0][1]

    def test_matching_more_query_terms_ranks_first(self, backend):
        backend.add(record("u://1", "toyota austin"))
        backend.add(record("u://2", "toyota dallas"))
        backend.add(record("u://3", "honda austin"))
        ranked = backend.search(["toyota", "austin"])
        assert [doc_id for doc_id, _ in ranked][0] == 1
        assert sorted(doc_id for doc_id, _ in ranked) == [1, 2, 3]

    def test_limit_keeps_a_prefix_of_the_full_ranking(self, backend):
        for index in range(12):
            backend.add(record(f"u://{index}", "alpha " + "pad " * index))
        full = backend.search(["alpha"])
        assert len(full) == 12
        for limit in (1, 5, 12, 50):
            assert backend.search(["alpha"], limit=limit) == full[:limit]

    def test_per_source_limit_keeps_each_sources_best(self, backend):
        sources = (SOURCE_SURFACE, SOURCE_SURFACED, SOURCE_WEBTABLE)
        for index in range(15):
            backend.add(
                record(f"u://{index}", "alpha " + "pad " * index, source=sources[index % 3])
            )
        full = backend.search(["alpha"])
        seen: dict[str, int] = {}
        expected = []
        for doc_id, score in full:
            source = backend.get(doc_id).source
            seen[source] = seen.get(source, 0) + 1
            if seen[source] <= 2:
                expected.append((doc_id, score))
        kept = backend.search(["alpha"], limit=2, per_source=True)
        assert kept == expected
        assert kept[:2] == full[:2]

    def test_the_source_group_resolves_every_stored_id(self, backend):
        """``per_source`` groups by the catalog's source list, so after every
        add it must name ``get(d).source`` for each id (slot 0 is unused)."""
        sources = (SOURCE_SURFACE, SOURCE_SURFACED, SOURCE_WEBTABLE)
        for index in range(12):
            backend.add(record(f"u://{index % 10}", "alpha", source=sources[index % 3]))
            assert_source_group_matches(backend)

    def test_export_records_rebuild_the_same_store(self, backend):
        for index in range(10):
            backend.add(
                record(f"u://{index}", f"alpha shared token{index}", source=f"s{index % 2}")
            )
        rebuilt = InMemoryBackend()
        for item in backend.export_records():
            rebuilt.add(item)
        assert [d.url for d in rebuilt.documents()] == [d.url for d in backend.documents()]
        assert rebuilt.stats().by_source == backend.stats().by_source
        assert rebuilt.search(["alpha", "token3"]) == backend.search(["alpha", "token3"])


def assert_source_group_matches(backend) -> None:
    group = backend._sources.__getitem__
    assert len(backend._sources) == len(backend) + 1
    for doc in backend.documents():
        assert group(doc.doc_id) == backend.get(doc.doc_id).source


def mixed_source_corpus() -> list[IngestRecord]:
    sources = (SOURCE_SURFACE, SOURCE_SURFACED, SOURCE_WEBTABLE, "vertical-source")
    words = ("alpha", "bravo", "charlie", "delta")
    return [
        record(
            f"u://mixed/{index}",
            " ".join(words[(index * step) % 4] for step in range(1, 2 + index % 5)),
            source=sources[(index * 7) % 4],
        )
        for index in range(60)
    ]


class TestSourceGroup:
    """The source list behind ``per_source`` rankings, on every write path."""

    def test_a_sqlite_reopen_replays_the_source_list(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        with SqliteBackend(path) as written:
            for item in mixed_source_corpus():
                written.add(item)
        with SqliteBackend(path) as reopened:
            assert len(reopened) == 60
            assert_source_group_matches(reopened)

    def test_a_snapshot_restore_rebuilds_the_source_list(self, tmp_path):
        from repro.api import DeepWebService, SurfacingConfig, WebConfig

        service = (
            DeepWebService.build()
            .web(WebConfig(total_deep_sites=2, surface_site_count=1, max_records=30, seed=2))
            .surfacing(SurfacingConfig(max_urls_per_form=30))
            .create()
        )
        service.crawl(max_pages=30)
        service.surface()
        service.vertical  # noqa: B018 -- lands vertical-source documents too
        restored = DeepWebService.restore(service.snapshot(tmp_path / "snapshot.json"))
        backend = restored.engine.backend
        assert len(backend.stats().by_source) >= 3
        assert_source_group_matches(backend)

    def test_per_source_rankings_agree_across_memory_and_cluster(self, cluster_of):
        memory = InMemoryBackend()
        clusters = [cluster_of(1), cluster_of(4)]
        for item in mixed_source_corpus():
            for backend in (memory, *clusters):
                backend.add(item)
        for cluster in clusters:
            assert_source_group_matches(cluster)
        for tokens in (["alpha"], ["bravo", "delta"], ["charlie", "alpha", "delta"]):
            for limit in (1, 2, 5):
                expected = memory.search(tokens, limit=limit, per_source=True)
                assert len(expected) > limit
                for cluster in clusters:
                    assert cluster.search(tokens, limit=limit, per_source=True) == expected

    def test_per_source_rankings_agree_across_writes_and_a_reopen(self, tmp_path, cluster_of):
        """Writes land between per-source searches (each one leaves the
        queried terms' builds stale): memory, sqlite before and after a
        reopen, and the 1x1 and 4x1 clusters -- which merge every match
        by group instead of pruning inside each -- answer alike."""
        corpus = mixed_source_corpus()
        corpus += [
            record(f"u://more/{item.url}", " ".join(reversed(item.tokens)), source=item.source)
            for item in corpus[::3]
        ]
        queries = (["alpha"], ["bravo", "delta"], ["charlie", "alpha", "delta"])
        path = tmp_path / "store.sqlite3"
        memory = InMemoryBackend()
        clusters = [cluster_of(1), cluster_of(4)]
        stored = SqliteBackend(path)
        searched = 0
        for position, item in enumerate(corpus, start=1):
            if position == 41:
                stored.close()
                stored = SqliteBackend(path)
                assert len(stored) == 40
            for backend in (memory, stored, *clusters):
                backend.add(item)
            if position % 7:
                continue
            for tokens in queries:
                for limit in (1, 2, 5):
                    expected = memory.search(tokens, limit=limit, per_source=True)
                    assert stored.search(tokens, limit=limit, per_source=True) == expected
                    for cluster in clusters:
                        assert cluster.search(tokens, limit=limit, per_source=True) == expected
                    searched += bool(expected)
        stored.close()
        assert searched > 60
        assert_source_group_matches(memory)


class TestShardedSpecifics:
    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ClusterBackend(0)
        with pytest.raises(ValueError):
            ClusterBackend(-3)

    def test_routing_is_stable_and_partitioned(self, cluster_of):
        backend = cluster_of(4)
        for index in range(40):
            backend.add(record(f"u://doc/{index}", f"token{index}"))
        stats = backend.stats()
        assert sum(stats.shard_documents) == 40
        assert len(stats.shard_documents) == 4
        # CRC32 routing: same URL always lands on the same shard.
        assert shard_of("u://doc/7", 4) == shard_of("u://doc/7", 4)
        # With 40 distinct URLs, at least two shards must be populated.
        assert sum(1 for count in stats.shard_documents if count) >= 2

    def test_single_shard_degenerates_to_global(self, cluster_of):
        single = cluster_of(1)
        memory = InMemoryBackend()
        for index in range(10):
            single.add(record(f"u://{index}", f"alpha token{index}"))
            memory.add(record(f"u://{index}", f"alpha token{index}"))
        assert single.search(["alpha"], limit=5) == memory.search(["alpha"], limit=5)

    def test_empty_store_search(self, cluster_of):
        assert cluster_of(4).search(["anything"]) == []


class TestShardedBoundaries:
    """Direct boundary coverage for the sharded backend's own paths.

    These hit the cluster backend without the engine in front of it: the
    engine tokenizes/normalizes before calling down, so the raw-backend
    behaviour on blank and unknown input was previously only covered
    incidentally by the parametrized contract suite.
    """

    def test_empty_backend_reads_are_empty_not_errors(self, cluster_of):
        backend = cluster_of(4)
        assert len(backend) == 0
        assert backend.search([]) == []
        assert backend.search([], limit=5) == []
        assert backend.documents() == []
        assert backend.documents_for_host("h.test") == []
        assert backend.export_records() == []
        assert backend.stats().by_source == {}
        assert backend.stats().shard_documents == (0, 0, 0, 0)

    def test_blank_and_unknown_term_queries(self, cluster_of):
        backend = cluster_of(4)
        backend.add(record("u://1", "toyota camry"))
        backend.add(record("u://2", "honda civic"))
        assert backend.search([]) == []
        assert backend.search(["zzz-unknown"]) == []
        # A mixed query scores only the known term; the unknown one
        # contributes nothing rather than poisoning the ranking.
        mixed = backend.search(["toyota", "zzz-unknown"])
        assert [doc_id for doc_id, _ in mixed] == [1]

    def test_export_records_round_trip_at_single_shard(self, cluster_of):
        single = cluster_of(1)
        for index in range(12):
            single.add(
                record(
                    f"u://doc/{index}",
                    f"alpha shared token{index} token{index}",
                    source="zeta" if index % 3 else "alpha",
                )
            )
        exported = single.export_records()
        assert [rec.url for rec in exported] == [f"u://doc/{i}" for i in range(12)]
        rebuilt = cluster_of(1)
        for rec in exported:
            rebuilt.add(rec)
        assert rebuilt.search(["alpha", "shared"], limit=None) == single.search(
            ["alpha", "shared"], limit=None
        )
        assert rebuilt.stats().by_source == single.stats().by_source
        assert [d.doc_id for d in rebuilt.documents()] == list(range(1, 13))

    def test_documents_for_host_ordering_across_shards(self, cluster_of):
        backend = cluster_of(4)
        hosts = ("a.test", "b.test")
        for index in range(30):
            rec = IngestRecord(
                url=f"u://mixed/{index}",
                host=hosts[index % 2],
                title="t",
                text=f"token{index}",
                tokens=[f"token{index}"],
                source=SOURCE_SURFACE,
            )
            backend.add(rec)
        for host, parity in zip(hosts, (1, 2)):
            docs = backend.documents_for_host(host)
            # Ascending doc id regardless of which shard holds each doc.
            assert [d.doc_id for d in docs] == list(range(parity, 31, 2))
            assert all(d.host == host for d in docs)


class TestIngestor:
    def test_ingest_page_skips_error_pages(self):
        ingestor = Ingestor(InMemoryBackend())
        assert ingestor.ingest_page(page("u://1", "T", "body", status=404)) is None
        assert len(ingestor.backend) == 0

    def test_ingest_page_dedups_without_reanalysis(self):
        backend = InMemoryBackend()
        ingestor = Ingestor(backend)
        first = ingestor.ingest_page(page("u://1", "T", "toyota"))
        second = ingestor.ingest_page(page("u://1", "T", "toyota"))
        assert first == second == 1
        assert len(backend) == 1

    def test_annotations_become_searchable_tokens(self):
        backend = InMemoryBackend()
        ingestor = Ingestor(backend)
        ingestor.ingest_page(
            page("u://1", "T", "body"), annotations={"domain": "government"}
        )
        assert [doc_id for doc_id, _ in backend.search(["government"])] == [1]
        assert backend.get(1).annotations == {"domain": "government"}

    def test_listeners_fire_only_for_new_documents(self):
        ingestor = Ingestor(InMemoryBackend())
        seen: list[tuple[str, int]] = []
        ingestor.add_listener(lambda record, doc_id: seen.append((record.url, doc_id)))
        ingestor.ingest(record("u://1", "alpha"))
        ingestor.ingest(record("u://1", "alpha"))  # duplicate: no event
        ingestor.ingest_batch([record("u://2", "bravo"), record("u://3", "charlie")])
        assert seen == [("u://1", 1), ("u://2", 2), ("u://3", 3)]

    def test_batch_returns_ids_in_order(self):
        ingestor = Ingestor(InMemoryBackend())
        ids = ingestor.ingest_batch(
            [record("u://1", "a"), record("u://2", "b"), record("u://1", "a")]
        )
        assert ids == [1, 2, 1]
