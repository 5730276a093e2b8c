"""ClusterBackend: single-index semantics over replicated shard nodes.

The load-bearing contracts:

* clean-path searches are byte-identical to ``InMemoryBackend`` --
  hits, scores, order and doc ids -- at any shard/replica shape;
* losing one replica of a replicated shard changes nothing (failover);
* losing *every* replica of a shard degrades to a strict subset whose
  surviving hits keep identical scores (coordinator-held BM25
  ingredients), counted in ``degraded_searches``;
* the full :class:`~repro.store.backend.StorageBackend` protocol holds,
  including the ``export_records`` round-trip.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterBackend, ShardNode, replica_name, shard_of
from repro.search.engine import SearchEngine
from repro.serve.frontend import QueryFrontend
from repro.store.backend import StorageBackend, StoreStats
from repro.store.memory import InMemoryBackend
from repro.store.records import IngestRecord
from repro.util.text import tokenize

#: Generous deadline: these tests exercise semantics, not timing.
DEADLINE = 10.0


def record(index: int, text: str, host: str = "h.test", source: str = "surface") -> IngestRecord:
    return IngestRecord(
        url=f"http://{host}/doc/{index}",
        host=host,
        title=f"doc {index}",
        text=text,
        tokens=tokenize(text),
        source=source,
    )


def corpus() -> list[IngestRecord]:
    colors = ("red", "blue", "green")
    makes = ("toyota", "honda", "ford")
    records = [
        record(
            i,
            f"used {makes[i % 3]} car {colors[i % 3]} model year condition",
            host=f"site{i % 5}.test",
            source="surface" if i % 4 else "crawl",
        )
        for i in range(48)
    ]
    records.append(record(90, "rare unique zanzibar document", host="site0.test"))
    return records


def filled(backend) -> None:
    for rec in corpus():
        backend.add(rec)


QUERIES = [
    ["toyota"],
    ["used", "car"],
    ["red", "toyota", "car"],
    ["zanzibar"],
    ["blue", "model", "condition"],
    ["unknownterm"],
]


@pytest.fixture
def cluster():
    backend = ClusterBackend(shard_count=4, replicas=2, deadline_seconds=DEADLINE)
    filled(backend)
    yield backend
    backend.close()


@pytest.fixture
def reference() -> InMemoryBackend:
    backend = InMemoryBackend()
    filled(backend)
    return backend


class TestCleanPathIdentity:
    @pytest.mark.parametrize("shards,replicas", [(1, 1), (4, 1), (4, 2), (8, 3)])
    def test_rankings_byte_identical_to_memory(self, reference, shards, replicas):
        backend = ClusterBackend(shard_count=shards, replicas=replicas, deadline_seconds=DEADLINE)
        filled(backend)
        for query in QUERIES:
            for limit in (None, 5, 1):
                assert backend.search(query, limit) == reference.search(query, limit)
        assert not backend.consume_degraded()

    def test_doc_ids_assigned_globally_in_ingest_order(self, cluster):
        assert [doc.doc_id for doc in cluster.documents()] == list(
            range(1, len(cluster) + 1)
        )

    def test_re_adding_a_url_returns_existing_id(self, cluster):
        rec = corpus()[0]
        assert cluster.add(rec) == cluster.doc_id_for_url(rec.url)
        assert len(cluster) == len(corpus())


class TestEmptyAndUnknown:
    def test_empty_cluster_searches_empty(self):
        backend = ClusterBackend(shard_count=4, replicas=2, deadline_seconds=DEADLINE)
        assert backend.search(["anything"], 10) == []
        assert backend.search([], 10) == []
        assert len(backend) == 0
        assert backend.documents() == []
        assert backend.export_records() == []
        # An empty-corpus search never scatters, so it cannot degrade.
        assert not backend.consume_degraded()

    def test_blank_and_unknown_queries(self, cluster):
        assert cluster.search([], 10) == []
        assert cluster.search(["unknownterm"], 10) == []

    def test_get_unknown_doc_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.get(10_000)
        assert cluster.doc_id_for_url("http://nowhere.test/") is None


class TestStorageProtocol:
    def test_satisfies_storage_backend(self, cluster):
        assert isinstance(cluster, StorageBackend)

    def test_lookup_by_url(self, cluster):
        rec = corpus()[3]
        doc = cluster.get(cluster.doc_id_for_url(rec.url))
        assert doc.url == rec.url

    def test_documents_for_host_ordered(self, cluster, reference):
        for host in ("site0.test", "site3.test", "missing.test"):
            mine = cluster.documents_for_host(host)
            assert [d.doc_id for d in mine] == sorted(d.doc_id for d in mine)
            assert mine == reference.documents_for_host(host)

    def test_documents_by_source(self, cluster, reference):
        assert cluster.documents("crawl") == reference.documents("crawl")
        assert cluster.stats().by_source == reference.stats().by_source

    def test_stats_shape(self, cluster):
        stats = cluster.stats()
        assert isinstance(stats, StoreStats)
        assert stats.backend == "cluster"
        assert stats.documents == len(corpus())
        assert len(stats.shard_documents) == 4
        assert sum(stats.shard_documents) == len(corpus())

    def test_export_records_round_trip(self, cluster, reference):
        rebuilt = InMemoryBackend()
        for rec in cluster.export_records():
            rebuilt.add(rec)
        for query in QUERIES:
            assert rebuilt.search(query, 10) == reference.search(query, 10)
        assert [d.doc_id for d in rebuilt.documents()] == [
            d.doc_id for d in cluster.documents()
        ]


class TestReplicasAndDegradation:
    def test_writes_reach_every_replica_even_dead_ones(self):
        backend = ClusterBackend(shard_count=2, replicas=2, deadline_seconds=DEADLINE)
        backend.kill(replica_name(0, 0))
        backend.kill(replica_name(1, 1))
        filled(backend)
        for replica_set in backend.replica_sets:
            first, second = replica_set
            assert len(first.index) > 0
            assert first.index.document_terms() == second.index.document_terms()

    def test_one_dead_replica_keeps_byte_identity(self, cluster, reference):
        cluster.kill(replica_name(2, 0))
        for query in QUERIES:
            assert cluster.search(query, 10) == reference.search(query, 10)
        assert not cluster.consume_degraded()
        assert cluster.cluster_stats().dead_replicas == (replica_name(2, 0),)

    def test_dead_shard_degrades_to_exact_score_subset(self, cluster, reference):
        cluster.kill(replica_name(1, 0))
        cluster.kill(replica_name(1, 1))
        full = dict(reference.search(["used", "car"], None))
        degraded = cluster.search(["used", "car"], None)
        assert cluster.consume_degraded()
        assert 0 < len(degraded) < len(full)
        for doc_id, score in degraded:
            assert full[doc_id] == score, "survivors must keep exact scores"
        lost = {
            doc.doc_id
            for doc in cluster.documents()
            if shard_of(doc.url, cluster.shard_count) == 1
        }
        assert lost == set(full) - {doc_id for doc_id, _ in degraded}

    def test_revive_restores_identity(self, cluster, reference):
        names = [replica_name(1, 0), replica_name(1, 1)]
        for name in names:
            cluster.kill(name)
        cluster.search(["used", "car"], 10)
        assert cluster.consume_degraded()
        for name in names:
            cluster.revive(name)
        assert cluster.search(["used", "car"], 10) == reference.search(["used", "car"], 10)
        assert not cluster.consume_degraded()
        assert cluster.cluster_stats().degraded_searches == 1

    def test_consume_degraded_clears_the_flag(self, cluster):
        assert not cluster.consume_degraded()
        cluster.kill(replica_name(0, 0))
        cluster.kill(replica_name(0, 1))
        cluster.search(["used"], 5)
        assert cluster.consume_degraded()
        assert not cluster.consume_degraded()
        # It is a view of the one signal, the counter: two more degraded
        # searches read as one "since the last call".
        cluster.search(["used"], 5)
        cluster.search(["car"], 5)
        assert cluster.degraded_searches == 3
        assert cluster.consume_degraded() and not cluster.consume_degraded()

    def test_unknown_replica_name_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.kill("shard9/replica9")


class TestClusterStats:
    def test_counts_and_lines(self, cluster):
        for query in QUERIES:
            cluster.search(query, 10)
        stats = cluster.cluster_stats()
        assert stats.shard_count == 4 and stats.replicas == 2
        assert stats.documents == len(corpus())
        # Every QUERIES entry is non-empty, so every one scatters (blank
        # queries short-circuit before the executor; see TestEmptyAndUnknown).
        assert stats.scatters == len(QUERIES)
        assert stats.tasks == stats.scatters * 4
        assert stats.alive_replicas == 8 and stats.dead_replicas == ()
        assert stats.deadline_misses == 0 and stats.degraded_searches == 0
        assert sum(stats.replica_serves.values()) == stats.tasks
        text = "\n".join(stats.lines())
        assert "4 x 2 replicas" in text

    def test_non_positive_k_never_scatters(self, cluster):
        """``k <= 0`` asks for nothing: no shard gets a task, so a failing
        shard cannot count a degraded search either."""
        engine = SearchEngine(backend=cluster)
        assert engine.search("used car", k=0) == []
        assert engine.rank("used car", k=0, per_source=True) == []
        assert engine.rank("used car", k=-3) == []
        stats = cluster.cluster_stats()
        assert (stats.scatters, stats.tasks) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterBackend(shard_count=0)
        with pytest.raises(ValueError):
            ClusterBackend(replicas=0)
        with pytest.raises(ValueError):
            ClusterBackend(deadline_seconds=0.0)


class TestInline:
    def test_the_cluster_starts_no_thread(self):
        before = threading.active_count()
        backend = ClusterBackend(4, replicas=2, deadline_seconds=DEADLINE)
        for index in range(200):
            backend.add(record(index, f"used car number {index % 17} for sale"))
        for index in range(50):
            assert backend.search(["car", str(index % 17)], 10)
        backend.kill(replica_name(1, 0))
        assert backend.search(["used", "car"], None) and not backend.consume_degraded()
        assert backend.cluster_stats().failovers == 0  # the dead replica is never tried
        backend.revive(replica_name(1, 0))
        assert threading.active_count() == before


class TestConcurrentCallers:
    def test_twelve_client_threads_get_single_index_answers(self, cluster, reference):
        """More callers than any replica once admitted (8) search one
        cluster at once: no replica refuses, nothing degrades, and every
        answer is the single index's."""
        clients, rounds = 12, 20
        expected = [reference.search(query, 10) for query in QUERIES]
        barrier = threading.Barrier(clients)
        wrong: list[object] = []

        def client() -> None:
            barrier.wait(timeout=10)
            for _ in range(rounds):
                for query, answer in zip(QUERIES, expected):
                    got = cluster.search(query, 10)
                    if got != answer:
                        wrong.append((query, got))

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = cluster.cluster_stats()
        assert stats.degraded_searches == 0
        assert stats.scatters == clients * rounds * len(QUERIES)
        assert sum(stats.replica_serves.values()) == stats.scatters * 4


class TestShardRouting:
    def test_documents_land_on_their_crc32_shard(self, cluster):
        held = {
            (shard, replica): node.index.document_terms().keys()
            for shard, replica_set in enumerate(cluster.replica_sets)
            for replica, node in enumerate(replica_set)
            if isinstance(node, ShardNode)
        }
        assert len(held) == sum(len(replica_set) for replica_set in cluster.replica_sets)
        for rec in corpus():
            doc_id = cluster.doc_id_for_url(rec.url)
            expected = shard_of(rec.url, cluster.shard_count)
            for (shard, _replica), doc_ids in held.items():
                assert (doc_id in doc_ids) == (shard == expected)


class TestFrontendNeverCachesDegraded:
    def test_degraded_ranking_is_served_but_not_cached(self, cluster, reference):
        healthy = SearchEngine(backend=reference).search("used car", k=48)
        dead = [replica_name(1, 0), replica_name(1, 1)]
        with QueryFrontend(SearchEngine(backend=cluster), workers=2) as frontend:
            for name in dead:
                cluster.kill(name)
            shrunken = frontend.serve("used car", k=48)
            assert 0 < len(shrunken) < len(healthy)
            for name in dead:
                cluster.revive(name)
            assert frontend.serve("used car", k=48) == healthy
            assert frontend.cache.hits == 0  # the shrunken answer never got in
            # A healthy ranking is still cached, and the flag the chaos
            # harness reads was left for it.
            assert frontend.serve("used car", k=48) == healthy
            assert frontend.cache.hits == 1
            assert cluster.consume_degraded()

    def test_no_degraded_ranking_gets_cached_under_concurrent_workers(self, cluster, reference):
        queries = ["used car", "red toyota", "blue honda", "green ford", "model year"] * 8
        healthy = SearchEngine(backend=reference)
        with QueryFrontend(SearchEngine(backend=cluster), workers=4) as frontend:
            cluster.kill(replica_name(1, 0))
            cluster.kill(replica_name(1, 1))
            frontend.serve_workload(queries, default_k=48)
            cluster.revive(replica_name(1, 0))
            cluster.revive(replica_name(1, 1))
            for query in queries[:5]:
                assert frontend.serve(query, k=48) == healthy.search(query, k=48)
