"""Equivalence pins for the content-store refactor.

Two claims, both exact (bit-identical floats, identical ids):

* **pre-vs-post**: a :class:`SearchEngine` over the default
  :class:`InMemoryBackend` reproduces the pre-refactor engine --
  replicated verbatim below as :class:`LegacyEngine` -- on a seeded
  surfaced corpus: same doc ids, same rankings with the same scores,
  same metrics;
* **memory-vs-sharded**: :class:`ClusterBackend` (4 and 7 shards, one
  replica) returns identical top-k lists, matches and stats to the
  in-memory backend on the same corpus -- and so does it (replicated
  too) for a term every shard has already scored, after a write to one
  shard.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterBackend, shard_of
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.store import IngestRecord, InMemoryBackend
from repro.util.text import tokenize


class LegacyEngine:
    """The pre-refactor ``SearchEngine`` storage + ranking, verbatim.

    Copied from the engine as it stood before the store extraction (doc
    dicts, URL dedup, id assignment and BM25 ranking inline); kept here
    as the executable definition of "pre-refactor behavior".
    """

    def __init__(self) -> None:
        self._index = InvertedIndex()
        self._documents: dict[int, dict] = {}
        self._url_to_doc: dict[str, int] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._documents)

    def add_prepared(self, url, host, title, text, tokens, source, annotations=None):
        existing = self._url_to_doc.get(url)
        if existing is not None:
            return existing
        doc_id = self._next_id
        self._next_id += 1
        self._index.add_document(doc_id, tokens)
        self._documents[doc_id] = dict(
            doc_id=doc_id, url=url, host=host, title=title, text=text,
            source=source, annotations=dict(annotations or {}),
        )
        self._url_to_doc[url] = doc_id
        return doc_id

    def search(self, query: str, k: int = 10) -> list[tuple]:
        tokens = tokenize(query)
        ranked = self._index.score(tokens, limit=k)
        return [
            (
                doc_id,
                self._documents[doc_id]["url"],
                self._documents[doc_id]["host"],
                self._documents[doc_id]["title"],
                score,
                self._documents[doc_id]["source"],
            )
            for doc_id, score in ranked
        ]

    def count_by_source(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for doc in self._documents.values():
            counts[doc["source"]] = counts.get(doc["source"], 0) + 1
        return counts


def record_stream(engine: SearchEngine) -> list[IngestRecord]:
    """The seeded corpus as an ingest stream, in original doc-id order.

    Token preparation mirrors ``add_page`` exactly: text tokens first,
    then annotation tokens in annotation insertion order.
    """
    records = []
    for doc in engine.documents():
        tokens = tokenize(doc.text)
        for key, value in doc.annotations.items():
            tokens.extend(tokenize(f"{key} {value}"))
        records.append(
            IngestRecord(
                url=doc.url,
                host=doc.host,
                title=doc.title,
                text=doc.text,
                tokens=tokens,
                source=doc.source,
                annotations=dict(doc.annotations),
            )
        )
    return records


def result_tuples(engine: SearchEngine, query: str, k: int) -> list[tuple]:
    return [
        (r.doc_id, r.url, r.host, r.title, r.score, r.source)
        for r in engine.search(query, k=k)
    ]


@pytest.fixture(scope="module")
def corpus(surfaced_world):
    """Records + query sample from the seeded, surfaced tiny world."""
    records = record_stream(surfaced_world.engine)
    assert len(records) > 200, "seeded corpus should be non-trivial"
    # A generated log lists its queries in rank order: these are the top 40.
    queries = [query.text for query in surfaced_world.query_log.queries[:40]]
    queries += [query.text for query in surfaced_world.query_log.by_kind("tail")[:60]]
    assert len(queries) >= 80
    return records, queries


@pytest.fixture(scope="module")
def engines(corpus):
    """The same stream ingested into every implementation under test."""
    records, _ = corpus
    legacy = LegacyEngine()
    for record in records:
        legacy.add_prepared(
            url=record.url, host=record.host, title=record.title,
            text=record.text, tokens=record.tokens, source=record.source,
            annotations=record.annotations,
        )
    memory = SearchEngine()
    memory.ingest_records(records)
    # Identity is asserted, so the deadline is beyond any loaded box.
    four = ClusterBackend(4, deadline_seconds=30)
    seven = ClusterBackend(7, deadline_seconds=30)
    sharded4 = SearchEngine(backend=four)
    sharded4.ingest_records(records)
    sharded7 = SearchEngine(backend=seven)
    sharded7.ingest_records(records)
    yield legacy, memory, sharded4, sharded7


class TestPreVsPostRefactor:
    """InMemoryBackend == the pre-refactor engine, byte for byte."""

    def test_doc_ids_identical(self, corpus, engines):
        records, _ = corpus
        legacy, memory, _, _ = engines
        assert len(legacy) == len(memory)
        for record in records:
            assert legacy._url_to_doc[record.url] == memory.backend.doc_id_for_url(record.url)

    def test_search_results_identical_including_scores(self, corpus, engines):
        _, queries = corpus
        legacy, memory, _, _ = engines
        compared = 0
        for query in queries:
            for k in (1, 3, 10, 50):
                expected = legacy.search(query, k=k)
                assert result_tuples(memory, query, k) == expected
                compared += sum(1 for _ in expected)
        assert compared > 100, "query sample must actually produce results"

    def test_metrics_identical(self, engines):
        legacy, memory, _, _ = engines
        assert memory.store_stats().by_source == legacy.count_by_source()
        assert len(memory) == len(legacy)


class TestMemoryVsSharded:
    """ClusterBackend (>= 4 shards, 1 replica) == InMemoryBackend, exactly."""

    def test_doc_ids_identical(self, corpus, engines):
        records, _ = corpus
        _, memory, sharded4, sharded7 = engines
        for record in records:
            doc_id = memory.backend.doc_id_for_url(record.url)
            assert sharded4.backend.doc_id_for_url(record.url) == doc_id
            assert sharded7.backend.doc_id_for_url(record.url) == doc_id

    def test_topk_identical_including_scores(self, corpus, engines):
        _, queries = corpus
        _, memory, sharded4, sharded7 = engines
        for query in queries:
            for k in (1, 5, 10, 100):
                expected = result_tuples(memory, query, k)
                assert result_tuples(sharded4, query, k) == expected
                assert result_tuples(sharded7, query, k) == expected

    def test_full_rankings_identical(self, corpus, engines):
        _, queries = corpus
        _, memory, sharded4, _ = engines
        for query in queries[:30]:
            tokens = tokenize(query)
            assert (
                sharded4.backend.search(tokens, limit=None)
                == memory.backend.search(tokens, limit=None)
            )

    def test_reads_identical(self, engines):
        _, memory, sharded4, _ = engines
        assert [d.doc_id for d in sharded4.documents()] == [d.doc_id for d in memory.documents()]
        assert sharded4.store_stats().by_source == memory.store_stats().by_source

    def test_shards_are_actually_used(self, engines):
        _, _, sharded4, sharded7 = engines
        assert sum(1 for n in sharded4.store_stats().shard_documents if n) == 4
        assert sum(1 for n in sharded7.store_stats().shard_documents if n) >= 5


class TestWriteToOneShardReachesEveryShard:
    """One record lands in one shard but moves the corpus-global idf and
    average length every shard scores with: what the other shards cached
    for a term before the write must not survive it."""

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_warm_term_rescored_after_single_shard_ingest(self, corpus, replicas):
        records, _ = corpus
        term = next(
            token
            for token in records[0].tokens
            if {shard_of(r.url, 4) for r in records if token in r.tokens} == {0, 1, 2, 3}
        )
        late = IngestRecord(
            url="http://late.example/one", host="late.example", title="late",
            text="late", tokens=[term, term, "latecomer", "padding"], source="surface",
        )
        memory = InMemoryBackend()
        fanned = ClusterBackend(4, replicas=replicas, deadline_seconds=30)
        for record in records:
            assert fanned.add(record) == memory.add(record)
        warm = memory.search([term], limit=None)
        for _ in range(4):  # round-robin: every replica of every shard caches the term
            assert fanned.search([term], limit=None) == warm
        assert fanned.add(late) == memory.add(late)
        assert memory.search([term], limit=None) != warm
        for _ in range(4):
            for limit in (None, 1, 10):
                assert fanned.search([term], limit=limit) == memory.search([term], limit=limit)
