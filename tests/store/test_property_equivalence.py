"""Property-based backend equivalence under random ingest/search interleavings.

``tests/store/test_store_equivalence.py`` pins equivalence on one real
surfaced corpus ingested up front.  This module attacks the same claim
adversarially: a seeded generator produces ~200-op cases interleaving
ingests (fresh URLs, duplicate URLs, every source tag, occasional empty
token streams) with searches (random vocab/nonsense terms, varying k),
match queries and stat reads -- applied op-for-op to an
:class:`InMemoryBackend` engine, to :class:`ClusterBackend` engines with
3 and 8 shards (one replica), and to the durable
:class:`~repro.persist.SqliteBackend`.  After *every* operation all
implementations must agree exactly: same doc ids, same rankings with
bit-identical scores, same match sets, same stats.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.cluster import ClusterBackend
from repro.datagen import vocab
from repro.persist import SqliteBackend
from repro.search.engine import SearchEngine
from repro.store import IngestRecord
from repro.store.records import (
    SOURCE_DEEP_CRAWLED,
    SOURCE_SURFACE,
    SOURCE_SURFACED,
    SOURCE_VERTICAL,
    SOURCE_WEBTABLE,
)
from repro.util.rng import SeededRng

SOURCES = [
    SOURCE_SURFACE,
    SOURCE_SURFACED,
    SOURCE_DEEP_CRAWLED,
    SOURCE_VERTICAL,
    SOURCE_WEBTABLE,
]

#: Terms the generator draws document tokens and query tokens from; a
#: small pool keeps postings dense so searches actually collide.
TERM_POOL = (
    [make.lower() for make in vocab.CAR_MAKES]
    + [color for color in vocab.CAR_COLORS[:8]]
    + [city.lower().split()[0] for city in vocab.CITY_NAMES[:12]]
    + vocab.FILLER_WORDS[:10]
)


def random_record(rng: SeededRng, url_counter: int) -> IngestRecord:
    tokens = [rng.choice(TERM_POOL) for _ in range(rng.randint(0, 30))]
    host = f"site{rng.randint(0, 5)}.example.com"
    text = " ".join(tokens)
    return IngestRecord(
        url=f"http://{host}/page/{url_counter}",
        host=host,
        title=f"page {url_counter}",
        text=text,
        tokens=tokens,
        source=rng.choice(SOURCES),
    )


def random_query(rng: SeededRng) -> str:
    terms = [rng.choice(TERM_POOL) for _ in range(rng.randint(1, 3))]
    if rng.maybe(0.1):
        terms.append("zzz-no-such-term")
    return " ".join(terms)


class Interleaving:
    """One seeded op stream applied to all engines in lockstep.

    ``engines[0]`` (the in-memory reference) defines the expected answer
    for every op; every other engine must match it exactly.
    ``extra_backends`` lets callers append further implementations (the
    sqlite-on-tmpdir backend) to the default memory/sharded trio.
    ``close()`` closes every backend that has one (shard workers, files).
    """

    def __init__(self, seed: str, ops: int = 200, extra_backends=()) -> None:
        self.rng = SeededRng(seed)
        self.ops = ops
        self.engines = [
            SearchEngine(),
            # Agreement is asserted op for op: no loaded box misses 30 s.
            SearchEngine(backend=ClusterBackend(3, deadline_seconds=30)),
            SearchEngine(backend=ClusterBackend(8, deadline_seconds=30)),
            *(SearchEngine(backend=backend) for backend in extra_backends),
        ]
        self.ingested: list[IngestRecord] = []
        self.searches = 0
        self.url_counter = 0

    @property
    def reference(self) -> SearchEngine:
        return self.engines[0]

    @property
    def others(self) -> list[SearchEngine]:
        return self.engines[1:]

    def run(self) -> None:
        for _ in range(self.ops):
            self.step()

    def close(self) -> None:
        for engine in self.engines:
            if hasattr(engine.backend, "close"):
                engine.backend.close()

    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.45:
            self.op_ingest_fresh()
        elif roll < 0.55:
            self.op_ingest_duplicate()
        elif roll < 0.85:
            self.op_search()
        elif roll < 0.95:
            self.op_matching_documents()
        else:
            self.op_stats()

    # -- operations ----------------------------------------------------------

    def op_ingest_fresh(self) -> None:
        self.url_counter += 1
        record = random_record(self.rng, self.url_counter)
        self.ingested.append(record)
        ids = [engine.ingest_records([record])[0] for engine in self.engines]
        assert len(set(ids)) == 1, f"doc ids diverged for {record.url}: {ids}"

    def op_ingest_duplicate(self) -> None:
        """Re-ingesting a stored URL must return the existing id everywhere."""
        if not self.ingested:
            return self.op_ingest_fresh()
        original = self.rng.choice(self.ingested)
        ids = [engine.ingest_records([original])[0] for engine in self.engines]
        expected = self.reference.backend.doc_id_for_url(original.url)
        assert ids == [expected] * len(self.engines)

    def op_search(self) -> None:
        query = random_query(self.rng)
        k = self.rng.choice([1, 3, 10, 50, None])
        self.searches += 1
        if k is None:  # full ranking through the backend seam
            tokens = query.split()
            expected = self.reference.backend.search(tokens, limit=None)
            for engine in self.others:
                assert engine.backend.search(tokens, limit=None) == expected
            return
        expected = [
            (r.doc_id, r.url, r.host, r.title, r.score, r.source)
            for r in self.reference.search(query, k=k)
        ]
        for engine in self.others:
            got = [
                (r.doc_id, r.url, r.host, r.title, r.score, r.source)
                for r in engine.search(query, k=k)
            ]
            assert got == expected, f"top-{k} diverged for {query!r}"

    def op_matching_documents(self) -> None:
        query = random_query(self.rng)
        require_all = self.rng.maybe(0.5)
        expected = [
            d.doc_id
            for d in self.reference.matching_documents(query, require_all=require_all)
        ]
        for engine in self.others:
            got = [
                d.doc_id
                for d in engine.matching_documents(query, require_all=require_all)
            ]
            assert got == expected

    def op_stats(self) -> None:
        reference = self.reference
        for engine in self.others:
            assert len(reference) == len(engine)
            assert reference.store_stats().by_source == engine.store_stats().by_source
        host = f"site{self.rng.randint(0, 5)}.example.com"
        expected = [d.doc_id for d in reference.documents_for_host(host)]
        for engine in self.others:
            assert [d.doc_id for d in engine.documents_for_host(host)] == expected

    # -- final-state checks --------------------------------------------------

    def assert_final_state_identical(self) -> None:
        """Every stored document identical in all backends, URLs unique."""
        docs = [
            (d.doc_id, d.url, d.host, d.text, d.source)
            for d in self.reference.documents()
        ]
        for engine in self.others:
            assert [
                (d.doc_id, d.url, d.host, d.text, d.source) for d in engine.documents()
            ] == docs
        assert len(docs) == len({url for _, url, _, _, _ in docs})


@pytest.mark.parametrize("seed", ["case-a", "case-b", "case-c", "case-d"])
def test_random_interleavings_agree(seed, tmp_path):
    sqlite = SqliteBackend(tmp_path / f"{seed}.sqlite3")
    with closing(Interleaving(seed, ops=200, extra_backends=[sqlite])) as case:
        case.run()
        # The case must have exercised both paths to mean anything.
        assert len(case.ingested) > 40
        assert case.searches > 20
        case.assert_final_state_identical()


def test_sqlite_engine_agrees_after_reopen(tmp_path):
    """The durable backend must still agree op-for-op after a reopen
    (fresh process simulation: state reloaded from the file alone)."""
    path = tmp_path / "reopen.sqlite3"
    case = Interleaving("reopen-case", ops=120, extra_backends=[SqliteBackend(path)])
    with closing(case):
        case.run()
        case.engines[-1].backend.close()
        case.engines[-1] = SearchEngine(backend=SqliteBackend(path))
        for _ in range(60):  # keep interleaving against the reopened file
            case.step()
        case.assert_final_state_identical()


def test_interleavings_are_reproducible():
    """The op stream itself is a function of the seed alone."""
    with closing(Interleaving("repro-check", ops=60)) as first:
        first.run()
    with closing(Interleaving("repro-check", ops=60)) as second:
        second.run()
    assert [r.url for r in first.ingested] == [r.url for r in second.ingested]
    assert [r.tokens for r in first.ingested] == [r.tokens for r in second.ingested]
