"""Searches running beside an ingest: every ranked id resolves.

The catalog stores a document (and its source tag) before its postings
become searchable, and the cluster coordinator reads its document count,
total length and df counters under the lock its writes take, so a search
taken during a write -- plain or per source -- never ranks an id that
``get()`` cannot yet resolve.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import ClusterBackend
from repro.search.engine import SearchEngine
from repro.search.inverted_index import InvertedIndex
from repro.store import InMemoryBackend
from repro.store.records import IngestRecord

BASE = 200
WRITES = 2000
SOURCES = ("surface", "surfaced", "webtable")


def record(index: int, tokens: list[str]) -> IngestRecord:
    return IngestRecord(
        url=f"http://ingest.test/{index}",
        host="ingest.test",
        title=f"doc {index}",
        text=" ".join(tokens),
        tokens=tokens,
        source=SOURCES[index % len(SOURCES)],
    )


def base_records() -> list[IngestRecord]:
    return [record(index, ["base", f"w{index}"]) for index in range(BASE)]


def write_records() -> list[IngestRecord]:
    return [record(BASE + index, ["hot"] * (index + 2)) for index in range(WRITES)]


Answer = tuple[tuple[int, float], ...]


def best_of_each_source(ranked: list[tuple[int, float]], sources: list[str]) -> Answer:
    """The grouped top-1 read off a full ranking: each source's first pair."""
    seen: set[str] = set()
    kept = []
    for doc_id, score in ranked:
        if sources[doc_id] not in seen:
            seen.add(sources[doc_id])
            kept.append((doc_id, score))
    return tuple(kept)


def prefix_answers() -> tuple[set[Answer], set[Answer]]:
    """The top-1 ``hot`` answer of a fresh index after each write prefix,
    and the top-1 of each source."""
    reference = InvertedIndex()
    sources = [""] + [item.source for item in base_records() + write_records()]
    answers: tuple[set[Answer], set[Answer]] = (set(), set())

    def read() -> None:
        ranked = reference.score(["hot"])
        answers[0].add(tuple(ranked[:1]))
        answers[1].add(best_of_each_source(ranked, sources))

    for doc_id, item in enumerate(base_records(), start=1):
        reference.add_document(doc_id, item.tokens)
    read()
    for doc_id, item in enumerate(write_records(), start=BASE + 1):
        reference.add_document(doc_id, item.tokens)
        read()
    return answers


def searches_beside_an_ingest(backend) -> tuple[list[Answer], list[Answer]]:
    """One writer ingests ``WRITES`` documents while two readers search
    ``hot`` and a third ranks its best of each source; every answer of
    either kind, after any error is re-raised."""
    engine = SearchEngine(backend=backend)
    engine.ingest_records(base_records())
    done = threading.Event()
    errors: list[BaseException] = []
    answers: list[Answer] = []
    grouped: list[Answer] = []

    def writer() -> None:
        try:
            for item in write_records():
                engine.ingest_records([item])
        except BaseException as error:  # re-raised by the main thread below
            errors.append(error)
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set():
                answers.append(tuple((hit.doc_id, hit.score) for hit in engine.search("hot", k=1)))
        except BaseException as error:  # re-raised by the main thread below
            errors.append(error)

    def per_source_reader() -> None:
        try:
            while not done.is_set():
                grouped.append(tuple(engine.rank("hot", k=1, per_source=True)))
        except BaseException as error:  # re-raised by the main thread below
            errors.append(error)

    threads = [threading.Thread(target=writer), threading.Thread(target=per_source_reader)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return answers, grouped


@pytest.mark.parametrize(
    "make_backend",
    [InMemoryBackend, lambda: ClusterBackend(2, replicas=1, deadline_seconds=30)],
    ids=["memory", "cluster-2x1"],
)
def test_searches_beside_an_ingest_rank_only_resolvable_ids(make_backend):
    # The race window is a few bytecodes wide: three trials make a miss
    # show on (nearly) every run.
    valid, valid_grouped = prefix_answers() if make_backend is InMemoryBackend else (set(), set())
    for _trial in range(3):
        backend = make_backend()
        try:
            answers, grouped = searches_beside_an_ingest(backend)
            assert len(backend) == BASE + WRITES
            for answer in answers + grouped:
                assert all(backend.get(doc_id) for doc_id, _ in answer)
            if isinstance(backend, InMemoryBackend):
                assert all(answer in valid for answer in answers)
                assert all(answer in valid_grouped for answer in grouped)
        finally:
            if isinstance(backend, ClusterBackend):
                backend.close()
