"""Searches running beside an ingest: every ranked id resolves.

The catalog stores a document before its postings become searchable, and
the cluster coordinator reads its document count, total length and df
counters under the lock its writes take, so a search taken during a write
never ranks an id that ``get()`` cannot yet resolve.
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


def record(index: int, tokens: list[str]) -> IngestRecord:
    return IngestRecord(
        url=f"http://ingest.test/{index}",
        host="ingest.test",
        title=f"doc {index}",
        text=" ".join(tokens),
        tokens=tokens,
        source="surface",
    )


def base_records() -> list[IngestRecord]:
    return [record(index, ["base", f"w{index}"]) for index in range(BASE)]


def write_records() -> list[IngestRecord]:
    return [record(BASE + index, ["hot"] * (index + 2)) for index in range(WRITES)]


def prefix_answers() -> set[tuple[tuple[int, float], ...]]:
    """The top-1 ``hot`` answer of a fresh index after each write prefix."""
    reference = InvertedIndex()
    for doc_id, item in enumerate(base_records(), start=1):
        reference.add_document(doc_id, item.tokens)
    answers = {tuple(reference.score(["hot"])[:1])}
    for doc_id, item in enumerate(write_records(), start=BASE + 1):
        reference.add_document(doc_id, item.tokens)
        answers.add(tuple(reference.score(["hot"])[:1]))
    return answers


def searches_beside_an_ingest(backend) -> list[tuple[tuple[int, float], ...]]:
    """One writer ingests ``WRITES`` documents while two readers search
    ``hot``; every reader answer, after any error is re-raised."""
    engine = SearchEngine(backend=backend)
    engine.ingest_records(base_records())
    done = threading.Event()
    errors: list[BaseException] = []
    answers: list[tuple[tuple[int, float], ...]] = []

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

    threads = [threading.Thread(target=writer)] + [
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
    return answers


@pytest.mark.parametrize(
    "make_backend",
    [InMemoryBackend, lambda: ClusterBackend(2, replicas=1, deadline_seconds=30)],
    ids=["memory", "cluster-2x1"],
)
def test_searches_beside_an_ingest_rank_only_resolvable_ids(make_backend):
    # The race window is a few bytecodes wide: three trials make a miss
    # show on (nearly) every run.
    valid = prefix_answers() if make_backend is InMemoryBackend else set()
    for _trial in range(3):
        backend = make_backend()
        try:
            answers = searches_beside_an_ingest(backend)
            assert len(backend) == BASE + WRITES
            assert all(backend.get(doc_id) for answer in answers for doc_id, _ in answer)
            if isinstance(backend, InMemoryBackend):
                assert all(answer in valid for answer in answers)
        finally:
            if isinstance(backend, ClusterBackend):
                backend.close()
