"""SqliteBackend: protocol conformance, durability, and ranking identity.

The durable backend's contract is strict: every read answer -- ids,
rankings, bit-identical scores -- must match the in-memory default, both
while the file is live and after a reopen from disk alone.  The
adversarial interleaving half of this claim lives in
``tests/store/test_property_equivalence.py``; here we pin it on a real
surfaced corpus plus the file-lifecycle behaviors the interleavings
cannot see (reopen, commits, format and parameter pinning, corruption).
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.persist import SqliteBackend, SqliteStoreError
from repro.search.inverted_index import B, K1
from repro.store import IngestRecord, InMemoryBackend
from repro.webspace.sitegen import WebConfig

from reference_normalizers import normalized_index

WEB = WebConfig(total_deep_sites=3, surface_site_count=1, max_records=60, seed=3)
SURFACING = SurfacingConfig(max_urls_per_form=60)


def make_record(n: int, tokens: list[str] | None = None) -> IngestRecord:
    return IngestRecord(
        url=f"http://durable.example.com/page/{n}",
        host="durable.example.com",
        title=f"page {n}",
        text=f"page {n} body",
        tokens=tokens if tokens is not None else ["alpha", "beta", f"page{n}"],
        source="surfaced",
        annotations={"n": str(n)},
    )


def build_service(store=None) -> DeepWebService:
    builder = DeepWebService.build().web(WEB).surfacing(SURFACING)
    if store is not None:
        builder = builder.store(store)
    return builder.create()


# -- protocol conformance ----------------------------------------------------


def test_protocol_surface(tmp_path):
    with SqliteBackend(tmp_path / "store.sqlite3") as backend:
        assert backend.kind == "sqlite"
        assert len(backend) == 0
        first = make_record(1)
        doc_id = backend.add(first)
        assert doc_id == 1
        assert backend.add(make_record(2)) == 2
        # URL-keyed dedup returns the existing id, stores nothing new.
        assert backend.add(first) == 1
        assert len(backend) == 2
        assert backend.doc_id_for_url(first.url) == 1
        assert backend.get(1).url == first.url
        assert [d.doc_id for d in backend.documents()] == [1, 2]
        assert [d.doc_id for d in backend.documents_for_host("durable.example.com")] == [1, 2]
        assert backend.stats().by_source == {"surfaced": 2}
        stats = backend.stats()
        assert stats.backend == "sqlite"
        assert stats.documents == 2
        assert stats.by_source == {"surfaced": 2}
        hits = backend.search(["alpha"], limit=10)
        assert [doc_id for doc_id, _ in hits] == [1, 2]


def test_search_identical_to_memory_on_surfaced_corpus(tmp_path):
    """Ids, order and scores match InMemoryBackend on a real corpus."""
    memory_service = build_service()
    sqlite_service = build_service(SqliteBackend(tmp_path / "corpus.sqlite3"))
    for service in (memory_service, sqlite_service):
        service.crawl(max_pages=100)
        service.surface()
    assert normalized_index(sqlite_service.engine) == normalized_index(
        memory_service.engine
    )
    for query in ["toyota dealer", "camry", "price", "zzz-missing"]:
        expected = [
            (r.doc_id, r.url, r.score, r.source)
            for r in memory_service.search(query, k=25)
        ]
        got = [
            (r.doc_id, r.url, r.score, r.source)
            for r in sqlite_service.search(query, k=25)
        ]
        assert got == expected, f"rankings diverged for {query!r}"
    sqlite_service.store.close()


# -- durability across reopen ------------------------------------------------


def test_reopen_reproduces_state_and_rankings(tmp_path):
    path = tmp_path / "reopen.sqlite3"
    service = build_service(SqliteBackend(path))
    service.crawl(max_pages=100)
    service.surface()
    before_index = normalized_index(service.engine)
    before_search = [
        (r.doc_id, r.score) for r in service.search("toyota price", k=50)
    ]
    service.store.close()

    reopened = SqliteBackend(path)
    assert normalized_index_of_backend(reopened) == before_index
    got = reopened.search("toyota price".split(), limit=50)
    assert [(doc_id, score) for doc_id, score in got] == before_search
    reopened.close()


def normalized_index_of_backend(backend) -> list[tuple]:
    return [
        (doc.doc_id, doc.url, doc.host, doc.title, doc.text, doc.source,
         tuple(sorted(doc.annotations.items())))
        for doc in backend.documents()
    ]


def test_export_records_are_term_sorted_streams_of_the_stored_tokens(tmp_path):
    """A sqlite store exports through its index, live and after a reopen:
    each record holds its document's tokens as a term-sorted stream, with
    its annotations, and re-adding the export scores the same."""
    tokens = ["zeta", "alpha", "alpha", "mid"]  # deliberately unsorted
    path = tmp_path / "export.sqlite3"
    with SqliteBackend(path) as backend:
        backend.add(make_record(1, tokens=tokens))
        backend.add(make_record(2))
        live = backend.export_records()
    with SqliteBackend(path) as backend:
        reopened = backend.export_records()
        expected = backend.search(["alpha", "zeta"])
    assert reopened == live
    assert [record.tokens for record in live] == [sorted(tokens), ["alpha", "beta", "page2"]]
    assert [record.annotations for record in live] == [{"n": "1"}, {"n": "2"}]
    rebuilt = InMemoryBackend()
    for record in live:
        rebuilt.add(record)
    assert rebuilt.search(["alpha", "zeta"]) == expected


def test_a_file_pins_the_module_bm25_parameters(tmp_path):
    """A store file and a snapshot both carry ``k1`` / ``b`` ``meta`` rows
    holding the index's module constants, the parameters its scores were
    computed under."""
    service = build_service(SqliteBackend(tmp_path / "store.sqlite3"))
    service.crawl(max_pages=20)
    service.store.flush()
    snapshot = service.snapshot(tmp_path / "snapshot.sqlite3")
    service.store.close()
    for path in (tmp_path / "store.sqlite3", snapshot):
        with closing(sqlite3.connect(str(path))) as raw:
            stored = dict(raw.execute("SELECT key, value FROM meta WHERE key IN ('k1', 'b')"))
        assert stored == {"k1": repr(K1), "b": repr(B)} == {"k1": "1.5", "b": "0.75"}


# -- commits -------------------------------------------------------------------


def test_writes_commit_at_flush_and_close(tmp_path):
    """Outside a site (``tests/persist/test_resume.py`` sweeps those), an
    add commits only at the next flush or close."""
    path = tmp_path / "commit.sqlite3"
    backend = SqliteBackend(path)
    reader = sqlite3.connect(str(path))

    def committed_rows() -> int:
        return reader.execute("SELECT COUNT(*) FROM documents").fetchone()[0]

    backend.add(make_record(1))
    backend.add(make_record(2))
    assert committed_rows() == 0
    backend.flush()
    assert committed_rows() == 2
    backend.add(make_record(3))
    backend.close()  # close commits the tail
    assert committed_rows() == 3
    reader.close()


# -- pinned parameters and corruption ----------------------------------------


def test_reopen_with_different_bm25_parameters_is_refused(tmp_path):
    """A file whose ``k1`` / ``b`` pin is not this build's BM25 parameters
    (written under others, or edited) is refused on reopen."""
    path = tmp_path / "params.sqlite3"
    with SqliteBackend(path) as backend:
        backend.add(make_record(1))
    for key, other in (("k1", "1.2"), ("b", "0.5")):
        with closing(sqlite3.connect(str(path))) as raw, raw:
            original = raw.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()[0]
            raw.execute("UPDATE meta SET value = ? WHERE key = ?", (other, key))
        with pytest.raises(SqliteStoreError, match=f"incompatible store file .*{key}: file has '{other}'"):
            SqliteBackend(path)
        with closing(sqlite3.connect(str(path))) as raw, raw:
            raw.execute("UPDATE meta SET value = ? WHERE key = ?", (original, key))
    # The original parameters still open fine.
    SqliteBackend(path).close()


def test_file_of_another_format_is_refused(tmp_path):
    """A format-1 file (its resume record was a separate JSONL journal) is
    refused, never half-resumed, and left as it was."""
    path = tmp_path / "old.sqlite3"
    with SqliteBackend(path) as backend:
        backend.add(make_record(1))
    with sqlite3.connect(str(path)) as raw:
        raw.execute("UPDATE meta SET value = '1' WHERE key = 'format'")
        raw.execute("DROP TABLE sites")
    raw.close()
    with pytest.raises(SqliteStoreError, match="format: file has '1', caller wants '4'"):
        SqliteBackend(path)
    with sqlite3.connect(str(path)) as raw:
        tables = {name for (name,) in raw.execute("SELECT name FROM sqlite_master")}
    raw.close()
    assert "sites" not in tables


def test_non_contiguous_doc_ids_are_refused(tmp_path):
    path = tmp_path / "holes.sqlite3"
    with SqliteBackend(path) as backend:
        backend.add(make_record(1))
        backend.add(make_record(2))
    raw = sqlite3.connect(str(path))
    with raw:
        raw.execute("DELETE FROM documents WHERE doc_id = 1")
    raw.close()
    with pytest.raises(SqliteStoreError, match="not contiguous"):
        SqliteBackend(path)


def test_a_repeated_url_is_refused_on_reopen(tmp_path):
    """``documents.url`` carries no UNIQUE constraint, so the reopen refuses
    a repeated URL itself: the in-memory ``add`` would dedup it onto the
    first row and renumber every later document."""
    path = tmp_path / "repeat.sqlite3"
    with SqliteBackend(path) as backend:
        for n in (1, 2, 3):
            backend.add(make_record(n))
    with closing(sqlite3.connect(path)) as raw, raw:
        raw.execute("UPDATE documents SET url = (SELECT url FROM documents WHERE doc_id = 1) "
                    "WHERE doc_id = 2")
    with pytest.raises(SqliteStoreError, match="row 2 repeats the URL of row 1"):
        SqliteBackend(path)


def test_a_token_the_row_cannot_hold_is_refused_before_it_is_indexed(tmp_path):
    """Tokens are stored space-joined, so an empty token or one holding a
    space is refused; the store keeps working."""
    with SqliteBackend(tmp_path / "tokens.sqlite3") as backend:
        with pytest.raises(ValueError, match="empty or holds a space"):
            backend.add(make_record(1, tokens=["alpha", "two words"]))
        assert len(backend) == 0 and backend.search(["alpha"]) == []
        assert backend.add(make_record(1)) == 1


def test_backend_is_not_memory_subclass_in_kind_only(tmp_path):
    """The service report and storage section key off ``kind``."""
    with SqliteBackend(tmp_path / "kind.sqlite3") as backend:
        assert isinstance(backend, InMemoryBackend)
        assert backend.kind == "sqlite"
        assert InMemoryBackend().kind != backend.kind
