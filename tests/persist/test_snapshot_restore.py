"""Whole-service snapshot/restore: warm restarts with zero re-surfacing.

The tentpole claim: ``service.snapshot(path)`` followed by
``DeepWebService.restore(path)`` yields a service whose
``search``/``search_all``/``query()`` answers are byte-identical to the
original -- ids, order, scores -- while the regenerated web records
*zero* surfacing work (no crawling, no form probing, no URL fetches by
the surfacer).  Also pinned here: the report's ``storage`` section and
the serving-cache generation fix (a restored frontend must never serve a
pre-snapshot ranking as fresh).
"""

from __future__ import annotations

import errno
import itertools
import os
import shutil
import sqlite3
import struct
import sys
import time
from contextlib import closing
from dataclasses import replace

import pytest

from repro.api import DeepWebService
from repro.cluster import ClusterBackend
from repro.core.surfacer import SurfacingConfig
from repro.persist import SnapshotError, SqliteBackend, SqliteStoreError
from repro.store import InMemoryBackend, IngestRecord
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.search.inverted_index import InvertedIndex
from repro.serve.loadgen import WorkloadGenerator
from repro.webspace import sitegen
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.page import WebPage
from repro.webspace.sitegen import WebConfig, generate_web
from repro.webspace.url import Url

from reference_normalizers import fault_accounting, normalized_index, normalized_results

WEB = WebConfig(total_deep_sites=3, surface_site_count=1, max_records=60, seed=3)
SURFACING = SurfacingConfig(max_urls_per_form=60)
QUERIES = ["toyota dealer", "price camry", "used honda", "city zipcode"]


def build_and_fill() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SURFACING)
        .serving(workers=2, cache_size=64)
        .create()
    )
    # Build the frontend before ingesting: its ingest listener stamps the
    # cache generation per document, which the snapshot must carry over.
    assert service.frontend.cache.generation == 0
    service.crawl(max_pages=100)
    service.surface()
    service.harvest_tables()
    return service


def answers(service: DeepWebService) -> dict[str, list[tuple]]:
    out = {}
    for query in QUERIES:
        out[f"search:{query}"] = [
            (r.doc_id, r.url, r.score, r.source) for r in service.search(query, k=15)
        ]
        out[f"search_all:{query}"] = [
            (r.doc_id, r.url, r.score, r.source)
            for r in service.query(query, k=15, min_per_source=3, include_webtables=False).results
        ]
        plan_result = service.query(query, k=10)
        out[f"query:{query}"] = [
            (r.doc_id, r.url, r.score, r.source) for r in plan_result.results
        ]
    return out


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    service = build_and_fill()
    expected = answers(service)
    # Serve through the frontend so the cache has stamped generations.
    service.frontend.serve("toyota dealer", k=10)
    path = service.snapshot(tmp_path_factory.mktemp("snap") / "snapshot.sqlite3")
    restored = DeepWebService.restore(path)
    return service, restored, expected, path


def test_restored_answers_are_byte_identical(round_trip):
    service, restored, expected, _ = round_trip
    assert answers(restored) == expected
    assert normalized_index(restored.engine) == normalized_index(service.engine)
    assert normalized_results(restored.results) == normalized_results(service.results)


def test_restore_does_zero_surfacing_work(round_trip):
    _, restored, _, _ = round_trip
    # Answering queries above touched the regenerated web not at all:
    # the planner's default plans never probe, and the harvest is
    # settled by the snapshot bookkeeping.
    assert restored.web.load_meter.total(agent=AGENT_SURFACER) == 0
    assert restored.web.load_meter.total() == 0


def test_restore_round_trips_bookkeeping(round_trip):
    service, restored, _, path = round_trip
    assert restored.crawl_stats == service.crawl_stats
    assert restored.corpus.tables == service.corpus.tables
    assert restored.corpus.form_schemas == service.corpus.form_schemas
    assert restored.corpus.form_values == service.corpus.form_values
    assert restored.corpus.stats == service.corpus.stats
    assert restored._harvest.settled == service._harvest.settled
    assert restored._restored_from == path


def test_report_storage_section(round_trip):
    service, restored, _, path = round_trip
    report = service.report()
    assert report.store == service.store.stats()
    assert report.store.backend == "memory"
    assert report.store.documents == len(service.store)
    section = report.storage
    assert section["snapshot_path"] == str(path)
    assert section["snapshot_age_seconds"] >= 0.0
    assert "restored_from" not in section

    restored_report = restored.report()
    assert restored_report.store == report.store
    assert restored_report.storage["restored_from"] == str(path)

    lines = restored.report().lines()
    storage_lines = [line for line in lines if line.startswith("storage:")]
    assert storage_lines == [
        f"storage: memory backend, {len(service.store)} documents "
        "(restored from snapshot)"
    ]


def test_writer_and_restored_service_age_the_snapshot_from_one_stamp(tmp_path, monkeypatch):
    """The service that wrote a snapshot and one restored from it report the
    snapshot's age from the same ``created_at``: the stamp in the file."""
    readings: list[float] = []

    def clock() -> float:  # strictly increasing, one second per reading
        readings.append(1000.0 + len(readings))
        return readings[-1]

    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    monkeypatch.setattr(time, "time", clock)
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    with closing(sqlite3.connect(path)) as raw:
        (stamp,) = raw.execute("SELECT value FROM meta WHERE key = 'created_at'").fetchone()
    stamp = float(stamp)
    restored = DeepWebService.restore(path)
    for reader in (service, restored):
        age = reader._storage_section()["snapshot_age_seconds"]
        assert age == readings[-1] - stamp


@pytest.mark.smoke
def test_restore_builds_no_deep_site_database(tmp_path, monkeypatch):
    """A restored service answers from its index: the restore loads the
    postings (no document is re-indexed), and 200 searches on the restored
    fetch-ledger ratchet world build no site's database."""
    world = WebConfig(total_deep_sites=4, surface_site_count=1, max_records=120, seed=24)
    service = (
        DeepWebService.build()
        .web(world)
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    service.surface()
    population = [query.text for query in WorkloadGenerator(service.web).population()]
    texts = list(itertools.islice(itertools.cycle(population), 200))
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    built = []
    build_table = sitegen.build_table

    def counted(*args):
        built.append(args)
        return build_table(*args)

    monkeypatch.setattr(sitegen, "build_table", counted)
    indexed = []
    add_document = InvertedIndex.add_document

    def counted_add(index, doc_id, tokens):
        indexed.append(doc_id)
        return add_document(index, doc_id, tokens)

    monkeypatch.setattr(InvertedIndex, "add_document", counted_add)
    restored = DeepWebService.restore(path)
    reindexed = len(indexed)
    answers = [restored.search(text, k=10) for text in texts]
    sites, documents = len(restored.web.deep_sites()), len(restored.store)
    # CI greps this line out of a ``-s`` run into the job summary.
    print(
        f"\nrestore: {len(built)} of {sites} deep-site databases built "
        f"after {len(texts)} searches; snapshot of {documents} documents, "
        f"{path.stat().st_size / documents:.0f} bytes per document, "
        f"{reindexed} documents re-indexed"
    )
    assert built == []
    assert reindexed == 0
    assert answers == [service.search(text, k=10) for text in texts]
    assert any(answers)


def test_restored_cache_generation_never_serves_stale_rankings(round_trip):
    """The fix pinned by this test: the restored cache starts one past
    the snapshotted generation, so a ranking carried across the restart
    stamped with any pre-snapshot generation can never come back fresh."""
    service, restored, _, _ = round_trip
    snapshot_generation = service.frontend.cache.generation
    assert snapshot_generation > 0  # ingests bumped it; the pin is meaningful
    cache = restored.frontend.cache
    assert cache.generation == snapshot_generation + 1
    # A pre-snapshot entry smuggled into the restored cache is stale on
    # arrival, for every generation the old process could have stamped.
    for stale_generation in (0, 1, snapshot_generation):
        cache.put("toyota dealer", 10, (), generation=stale_generation)
        assert cache.get("toyota dealer", 10) is None
    # Entries stamped by the restored process itself serve normally.
    cache.put("toyota dealer", 10, ())
    assert cache.get("toyota dealer", 10) == ()


def test_restored_report_has_one_set_of_surfacing_totals(round_trip):
    """``stage_metrics`` used to carry second copies of the totals, filled
    by an observer no restore replays: ``urls_indexed`` read 0 there beside
    the report's real figure.  The results are the one owner now."""
    service, restored, _, _ = round_trip
    original, report = service.report(), restored.report()
    assert report.urls_indexed == original.urls_indexed > 0
    assert report.lines()[:4] == original.lines()[:4]
    assert report.sites == restored.results
    # restore ran no stage: every counter is there and empty
    assert report.stage_metrics == {"stage_runs": {}, "stage_seconds": {}, "stage_fetches": {}}


def test_cache_generation_floor_survives_a_closed_frontend(tmp_path):
    """A frontend that was built, stamped generations and was closed still
    counts: the snapshot records what it reached, the restored frontend
    starts past it, and so does its replacement on the original service
    (they started at 1 and 0)."""
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    service.frontend  # listening from the first ingest on
    service.crawl(max_pages=30)
    stamped = service.frontend.cache.generation
    assert stamped >= 30
    service.frontend.close()
    restored = DeepWebService.restore(service.snapshot(tmp_path / "closed.sqlite3"))
    with restored.frontend, service.frontend:
        assert restored.frontend.cache.generation == stamped + 1
        assert service.frontend.cache.generation == stamped
    # ...and a frontend closed after the restore raises the floor again.
    with service.frontend as replacement:
        service.crawl(max_pages=60)
        reached = replacement.cache.generation
    assert reached > stamped
    assert service.cache_generation == reached


def searched(service: DeepWebService) -> list[tuple]:
    """Plain searches only: ``query()`` may surface on demand and grow the
    corpus between calls."""
    return [
        (query, r.doc_id, r.url, r.score)
        for query in QUERIES
        for r in service.search(query, k=20)
    ]


def test_a_sqlite_store_snapshot_restores_without_its_store_file(tmp_path):
    """A snapshot of a service on a sqlite store is self-contained: with the
    store file gone, the restore loads into the default in-memory store
    and answers with the same ids, rankings and scores, surfacing
    nothing."""
    store_path = tmp_path / "store.sqlite3"
    service = build_service_on(SqliteBackend(store_path))
    service.crawl(max_pages=100)
    service.surface()
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    expected = searched(service)
    service.store.close()
    store_path.unlink()

    restored = DeepWebService.restore(path)
    assert restored.store.kind == "memory"
    assert searched(restored) == expected
    assert restored.web.load_meter.total(agent=AGENT_SURFACER) == 0


def test_cluster_snapshot_restores_into_memory(tmp_path):
    """A cluster exports its shards' postings as term-sorted streams: a 4 x 2
    snapshot restores into the default store with the same ids, rankings
    and scores."""
    cluster = ClusterBackend(4, 2, deadline_seconds=30)
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).store(cluster).create()
    service.crawl(max_pages=100)
    service.surface()
    service.harvest_tables()
    expected = answers(service)
    path = service.snapshot(tmp_path / "cluster.sqlite3")
    assert cluster.degraded_searches == 0
    restored = DeepWebService.restore(path)
    assert answers(restored) == expected
    assert normalized_index(restored.engine) == normalized_index(service.engine)


def reindexed(store) -> InvertedIndex:
    """The index a restore built by re-indexing: ``store``'s exported
    records added to an empty backend in doc-id order."""
    backend = InMemoryBackend()
    for record in store.export_records():
        backend.add(record)
    return backend.index


@pytest.mark.parametrize("source", ["memory", "sqlite-store", "cluster-4x2"])
def test_a_loaded_index_equals_the_reindexed_one(tmp_path, source):
    """A restore loads the postings: field for field the index that
    re-indexing the source's export builds -- each term's postings in the
    same (ascending doc id) order, the lengths, the total -- and each
    document's id is one int object, shared by every posting of it, its
    length entry and its catalog entry, as indexing leaves them."""
    store = {
        "memory": InMemoryBackend,
        "sqlite-store": lambda: SqliteBackend(tmp_path / "store.sqlite3"),
        "cluster-4x2": lambda: ClusterBackend(4, 2, deadline_seconds=30),
    }[source]()
    service = build_service_on(store)
    service.crawl(max_pages=150)
    service.surface()
    restored = DeepWebService.restore(service.snapshot(tmp_path / "snapshot.sqlite3"))
    loaded, expected = restored.store.index, reindexed(service.store)
    assert len(loaded) > 256  # past the interpreter's cached small ints
    assert {term: list(posting.items()) for term, posting in loaded._postings.items()} == {
        term: list(posting.items()) for term, posting in expected._postings.items()
    }
    assert list(loaded._doc_lengths.items()) == list(expected._doc_lengths.items())
    assert loaded._total_length == expected._total_length
    shared = {doc_id: doc_id for doc_id in loaded._doc_lengths}
    assert all(shared[doc_id] is doc_id
               for posting in loaded._postings.values() for doc_id in posting)
    assert all(shared[document.doc_id] is document.doc_id
               for document in restored.store.documents())
    assert all(shared[doc_id] is doc_id for doc_id in restored.store._url_to_doc.values())
    if source == "sqlite-store":
        service.store.close()


def test_the_default_restore_bypasses_no_listener_with_state(round_trip):
    """The default restore loads the index without the ingestor, which is
    safe only while no ingest listener holds state: the engine's host-term
    cache is the one listener, still empty, and no frontend exists."""
    _, _, _, path = round_trip
    restored = DeepWebService.restore(path)
    assert restored.engine.ingestor._listeners == [restored.engine._on_ingest]
    assert restored.engine._host_terms == {}
    assert restored._frontend is None


def test_restore_refuses_a_snapshot_of_another_world(tmp_path):
    """The snapshot pins its world's site list (kind, host, size and form
    method per site): a restore against another explicit web, or against a
    regenerated web the recorded config no longer draws, is refused."""
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    service.crawl(max_pages=30)
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    for other in (replace(WEB, seed=4), replace(WEB, max_records=61)):
        with pytest.raises(SnapshotError, match="taken over another world"):
            DeepWebService.restore(path, web=generate_web(other))
    drifted = tampered(path, tmp_path, "UPDATE meta SET value = '\"0\"' WHERE key = 'world'")
    with pytest.raises(SnapshotError, match="another world .site list 0, this web's"):
        DeepWebService.restore(drifted)
    restored = DeepWebService.restore(path, web=generate_web(WEB))
    assert normalized_index(restored.engine) == normalized_index(service.engine)


class ProtocolOnlySite:
    """A site with only what the ``Site`` protocol declares: no ``size()``."""

    host = "plain.example.com"
    kind = "surface"

    def homepage_url(self) -> Url:
        return Url.build(self.host, "/")

    def handle(self, url: Url) -> WebPage:
        return WebPage(url=str(url), html="<html><title>plain</title><body>plain toyota</body></html>")


def test_a_web_with_a_protocol_only_site_snapshots_and_restores(tmp_path):
    """The world digest reads ``size()`` only of the generated site kinds,
    so a web holding a site with nothing beyond the protocol snapshots,
    restores against the same site list and is refused against another."""

    def web():
        built = generate_web(WEB)
        built.register(ProtocolOnlySite())
        return built

    service = DeepWebService.build().web(web()).surfacing(SURFACING).create()
    service.crawl(max_pages=50)
    assert any(document.host == ProtocolOnlySite.host for document in service.store.documents())
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    restored = DeepWebService.restore(path, web=web())
    assert normalized_index(restored.engine) == normalized_index(service.engine)
    with pytest.raises(SnapshotError, match="taken over another world"):
        DeepWebService.restore(path, web=generate_web(WEB))


#: Which statement of the snapshot writer fails, by step.
FAILING_STATEMENT = {
    "schema": lambda sql, rows: sql.startswith("CREATE TABLE"),
    "documents": lambda sql, rows: sql.startswith("INSERT INTO documents"),
    "postings": lambda sql, rows: sql.startswith("INSERT INTO postings"),
    "sites": lambda sql, rows: sql.startswith("INSERT INTO sites"),
    "service-state": lambda sql, rows: sql.startswith("INSERT INTO meta") and "created_at" in dict(rows),
}


class FailingConnection:
    """A sqlite connection that runs every statement, then fails the one
    the step names -- part of its rows may already be in the file."""

    def __init__(self, connection: sqlite3.Connection, step: str) -> None:
        self.connection, self.step = connection, step

    def _run(self, method, sql, rows):
        method(sql, rows)
        if self.step in FAILING_STATEMENT and FAILING_STATEMENT[self.step](sql, rows):
            raise sqlite3.OperationalError("database or disk is full")

    def execute(self, sql, parameters=()):
        self._run(self.connection.execute, sql, parameters)

    def executemany(self, sql, rows):
        self._run(self.connection.executemany, sql, list(rows))

    def commit(self):
        if self.step == "commit":
            raise sqlite3.OperationalError("disk I/O error")
        self.connection.commit()

    def close(self):
        self.connection.close()
        if self.step == "close":
            raise sqlite3.OperationalError("disk I/O error")


@pytest.mark.parametrize(
    "step", ["connect", *FAILING_STATEMENT, "commit", "close", "rename", "unencodable-term"]
)
def test_a_failed_snapshot_write_keeps_the_previous_snapshot(tmp_path, monkeypatch, step):
    """A failure at any step of the writer -- opening the scratch file, each
    table's rows, the commit, the close, the rename, or a term no TEXT
    column can hold -- is a SnapshotError: the scratch file is gone and the
    snapshot already at the path is byte-for-byte what it was."""
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    service.crawl(max_pages=30)
    service.surface(service.web.deep_sites()[:1])
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    before = path.read_bytes()
    service.crawl(max_pages=60)
    connect = sqlite3.connect
    if step == "connect":

        def refuse_to_open(*args, **kwargs):
            raise sqlite3.OperationalError("unable to open database file")

        monkeypatch.setattr(sqlite3, "connect", refuse_to_open)
    elif step == "rename":

        def refuse(source, target):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
    elif step == "unencodable-term":
        # A lone surrogate has no UTF-8 form.
        record = IngestRecord(url="http://odd.example.com/", host="odd.example.com",
                              title="", text="", tokens=["\ud800"])
        service.engine.ingest_records([record])
    else:
        monkeypatch.setattr(
            sqlite3, "connect", lambda *args: FailingConnection(connect(*args), step)
        )
    with pytest.raises(SnapshotError, match="not written.*previous snapshot is unchanged"):
        service.snapshot(path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["snapshot.sqlite3"]


def test_a_site_surfaced_twice_keeps_both_results(tmp_path):
    """``surface()`` lists a site passed twice twice; a snapshot's ``sites``
    rows are its results in order, repeats included."""
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    site = service.web.deep_sites()[0]
    service.surface([site, site])
    restored = DeepWebService.restore(service.snapshot(tmp_path / "twice.sqlite3"))
    assert [r.host for r in restored.results] == [site.host, site.host]
    assert normalized_results(restored.results) == normalized_results(service.results)


def test_restore_loads_a_corpus_a_sqlite_store_cannot_hold(tmp_path):
    """A snapshot stores any term, even one a sqlite store refuses (it joins
    a document's tokens by spaces): a token holding a space restores."""
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    service.engine.ingest_records([IngestRecord(
        url="http://odd.example.com/", host="odd.example.com", title="", text="",
        tokens=["two words"])])
    path = service.snapshot(tmp_path / "snapshot.sqlite3")
    assert DeepWebService.restore(path).store.index.dump() == service.store.index.dump()


def test_snapshot_defaults_to_persist_dir(tmp_path):
    service = (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SURFACING)
        .persist(tmp_path / "state")
        .create()
    )
    service.crawl(max_pages=50)
    written = service.snapshot()
    assert written == tmp_path / "state" / "snapshot.sqlite3"
    assert written.exists()
    service.store.close()


def test_snapshot_without_persist_dir_needs_a_path():
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    with pytest.raises(ValueError, match="explicit path"):
        service.snapshot()


def test_restore_refuses_unreadable_foreign_and_future_files(tmp_path):
    """A missing file, a file that is not sqlite (a JSON snapshot of an
    earlier build) and a sqlite file without the layout are unreadable; a
    store file is not a snapshot; another format is refused by number."""
    legacy = tmp_path / "snapshot.json"
    legacy.write_text('{"kind": "deepweb-service-snapshot", "format": 4}')
    with closing(sqlite3.connect(tmp_path / "empty.sqlite3")) as empty:
        empty.execute("CREATE TABLE other (x)")
    for unreadable, complaint in [
        (tmp_path / "missing.sqlite3", "unable to open"),
        (legacy, "not a database"),
        (tmp_path / "empty.sqlite3", "no such table: meta"),
    ]:
        with pytest.raises(SnapshotError, match=f"unreadable snapshot .*{complaint}"):
            DeepWebService.restore(unreadable)
    assert not (tmp_path / "missing.sqlite3").exists()

    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    path = service.snapshot(tmp_path / "snap.sqlite3")
    for number in ("3", "99"):
        other = tampered(path, tmp_path, f"UPDATE meta SET value = '{number}' WHERE key = 'format'")
        with pytest.raises(SnapshotError, match=f"format '{number}' is not supported"):
            DeepWebService.restore(other)


def test_a_snapshot_and_a_store_file_refuse_each_others_opener(tmp_path):
    """The ``kind`` pin: a snapshot is not opened as a store, nor a store
    file restored as a snapshot, and neither file changes on the way."""
    store_path = tmp_path / "store.sqlite3"
    service = build_service_on(SqliteBackend(store_path))
    service.crawl(max_pages=30)
    snapshot = service.snapshot(tmp_path / "snapshot.sqlite3")
    service.store.close()
    files = {path: path.read_bytes() for path in (store_path, snapshot)}
    with pytest.raises(SqliteStoreError, match="kind: file has 'snapshot', caller wants 'store'"):
        SqliteBackend(snapshot)
    with pytest.raises(SnapshotError, match="not a service snapshot"):
        DeepWebService.restore(store_path)
    assert {path: path.read_bytes() for path in files} == files


def test_explicit_web_snapshot_requires_web_on_restore(tmp_path):
    web = generate_web(WEB)
    service = DeepWebService.build().web(web).surfacing(SURFACING).create()
    service.crawl(max_pages=50)
    path = service.snapshot(tmp_path / "snap.sqlite3")
    with pytest.raises(SnapshotError, match="pass web="):
        DeepWebService.restore(path)
    restored = DeepWebService.restore(path, web=generate_web(WEB))
    assert normalized_index(restored.engine) == normalized_index(service.engine)


def test_cache_generation_keeps_rising_across_hops_that_never_serve(round_trip, tmp_path):
    """snapshot -> restore -> snapshot -> restore with the middle service's
    frontend never built: the second restored frontend must still start
    past the first one's generation, not beside it."""
    _, first, _, _ = round_trip
    untouched = DeepWebService.restore(first.snapshot(tmp_path / "hop1.sqlite3"))
    assert untouched._frontend is None
    second = DeepWebService.restore(untouched.snapshot(tmp_path / "hop2.sqlite3"))
    generations = [
        service.frontend.cache.generation for service in (first, untouched, second)
    ]
    assert generations == sorted(set(generations)), generations
    for service in (untouched, second):
        service.frontend.close()


def test_fault_accounting_survives_restore(tmp_path):
    """Per-site fetch errors, retries and the degraded flag are part of the
    result; a restored report must not read as a clean run."""
    service = (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SURFACING)
        .faults(FaultPlan(seed=3, default=FaultSpec(error_rate=0.2), agents=["surfacer"]))
        .resilience(RetryPolicy(max_attempts=2))
        .create()
    )
    service.surface()
    restored = DeepWebService.restore(service.snapshot(tmp_path / "faulted.sqlite3"))
    assert any(r.fetch_errors and r.fetch_retries and r.degraded for r in service.results)
    assert fault_accounting(restored) == fault_accounting(service)


def tampered(path, tmp_path, *statements):
    """A copy of the snapshot at ``path`` with ``statements`` run on it."""
    copy = tmp_path / f"tampered-{len(list(tmp_path.iterdir()))}.sqlite3"
    shutil.copyfile(path, copy)
    with closing(sqlite3.connect(copy)) as raw, raw:
        for statement in statements:
            raw.execute(statement)
    return copy


def c_int(value: int) -> str:
    """``value`` as the hex of one native C int, as a postings blob holds it."""
    return struct.pack("i", value).hex()


OTHER_BYTEORDER = "big" if sys.byteorder == "little" else "little"


def build_service_on(store) -> DeepWebService:
    return DeepWebService.build().web(WEB).surfacing(SURFACING).store(store).create()


@pytest.mark.parametrize(
    "statement, complaint",
    [
        ("UPDATE sites SET result = json_set(result, '$.surprise', 1) WHERE seq = 1",
         "unknown .'surprise'."),
        ("UPDATE sites SET result = json_remove(result, '$.host') WHERE seq = 1",
         "missing .'host'."),
        ("INSERT INTO meta VALUES ('surprise', '1')", "unknown .'surprise'."),
        ("DELETE FROM meta WHERE key = 'harvest'", "missing .'harvest'."),
        ("UPDATE meta SET value = json_set(value, '$.max_urls_per_form', 0) "
         "WHERE key = 'surfacing_config'", "positive"),
        ("UPDATE meta SET value = '{' WHERE key = 'crawl'", "Expecting property name"),
        ("UPDATE meta SET value = '1.2' WHERE key = 'k1'", "k1: file has '1.2'"),
        ("UPDATE meta SET value = '0.5' WHERE key = 'b'", "b: file has '0.5'"),
        ("ALTER TABLE documents DROP COLUMN tokens", "tables: not the ones"),
        ("ALTER TABLE documents ADD COLUMN surprise TEXT", "tables: not the ones"),
        ("DROP TABLE sites", "no such table: sites"),
        ("UPDATE postings SET doc_ids = CAST(doc_ids || X'00' AS BLOB) WHERE rowid = 1",
         "not a multiple of itemsize"),
        (f"UPDATE postings SET doc_ids = CAST(X'{c_int(2**31 - 1)}' || substr(doc_ids, 5) AS BLOB) "
         "WHERE rowid = 1", "posting for unknown doc id 2147483647"),
        (f"UPDATE postings SET doc_ids = CAST(X'{c_int(-1)}' || substr(doc_ids, 5) AS BLOB) "
         "WHERE rowid = 1", "posting for unknown doc id -1"),
        (f"UPDATE postings SET tfs = CAST(tfs || X'{c_int(1)}' AS BLOB) WHERE rowid = 1",
         "doc ids for .* frequencies"),
        (f"UPDATE meta SET value = '{OTHER_BYTEORDER}' WHERE key = 'byteorder'",
         f"byteorder: file has '{OTHER_BYTEORDER}', caller wants '{sys.byteorder}'"),
        ("UPDATE documents SET length = length + 1 WHERE doc_id = 1",
         "term frequencies total .*, document lengths"),
        ("UPDATE postings SET tfs = zeroblob(length(tfs)) WHERE rowid = 1", "below 1"),
        ("INSERT INTO postings SELECT * FROM postings WHERE rowid = 1", "a term repeats"),
        ("UPDATE postings SET doc_ids = 'ids' WHERE rowid = 1", "bytes-like object"),
        ("UPDATE documents SET url = (SELECT url FROM documents WHERE doc_id = 1) "
         "WHERE doc_id = 2", "1 stored URLs repeat"),
        ("UPDATE documents SET annotations = '7' WHERE doc_id = 2", "not iterable"),
        ("DELETE FROM documents WHERE doc_id = 2", "not contiguous .row 3 is number 2."),
    ],
    ids=[
        "unknown-result-key", "missing-result-field", "unknown-meta-key", "missing-meta-entry",
        "invalid-config", "meta-value-not-json", "other-bm25-k1", "other-bm25-b",
        "document-without-tokens",
        "unknown-document-column", "no-sites-table", "postings-blob-ragged",
        "posting-id-past-n", "posting-id-negative", "postings-blob-lengths-differ",
        "other-byteorder",
        "tf-total-not-length-total", "tf-below-one", "term-repeated", "postings-blob-not-bytes",
        "url-repeated", "annotations-not-an-object", "doc-ids-not-contiguous",
    ],
)
def test_restore_refuses_a_file_of_another_layout(round_trip, tmp_path, statement, complaint):
    """An undeclared key, a missing required field, an invalid value, a
    table of other columns, a row that will not decode and postings no
    indexing could leave are snapshot errors, never a bare TypeError /
    KeyError / sqlite3 error -- in the ``meta`` and ``sites`` rows and in
    the stored documents and postings alike."""
    _, _, _, path = round_trip
    with pytest.raises(SnapshotError, match=f"layout.*{complaint}"):
        DeepWebService.restore(tampered(path, tmp_path, statement))
