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
import json
import os
import time
from pathlib import Path

import pytest

from repro.api import DeepWebService
from repro.cluster import ClusterBackend
from repro.core.surfacer import SurfacingConfig
from repro.persist import SnapshotError, SqliteBackend
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.serve.loadgen import WorkloadGenerator
from repro.webspace import sitegen
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.sitegen import WebConfig, generate_web

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
    path = service.snapshot(tmp_path_factory.mktemp("snap") / "snapshot.json")
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
    path = service.snapshot(tmp_path / "snapshot.json")
    stamp = json.loads(path.read_text())["created_at"]
    restored = DeepWebService.restore(path)
    for reader in (service, restored):
        age = reader._storage_section()["snapshot_age_seconds"]
        assert age == readings[-1] - stamp


@pytest.mark.smoke
def test_restore_builds_no_deep_site_database(tmp_path, monkeypatch):
    """A restored service answers from its index: 200 searches on the
    restored fetch-ledger ratchet world build no site's database."""
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
    path = service.snapshot(tmp_path / "snapshot.json")
    built = []
    build_database = sitegen.build_database

    def counted(*args):
        built.append(args)
        return build_database(*args)

    monkeypatch.setattr(sitegen, "build_database", counted)
    restored = DeepWebService.restore(path)
    answers = [restored.search(text, k=10) for text in texts]
    sites = len(restored.web.deep_sites())
    # CI greps this line out of a ``-s`` run into the job summary.
    print(
        f"\nrestore: {len(built)} of {sites} deep-site databases built "
        f"after {len(texts)} searches"
    )
    assert built == []
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
    restored = DeepWebService.restore(service.snapshot(tmp_path / "closed.json"))
    with restored.frontend, service.frontend:
        assert restored.frontend.cache.generation == stamped + 1
        assert service.frontend.cache.generation == stamped
    # ...and a frontend closed after the restore raises the floor again.
    with service.frontend as replacement:
        service.crawl(max_pages=60)
        reached = replacement.cache.generation
    assert reached > stamped
    assert service.cache_generation == reached


def test_restore_into_reopened_sqlite_store(tmp_path):
    """Restoring against the reopened sqlite file dedups onto its ids."""
    store = SqliteBackend(tmp_path / "store.sqlite3")
    service = (
        DeepWebService.build().web(WEB).surfacing(SURFACING).store(store).create()
    )
    service.crawl(max_pages=100)
    service.surface()
    expected = [
        (r.doc_id, r.url, r.score) for r in service.search("toyota dealer", k=20)
    ]
    path = service.snapshot(tmp_path / "snapshot.json")
    service.store.close()

    restored = DeepWebService.restore(path, store=SqliteBackend(tmp_path / "store.sqlite3"))
    assert restored.store.kind == "sqlite"
    assert [
        (r.doc_id, r.url, r.score) for r in restored.search("toyota dealer", k=20)
    ] == expected
    assert restored.web.load_meter.total(agent=AGENT_SURFACER) == 0
    restored.store.close()


def test_cluster_snapshot_restores_into_memory_and_into_another_cluster(tmp_path):
    """A cluster exports its shards' postings as term-sorted streams: a 4 x 2
    snapshot restores into the default store and into a 3 x 1 cluster with
    the same ids, rankings and scores."""
    cluster = ClusterBackend(4, 2, deadline_seconds=30)
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).store(cluster).create()
    service.crawl(max_pages=100)
    service.surface()
    service.harvest_tables()
    expected = answers(service)
    path = service.snapshot(tmp_path / "cluster.json")
    assert cluster.degraded_searches == 0
    other = ClusterBackend(3, 1, deadline_seconds=30)
    for restored in (DeepWebService.restore(path), DeepWebService.restore(path, store=other)):
        assert answers(restored) == expected
        assert normalized_index(restored.engine) == normalized_index(service.engine)
    assert restored.store is other and other.degraded_searches == 0


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_a_failed_snapshot_write_keeps_the_previous_snapshot(tmp_path, monkeypatch, failing):
    """A write that runs out of space part-way, or a rename that is refused,
    is a SnapshotError: the scratch file is gone and the snapshot already
    at the path is byte-for-byte what it was."""
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    service.crawl(max_pages=30)
    path = service.snapshot(tmp_path / "snapshot.json")
    before = path.read_bytes()
    service.crawl(max_pages=60)
    if failing == "write":
        write_text = Path.write_text

        def write_half_then_fail(self, text, *args, **kwargs):
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    else:

        def refuse(source, target):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(SnapshotError, match="not written.*previous snapshot is unchanged"):
        service.snapshot(path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["snapshot.json"]


def test_restore_refuses_a_store_holding_more_than_the_snapshot(tmp_path):
    """The replay dedups a snapshot's documents onto the store's ids 1..N,
    so the id check alone passes on a store holding the snapshot *and*
    more; the restored service must not serve a corpus it has no results,
    corpus or harvest state for."""
    store_path = tmp_path / "store.sqlite3"
    service = (
        DeepWebService.build().web(WEB).surfacing(SURFACING).store(SqliteBackend(store_path)).create()
    )
    service.crawl(max_pages=40)
    path = service.snapshot(tmp_path / "snapshot.json")
    service.surface()
    assert len(service.store) > 40
    service.store.close()

    with SqliteBackend(store_path) as store:
        with pytest.raises(SnapshotError, match="exactly this corpus"):
            DeepWebService.restore(path, store=store)


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
    assert written == tmp_path / "state" / "snapshot.json"
    assert written.exists()
    service.store.close()


def test_snapshot_without_persist_dir_needs_a_path():
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    with pytest.raises(ValueError, match="explicit path"):
        service.snapshot()


def test_restore_rejects_foreign_and_future_files(tmp_path):
    not_a_snapshot = tmp_path / "other.json"
    not_a_snapshot.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(SnapshotError, match="not a service snapshot"):
        DeepWebService.restore(not_a_snapshot)

    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    path = service.snapshot(tmp_path / "snap.json")
    payload = json.loads(path.read_text())
    payload["format"] = 99
    future = tmp_path / "future.json"
    future.write_text(json.dumps(payload))
    with pytest.raises(SnapshotError, match="format 99"):
        DeepWebService.restore(future)


def test_explicit_web_snapshot_requires_web_on_restore(tmp_path):
    web = generate_web(WEB)
    service = DeepWebService.build().web(web).surfacing(SURFACING).create()
    service.crawl(max_pages=50)
    path = service.snapshot(tmp_path / "snap.json")
    with pytest.raises(SnapshotError, match="pass web="):
        DeepWebService.restore(path)
    restored = DeepWebService.restore(path, web=generate_web(WEB))
    assert normalized_index(restored.engine) == normalized_index(service.engine)


def test_cache_generation_keeps_rising_across_hops_that_never_serve(round_trip, tmp_path):
    """snapshot -> restore -> snapshot -> restore with the middle service's
    frontend never built: the second restored frontend must still start
    past the first one's generation, not beside it."""
    _, first, _, _ = round_trip
    untouched = DeepWebService.restore(first.snapshot(tmp_path / "hop1.json"))
    assert untouched._frontend is None
    second = DeepWebService.restore(untouched.snapshot(tmp_path / "hop2.json"))
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
    restored = DeepWebService.restore(service.snapshot(tmp_path / "faulted.json"))
    assert any(r.fetch_errors and r.fetch_retries and r.degraded for r in service.results)
    assert fault_accounting(restored) == fault_accounting(service)


@pytest.mark.parametrize(
    "tamper, complaint",
    [
        (lambda payload: payload["results"][0].update(surprise=1), "unknown .'surprise'."),
        (lambda payload: payload["results"][0].pop("host"), "missing .'host'."),
        (lambda payload: payload.update(surprise=1), "unknown .'surprise'."),
        (lambda payload: payload["surfacing_config"].update(max_urls_per_form=0), "positive"),
        (lambda payload: payload["documents"][0].pop("tokens"), "missing .'tokens'."),
        (lambda payload: payload["documents"][0].update(tokens=7), "string, got int"),
        (lambda payload: payload["documents"][-1].update(surprise=1), "unknown .'surprise'."),
        (
            lambda payload: payload["documents"][0].update(
                tokens=payload["documents"][0]["tokens"].split(" ")
            ),
            "string, got list",
        ),
        (lambda payload: payload["documents"].append("a document"), "expected an object"),
    ],
    ids=[
        "unknown-result-key", "missing-result-field", "unknown-top-level-key", "invalid-config",
        "document-without-tokens", "document-tokens-not-a-string", "unknown-document-key",
        "format-3-token-list", "document-not-an-object",
    ],
)
def test_restore_refuses_a_payload_of_another_layout(round_trip, tmp_path, tamper, complaint):
    """An undeclared key, a missing required field and an invalid value are
    snapshot errors, never a bare TypeError / KeyError from a constructor --
    in the stored documents too, whichever entry holds them."""
    _, _, _, path = round_trip
    payload = json.loads(path.read_text())
    tamper(payload)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    with pytest.raises(SnapshotError, match=f"layout.*{complaint}"):
        DeepWebService.restore(tampered)
