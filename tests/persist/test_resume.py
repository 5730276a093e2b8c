"""Resume-aware surfacing: interrupted runs finish byte-identical.

The contract: interrupt ``surface()`` partway, reopen the same
``persist()`` directory and resume, and the final output -- per-site
results, stored documents, rankings -- is byte-identical to a run that
was never interrupted, with no completed site fetched again.  A site is
surfaced straight into the store, and its documents and its ``sites``
row commit in one sqlite transaction, so the crash sweep below stops the
run at every point of a site -- between sites, in the middle of its
surfacing, and at each kind of write -- and checks that the file holds
all of that site or none of it, and that a store whose site transaction
rolled back refuses further use until it is reopened (its in-memory
index no longer matches the file).  Resuming under a different
surfacing config, over a site row this build cannot decode, or from a
file that is not sqlite at all, is refused.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.persist import SqliteBackend, SqliteStoreError
from repro.pipeline.observer import PipelineObserver
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.store.records import IngestRecord
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.sitegen import WebConfig

from reference_normalizers import fault_accounting, normalized_index, normalized_results

WEB = WebConfig(total_deep_sites=5, surface_site_count=1, max_records=60, seed=13)
SURFACING = SurfacingConfig(max_urls_per_form=60)
#: The sweep crashes while writing the third of the five sites, which
#: indexes 51 documents in the clean run.
CRASH_SITE = 2


class CrashAt(PipelineObserver):
    """Raises once, when surfacing reaches the site at ``index`` (simulated crash)."""

    def __init__(self, index: int) -> None:
        self.index = index

    def on_site_start(self, site, index, total) -> None:
        if index == self.index:
            self.index = None
            raise RuntimeError(f"simulated crash at site {index} ({site.host})")


class CrashInsideSite(PipelineObserver):
    """Raises once, when the site at ``index`` ends an index-pages stage
    having indexed at least one document (a crash in mid-surfacing)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.current = None

    def on_site_start(self, site, index, total) -> None:
        self.current = index

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        if (
            self.current == self.index
            and stage_name == "index-pages"
            and ctx.form_result.urls_indexed
        ):
            self.index = None
            raise RuntimeError(f"simulated crash inside site {ctx.site.host}")


class EventLog(PipelineObserver):
    """Records every observer event as ``(kind, site host or stage name,
    urls the current form has indexed *at that moment*)``."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str, int | None]] = []

    def on_site_start(self, site, index, total) -> None:
        self.events.append(("site-start", site.host, None))

    def on_site_end(self, site, result, index, total) -> None:
        self.events.append(("site-end", site.host, None))

    def on_stage_start(self, stage_name, ctx) -> None:
        self.events.append(("stage-start", stage_name, self._indexed(ctx)))

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        self.events.append(("stage-end", stage_name, self._indexed(ctx)))

    @staticmethod
    def _indexed(ctx) -> int | None:
        return None if ctx.form_result is None else ctx.form_result.urls_indexed


def build_service(state=None, observer=None) -> DeepWebService:
    builder = DeepWebService.build().web(WEB).surfacing(SURFACING)
    if state is not None:
        builder = builder.persist(state)
    if observer is not None:
        builder = builder.observer(observer)
    return builder.create()


@pytest.fixture(scope="module")
def clean_run():
    service = build_service()
    service.surface()
    return (
        normalized_results(service.results),
        normalized_index(service.engine),
        [(r.doc_id, r.url, r.score) for r in service.search("toyota price", k=50)],
    )


@pytest.fixture(scope="module")
def serial_observed():
    """Observer events and report of an uninterrupted serial run."""
    log = EventLog()
    service = build_service(observer=log)
    service.surface()
    return log.events, service.report()


class CrashingConnection:
    """Wraps the store's sqlite connection: raises after the
    ``crash_after``-th statement that starts with ``statement`` and binds
    ``host`` has run -- inside the site's transaction, before its commit."""

    def __init__(self, inner, statement: str, host: str, crash_after: int) -> None:
        self.inner, self.statement, self.host = inner, statement, host
        self.remaining = crash_after

    def execute(self, sql, params=()):
        cursor = self.inner.execute(sql, params)
        if sql.startswith(self.statement) and self.host in params:
            self.remaining -= 1
            if self.remaining == 0:
                raise RuntimeError("simulated crash inside the site's transaction")
        return cursor

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize(
    "point, crash_after",
    [
        ("site-start", None),
        ("index-pages", None),
        ("INSERT INTO documents", 1),
        ("INSERT INTO documents", 25),
        ("INSERT INTO documents", 51),
        ("INSERT INTO sites", 1),
    ],
    ids=[
        "site-start",
        "inside-site",
        "first-record",
        "middle-record",
        "last-record",
        "site-row",
    ],
)
def test_crash_point_sweep(tmp_path, clean_run, point, crash_after):
    expected_results, expected_index, expected_search = clean_run
    state = tmp_path / "state"
    observer = {"site-start": CrashAt, "index-pages": CrashInsideSite}.get(point)
    crashed = build_service(state, observer=observer and observer(CRASH_SITE))
    sites = crashed.web.deep_sites()
    host = sites[CRASH_SITE].host
    site_documents = sum(row[2] == host for row in expected_index)
    assert site_documents == 51
    if crash_after is not None:
        crashed.store._connection = CrashingConnection(
            crashed.store._connection, point, host, crash_after
        )
    with pytest.raises(RuntimeError, match="simulated crash"):
        crashed.surface()
    if point == "index-pages":
        assert crashed.store.documents_for_host(host)  # some were indexed

    # What a kill leaves: the file, read beside the still-open service,
    # holds the completed sites whole and nothing of the crashed one.
    completed = [site.host for site in sites[:CRASH_SITE]]
    with closing(sqlite3.connect(state / "store.sqlite3")) as reader:
        stored = reader.execute("SELECT doc_id, url, host FROM documents ORDER BY doc_id")
        assert stored.fetchall() == [row[:3] for row in expected_index if row[2] in completed]
        rows = reader.execute("SELECT host FROM sites ORDER BY seq").fetchall()
        assert [row[0] for row in rows] == completed
        (left_on_disk,) = reader.execute(
            "SELECT COUNT(*) FROM documents WHERE host = ?", (host,)
        ).fetchone()

    if point == "site-start":
        # Outside a site's transaction nothing was written: retrying on the
        # same service finishes the clean run.
        assert normalized_results(crashed.surface()) == expected_results
        assert normalized_index(crashed.engine) == expected_index
    else:
        # Inside it, the in-memory index kept documents the rollback took
        # off disk, so a retry, a later add and a flush are all refused.
        extra = IngestRecord("http://extra.example.com/", "extra.example.com", "t", "x", ("x",))
        for use in (crashed.surface, lambda: crashed.store.add(extra), crashed.store.flush):
            with pytest.raises(SqliteStoreError, match="reopen the file"):
                use()
    crashed.store.close()

    # Reopening checks the stored ids are contiguous; resume is the clean run.
    resumed = build_service(state)
    results = resumed.surface()
    assert normalized_results(results) == expected_results
    assert normalized_index(resumed.engine) == expected_index
    assert [
        (r.doc_id, r.url, r.score) for r in resumed.search("toyota price", k=50)
    ] == expected_search
    # Completed sites were read back, not refetched.
    refetched = [
        site.host
        for site in sites
        if resumed.web.load_meter.total(host=site.host, agent=AGENT_SURFACER)
    ]
    assert refetched == (
        [] if point == "site-start" else [s.host for s in sites[CRASH_SITE:]]
    )
    assert resumed.report().storage["completed_sites"] == len(sites)
    resumed.store.close()
    if point == "index-pages":
        # CI greps this line out of a ``-s`` run into the job summary.
        print(
            f"\nresume: crash inside site {CRASH_SITE} left {left_on_disk} of its "
            f"{site_documents} documents on disk; resumed run equals the clean run"
        )


def test_fully_journaled_run_refetches_nothing(tmp_path, clean_run, serial_observed):
    expected_results, expected_index, _ = clean_run
    serial_events, serial_report = serial_observed
    state = tmp_path / "state"
    first_log = EventLog()
    first = build_service(state, observer=first_log)
    first.surface()
    # On a fresh store surfacing reports live: same events, same order,
    # and a ctx-reading observer sees the same mid-run state as in memory
    # (nothing indexed yet when index-pages starts -- not the site's
    # end-of-run totals).
    assert first_log.events == serial_events
    assert ("stage-start", "index-pages", 0) in first_log.events
    assert any(
        kind == "stage-end" and name == "index-pages" and indexed
        for kind, name, indexed in first_log.events
    )
    open_sites = 0
    for kind, _, _ in first_log.events:
        open_sites += {"site-start": 1, "site-end": -1}.get(kind, 0)
        assert open_sites == 1 or kind == "site-end"  # stages only inside a site
    # The probe-cache counters are the shared prober's, as in memory.
    report = first.report()
    for counter in ("hits", "misses"):
        assert report.probe_cache[counter] == serial_report.probe_cache[counter]
    assert report.stage_metrics["stage_runs"] == serial_report.stage_metrics["stage_runs"]
    first.store.close()

    warm_log = EventLog()
    warm = build_service(state, observer=warm_log)
    results = warm.surface()
    assert normalized_results(results) == expected_results
    assert normalized_index(warm.engine) == expected_index
    assert warm.web.load_meter.total(agent=AGENT_SURFACER) == 0
    # Stored sites did no stage work, so they emit site events only.
    assert warm_log.events == [
        event for event in serial_events if event[0].startswith("site-")
    ]
    warm.store.close()


def test_resume_under_different_config_is_refused(tmp_path):
    service = build_service(tmp_path / "state")
    service.surface(service.web.deep_sites()[:1])
    service.store.close()

    drifted = (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=61))
        .persist(tmp_path / "state")
        .create()
    )
    with pytest.raises(SqliteStoreError, match="different"):
        drifted.surface(drifted.web.deep_sites()[1:2])
    drifted.store.close()


@pytest.mark.parametrize(
    "tamper, complaint",
    [
        (lambda result: result.update(surprise=1), "unknown .'surprise'."),
        (lambda result: result.pop("host"), "missing .'host'."),
    ],
    ids=["unknown-key", "missing-field"],
)
def test_site_result_of_another_layout_is_refused(tmp_path, tamper, complaint):
    """A stored result this build's dataclasses cannot hold is a store
    error, never a bare TypeError / KeyError when the site is resumed."""
    path = tmp_path / "store.sqlite3"
    with SqliteBackend(path) as store:
        store.commit_site(
            "host.example.com", lambda: SiteSurfacingResult("host.example.com", "auto")
        )
    with closing(sqlite3.connect(path)) as raw, raw:
        (payload,) = raw.execute("SELECT result FROM sites").fetchone()
        result = json.loads(payload)
        tamper(result)
        raw.execute("UPDATE sites SET result = ?", (json.dumps(result),))
    with SqliteBackend(path) as store:
        with pytest.raises(SqliteStoreError, match=f"result layout.*{complaint}"):
            store.site_result("host.example.com")


def test_a_file_that_is_not_sqlite_is_refused(tmp_path):
    """A store path holding some other file is a store error, never a bare
    ``sqlite3.DatabaseError``, and the file is left as it was."""
    path = tmp_path / "store.sqlite3"
    path.write_text("not a database\n" * 100)
    with pytest.raises(SqliteStoreError, match="unreadable store file.*not a database"):
        SqliteBackend(path)
    assert path.read_text() == "not a database\n" * 100


# -- what a stored site carries, and what surfacing sees ----------------------


def test_fault_accounting_survives_resume(tmp_path):
    """Per-site fetch errors, retries and the degraded flag come back from
    the stored sites: a resumed report must not read as a clean run."""

    def surface_under_faults() -> tuple[list[tuple], list[str]]:
        service = (
            DeepWebService.build()
            .web(WEB)
            .surfacing(SURFACING)
            .faults(FaultPlan(seed=3, default=FaultSpec(error_rate=0.2), agents=["surfacer"]))
            .resilience(RetryPolicy(max_attempts=2))
            .persist(tmp_path / "faulted")
            .create()
        )
        service.surface()
        with service.store:
            return fault_accounting(service)

    first = surface_under_faults()
    assert any(errors and retries and degraded for _, errors, retries, degraded in first[0])
    assert surface_under_faults() == first  # second run: every site from the store


class TermViews(PipelineObserver):
    """The host term counts the pipeline's engine shows as each stage starts."""

    def __init__(self) -> None:
        self.views: list[tuple[str, str, tuple]] = []

    def on_stage_start(self, stage_name, ctx) -> None:
        counts = ctx.engine.site_term_frequencies(ctx.site.host)
        self.views.append((ctx.site.host, stage_name, tuple(sorted(counts.items()))))


def test_surfacing_over_a_crawled_store_matches_the_memory_run(tmp_path):
    """The identity tests above start from an empty store.  Here every deep
    host already has crawled documents, which keyword seeding counts and
    URL dedup must see in the persisted store exactly as in memory."""

    def crawl_then_surface(state=None):
        views = TermViews()
        service = build_service(state, observer=views)
        service.crawl(max_pages=80)
        crawled_hosts = {doc.host for doc in service.engine.documents()}
        assert crawled_hosts >= {site.host for site in service.web.deep_sites()}
        service.surface()
        if state is not None:
            service.store.close()
        return (
            normalized_results(service.results),
            normalized_index(service.engine),
            views.views,
        )

    serial = crawl_then_surface()
    assert any(counts for _, stage, counts in serial[2] if stage == "discover-forms")
    assert crawl_then_surface(tmp_path / "state") == serial
