"""Resume-aware surfacing: interrupted runs finish byte-identical.

The contract from the issue: interrupt ``surface_many`` partway, resume
against the same journal, and the final output -- per-site results,
stored documents, rankings -- is byte-identical to a run that was never
interrupted.  Both crash windows are exercised: before a site completes
(the staged records never reach journal or store) and after journaling
but before the store replay (the resume heals the store by URL-dedup).
Journal integrity failures must be loud: mid-file corruption, tampered
blobs and config drift all refuse to resume; only a torn final line
(the one state a crash mid-append can produce) is forgiven.
"""

from __future__ import annotations

import json

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.persist import (
    JournalConfigMismatchError,
    JournalCorruptionError,
    ResumableSurfacingScheduler,
    SurfacingJournal,
    record_content_hash,
)
from repro.pipeline.observer import PipelineObserver
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.store.records import IngestRecord
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.sitegen import WebConfig

from reference_normalizers import fault_accounting, normalized_index, normalized_results

WEB = WebConfig(total_deep_sites=5, surface_site_count=1, max_records=60, seed=13)
SURFACING = SurfacingConfig(max_urls_per_form=60)


class CrashAt(PipelineObserver):
    """Raises when surfacing reaches the site at ``index`` (simulated crash)."""

    def __init__(self, index: int) -> None:
        self.index = index

    def on_site_start(self, site, index, total) -> None:
        if index == self.index:
            raise RuntimeError(f"simulated crash at site {index} ({site.host})")


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


def build_service(journal=None, observer=None) -> DeepWebService:
    builder = DeepWebService.build().web(WEB).surfacing(SURFACING)
    if journal is not None:
        builder = builder.scheduler(ResumableSurfacingScheduler(journal))
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


def test_interrupted_then_resumed_output_is_byte_identical(tmp_path, clean_run):
    expected_results, expected_index, expected_search = clean_run
    journal_path = tmp_path / "surfacing.journal"

    crashed = build_service(journal=journal_path, observer=CrashAt(2))
    with pytest.raises(RuntimeError, match="simulated crash"):
        crashed.surface()
    # The two completed sites are journaled; the interrupted one left
    # nothing behind -- not in the journal, not in the store.
    journal = SurfacingJournal(journal_path)
    assert len(journal) == 2
    hosts = {doc.host for doc in crashed.engine.documents()}
    assert hosts == set(journal.completed_hosts)

    resumed = build_service(journal=journal_path)
    results = resumed.surface()
    assert len(results) == len(expected_results)
    assert normalized_results(results) == expected_results
    assert normalized_index(resumed.engine) == expected_index
    assert [
        (r.doc_id, r.url, r.score) for r in resumed.search("toyota price", k=50)
    ] == expected_search
    # The journaled sites were replayed, not refetched: the resume run's
    # web saw surfacer traffic only for the sites the crash never reached.
    for host in journal.completed_hosts:
        assert resumed.web.load_meter.total(host=host, agent=AGENT_SURFACER) == 0


def test_crash_between_surfacing_and_journaling_leaves_no_trace(
    tmp_path, clean_run, monkeypatch
):
    """Crash in the other window: the site surfaced but journaling failed.
    Staging means the store is untouched too, so the site re-surfaces
    from scratch on resume with identical output."""
    expected_results, expected_index, _ = clean_run
    journal_path = tmp_path / "surfacing.journal"

    service = build_service(journal=journal_path)
    original = SurfacingJournal.record_site
    state = {"armed": True}

    def exploding_record_site(self, host, records, result):
        if state["armed"] and len(self._sites) == 1:
            state["armed"] = False
            raise OSError("simulated disk failure before journal append")
        return original(self, host, records, result)

    monkeypatch.setattr(SurfacingJournal, "record_site", exploding_record_site)
    with pytest.raises(OSError, match="simulated disk failure"):
        service.surface()
    journal = SurfacingJournal(journal_path)
    assert len(journal) == 1  # the failed site is absent,
    assert {doc.host for doc in service.engine.documents()} == set(
        journal.completed_hosts
    )  # ...and its staged records never reached the store

    monkeypatch.setattr(SurfacingJournal, "record_site", original)
    resumed = build_service(journal=journal_path)
    results = resumed.surface()
    assert normalized_results(results) == expected_results
    assert normalized_index(resumed.engine) == expected_index


def test_fully_journaled_run_refetches_nothing(tmp_path, clean_run, serial_observed):
    expected_results, expected_index, _ = clean_run
    serial_events, serial_report = serial_observed
    journal_path = tmp_path / "surfacing.journal"
    first_log = EventLog()
    first = build_service(journal=journal_path, observer=first_log)
    first.surface()
    # On a fresh journal the staged worker reports live: same events, same
    # order, and a ctx-reading observer sees the same mid-run state as
    # under the serial scheduler (nothing indexed yet when index-pages
    # starts -- not the site's end-of-run totals).
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
    # The worker's probe-cache counters fold into the shared prober.
    report = first.report()
    for counter in ("hits", "misses"):
        assert report.probe_cache[counter] == serial_report.probe_cache[counter]
    assert report.stage_metrics["stage_runs"] == serial_report.stage_metrics["stage_runs"]

    warm_log = EventLog()
    warm = build_service(journal=journal_path, observer=warm_log)
    results = warm.surface()
    assert normalized_results(results) == expected_results
    assert normalized_index(warm.engine) == expected_index
    assert warm.web.load_meter.total(agent=AGENT_SURFACER) == 0
    # Journaled sites did no stage work, so they emit site events only.
    assert warm_log.events == [
        event for event in serial_events if event[0].startswith("site-")
    ]


def test_resume_under_different_config_is_refused(tmp_path):
    journal_path = tmp_path / "surfacing.journal"
    service = build_service(journal=journal_path)
    service.surface_many(service.web.deep_sites()[:1])

    drifted = (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=61))
        .scheduler(ResumableSurfacingScheduler(journal_path))
        .create()
    )
    with pytest.raises(JournalConfigMismatchError, match="different"):
        drifted.surface_many(drifted.web.deep_sites()[1:2])


# -- journal file integrity --------------------------------------------------


def sample_record(n: int) -> IngestRecord:
    return IngestRecord(
        url=f"http://host.example.com/r/{n}",
        host="host.example.com",
        title=f"r{n}",
        text=f"record {n}",
        tokens=["record", str(n)],
        source="surfaced",
    )


def journal_with_one_site(path) -> SurfacingJournal:
    journal = SurfacingJournal(path)
    journal.ensure_config(SURFACING)
    from repro.core.surfacer import SiteSurfacingResult

    result = SiteSurfacingResult(host="host.example.com", domain="auto")
    journal.record_site("host.example.com", [sample_record(1), sample_record(2)], result)
    return journal


def test_torn_final_line_is_forgiven(tmp_path):
    path = tmp_path / "torn.journal"
    journal_with_one_site(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "site", "host": "half-writ')  # no newline, torn
    reloaded = SurfacingJournal(path)
    assert reloaded.completed_hosts == ["host.example.com"]
    records, result = reloaded.site_entry("host.example.com")
    assert [record.url for record in records] == [
        "http://host.example.com/r/1",
        "http://host.example.com/r/2",
    ]
    assert result.host == "host.example.com"


def test_torn_tail_does_not_poison_later_appends(tmp_path):
    """Crash mid-append, resume, journal two more sites, resume again: the
    fragment must be gone before the first append or it glues onto the
    next entry and the following load refuses the file."""
    from repro.core.surfacer import SiteSurfacingResult

    path = tmp_path / "torn.journal"
    journal_with_one_site(path)
    intact = path.read_bytes()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "site", "host": "half-writ')
    resumed = SurfacingJournal(path)
    assert path.read_bytes() == intact  # the torn tail was truncated away
    for n, host in ((3, "second.example.com"), (4, "third.example.com")):
        resumed.record_site(
            host, [sample_record(n)], SiteSurfacingResult(host=host, domain="auto")
        )
    assert SurfacingJournal(path).completed_hosts == [
        "host.example.com",
        "second.example.com",
        "third.example.com",
    ]


def test_mid_file_corruption_is_refused(tmp_path):
    path = tmp_path / "corrupt.journal"
    journal_with_one_site(path)
    lines = path.read_text().splitlines()
    lines[1] = "@@not json@@"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalCorruptionError, match="undecodable entry at line 2"):
        SurfacingJournal(path)


def test_tampered_blob_is_refused(tmp_path):
    path = tmp_path / "tampered.journal"
    journal_with_one_site(path)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    assert entry["kind"] == "blob"
    entry["record"]["text"] = "tampered"
    lines[1] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalCorruptionError, match="content-hash check"):
        SurfacingJournal(path)


def test_site_referencing_unknown_blob_is_refused(tmp_path):
    path = tmp_path / "dangling.journal"
    journal_with_one_site(path)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[-1])
    assert entry["kind"] == "site"
    entry["records"].append("0" * 64)
    lines[-1] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalCorruptionError, match="unknown blob"):
        SurfacingJournal(path)


def test_shared_records_are_journaled_once(tmp_path):
    """Content-hash dedup: a record seen by two sites stores one blob."""
    path = tmp_path / "dedup.journal"
    journal = journal_with_one_site(path)
    from repro.core.surfacer import SiteSurfacingResult

    journal.record_site(
        "other.example.com",
        [sample_record(1), sample_record(3)],  # record 1 already journaled
        SiteSurfacingResult(host="other.example.com", domain="auto"),
    )
    blob_lines = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if json.loads(line)["kind"] == "blob"
    ]
    assert len(blob_lines) == 3  # records 1, 2, 3 -- record 1 not duplicated
    assert {entry["hash"] for entry in blob_lines} == {
        record_content_hash(sample_record(n)) for n in (1, 2, 3)
    }
    records, _ = SurfacingJournal(path).site_entry("other.example.com")
    assert [record.url for record in records] == [
        "http://host.example.com/r/1",
        "http://host.example.com/r/3",
    ]


@pytest.mark.parametrize(
    "tamper, complaint",
    [
        (lambda result: result.update(surprise=1), "unknown .'surprise'."),
        (lambda result: result.pop("host"), "missing .'host'."),
    ],
    ids=["unknown-key", "missing-field"],
)
def test_site_result_of_another_layout_is_refused(tmp_path, tamper, complaint):
    """A result this build's dataclasses cannot hold is corruption at load,
    never a bare TypeError / KeyError when the site is resumed."""
    path = tmp_path / "layout.journal"
    journal_with_one_site(path)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[-1])
    assert entry["kind"] == "site"
    tamper(entry["result"])
    lines[-1] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalCorruptionError, match=f"result layout.*{complaint}"):
        SurfacingJournal(path)


# -- what the journal carries, and what staging sees ---------------------------


def test_fault_accounting_survives_resume(tmp_path):
    """Per-site fetch errors, retries and the degraded flag replay from the
    journal: a resumed report must not read as a clean run."""

    def surface_under_faults() -> tuple[list[tuple], list[str]]:
        service = (
            DeepWebService.build()
            .web(WEB)
            .surfacing(SURFACING)
            .faults(FaultPlan(seed=3, default=FaultSpec(error_rate=0.2), agents=["surfacer"]))
            .resilience(RetryPolicy(max_attempts=2))
            .scheduler(ResumableSurfacingScheduler(tmp_path / "faulted.journal"))
            .create()
        )
        service.surface()
        return fault_accounting(service)

    first = surface_under_faults()
    assert any(errors and retries and degraded for _, errors, retries, degraded in first[0])
    assert surface_under_faults() == first  # second run: every site from the journal


class TermViews(PipelineObserver):
    """The host term counts the pipeline's engine shows as each stage starts."""

    def __init__(self) -> None:
        self.views: list[tuple[str, str, tuple]] = []

    def on_stage_start(self, stage_name, ctx) -> None:
        counts = ctx.engine.site_term_frequencies(ctx.site.host)
        self.views.append((ctx.site.host, stage_name, tuple(sorted(counts.items()))))


def test_staging_over_a_crawled_store_matches_the_serial_run(tmp_path):
    """The identity tests above start from an empty store.  Here every deep
    host already has crawled documents, which keyword seeding counts and
    URL dedup must see: the scratch engine is preloaded with them."""

    def crawl_then_surface(journal=None):
        views = TermViews()
        service = build_service(journal=journal, observer=views)
        service.crawl(max_pages=80)
        crawled_hosts = {doc.host for doc in service.engine.documents()}
        assert crawled_hosts >= {site.host for site in service.web.deep_sites()}
        service.surface()
        return (
            normalized_results(service.results),
            normalized_index(service.engine),
            views.views,
        )

    serial = crawl_then_surface()
    assert any(counts for _, stage, counts in serial[2] if stage == "discover-forms")
    assert crawl_then_surface(journal=tmp_path / "crawled.journal") == serial
