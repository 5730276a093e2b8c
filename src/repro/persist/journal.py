"""Resume-aware surfacing over the persisted service's one file.

``surface_many`` over a large webspace is long-running, per-site work;
:class:`ResumableSurfacingScheduler` makes an interrupted run continue
where it stopped while producing the same final output as an
uninterrupted run.  The resume record lives in the service's
:class:`~repro.persist.sqlite.SqliteBackend`: a ``sites`` row per
completed site, committed in one transaction with the site's documents
and bound to one surfacing configuration.

Each fresh site is surfaced with the shared pipeline -- same prober,
probe cache and seeded helpers as a serial run -- pointed at a *scratch*
:class:`~repro.search.engine.SearchEngine` holding the store's documents
for that host, so the site's inserts are staged, not written.  Only a
completed site reaches the store: an interrupted site leaves nothing
behind and re-surfaces from scratch deterministically, while a completed
site is read back from its row without refetching a single page (its
documents were loaded when the store was opened).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.core.surfacer import SiteSurfacingResult
from repro.persist.sqlite import SqliteBackend
from repro.pipeline.pipeline import SurfacingPipeline
from repro.pipeline.scheduler import SurfacingScheduler
from repro.search.engine import SearchEngine
from repro.store.records import IngestRecord
from repro.webspace.site import DeepWebSite


class ResumableSurfacingScheduler(SurfacingScheduler):
    """A serial scheduler that checkpoints every completed site.

    Per site, in order: if the store holds the site's row, its stored
    result is returned without touching the web; otherwise the site is
    surfaced against a scratch engine (so an interruption mid-site leaves
    the store untouched) and its records and row are committed to the
    store together.  Site hosts are unique across a webspace, which is
    what makes the host a sound key and the staged view equal to the
    serial run.

    A freshly surfaced site runs through the pipeline itself, so it emits
    the same live event stream and moves the same probe-cache counters as
    under the serial scheduler.  Stage events for stored sites are *not*
    re-emitted (the work they describe did not run); site start/end
    observer events still fire for every site, so progress output stays
    complete.
    """

    def __init__(self, store: SqliteBackend) -> None:
        self.store = store

    def run(
        self,
        pipeline: SurfacingPipeline,
        sites: Iterable[DeepWebSite],
        start_index: int = 0,
        total: int | None = None,
    ) -> list[SiteSurfacingResult]:
        self.store.bind_config(pipeline.config)
        targets = list(sites)
        total = total if total is not None else start_index + len(targets)
        results: list[SiteSurfacingResult] = []
        for site in targets:
            index = start_index + len(results)
            for observer in pipeline.observers:
                observer.on_site_start(site, index, total)
            result = self.store.site_result(site.host)
            if result is None:
                records, result = self._surface_staged(pipeline, site)
                with self.store.commit_site(site.host, result):
                    pipeline.engine.ingest_records(records)
            results.append(result)
            for observer in pipeline.observers:
                observer.on_site_end(site, result, index, total)
        return results

    @staticmethod
    def _surface_staged(
        pipeline: SurfacingPipeline, site: DeepWebSite
    ) -> tuple[list[IngestRecord], SiteSurfacingResult]:
        base = pipeline.engine
        scratch = SearchEngine(signature_cache=base.signature_cache)
        # Surfacing reads only this host's term counts and URL dedup from
        # the engine, never a ranking, so the preload carries no tokens.
        scratch.ingest_records(
            IngestRecord(doc.url, doc.host, doc.title, doc.text, tokens=(), source=doc.source)
            for doc in base.documents_for_host(site.host)
        )
        staged: list[IngestRecord] = []
        scratch.ingestor.add_listener(lambda record, doc_id: staged.append(record))
        shared = pipeline.context
        pipeline.context = replace(shared, engine=scratch)
        try:
            result = pipeline.surface_site(site)
        finally:
            pipeline.context = shared
        return staged, result
