"""The staged surfacing pipeline composer.

``SurfacingPipeline`` owns the stage list (the seven paper stages by
default), the shared services, and the observer list.  A different stage
list -- an ablation, a replaced or an extra stage -- is passed whole:

    stages = [s for s in default_stages() if s.name != "index-pages"]
    pipeline = SurfacingPipeline(web, engine, config, stages=stages)

``surface_site`` runs one site through the stages and times it
(``SiteSurfacingResult.elapsed_seconds``); ``surface_many`` is the one
per-site loop: it adds deterministic per-site progress events and, given
the persisted service's sqlite store, commits each site whole.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.form_model import SurfacingForm
from repro.core.probe import ProbeCache
from repro.core.surfacer import (
    FormSurfacingResult,
    SiteSurfacingResult,
    SurfacingConfig,
)
from repro.pipeline.context import PipelineContext
from repro.pipeline.observer import PipelineObserver
from repro.pipeline.stages import SCOPE_FORM, SCOPE_SITE, Stage, default_stages
from repro.search.engine import SearchEngine
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.site import DeepWebSite
from repro.webspace.web import Web

if TYPE_CHECKING:
    from repro.persist.sqlite import SqliteBackend


class SurfacingPipeline:
    """Composable staged implementation of the paper's surfacing system."""

    def __init__(
        self,
        web: Web,
        engine: SearchEngine | None = None,
        config: SurfacingConfig | None = None,
        stages: Sequence[Stage] | None = None,
        observers: Sequence[PipelineObserver] | None = None,
    ) -> None:
        self.context = PipelineContext.create(web, engine, config)
        self.stages: list[Stage] = list(stages) if stages is not None else default_stages()
        self.observers: list[PipelineObserver] = list(observers or [])

    # -- shared services (delegated to the base context) -------------------

    @property
    def web(self) -> Web:
        return self.context.web

    @property
    def engine(self) -> SearchEngine:
        return self.context.engine

    @property
    def config(self) -> SurfacingConfig:
        return self.context.config

    @property
    def prober(self):
        return self.context.prober

    @property
    def coverage_estimator(self):
        return self.context.coverage_estimator

    # -- execution ----------------------------------------------------------

    def _site_stages(self) -> list[Stage]:
        return [stage for stage in self.stages if stage.scope == SCOPE_SITE]

    def _form_stages(self) -> list[Stage]:
        return [stage for stage in self.stages if stage.scope == SCOPE_FORM]

    def _run_stage(self, stage: Stage, ctx: PipelineContext) -> PipelineContext:
        for observer in self.observers:
            observer.on_stage_start(stage.name, ctx)
        started = time.perf_counter()
        ctx = stage.run(ctx)
        elapsed = time.perf_counter() - started
        for observer in self.observers:
            observer.on_stage_end(stage.name, ctx, elapsed)
        return ctx

    def surface_site(self, site: DeepWebSite) -> SiteSurfacingResult:
        """Run the full staged pipeline for one site.

        The site gets a probe memo of its own: nothing one site's probes
        learn is of use to another, so the memo opens when the site starts
        and is dropped when it ends, also when it raises.
        """
        prober = self.prober
        prober.memo = ProbeCache()
        try:
            return self._surface_site(site)
        finally:
            prober.memo = ProbeCache()

    def _surface_site(self, site: DeepWebSite) -> SiteSurfacingResult:
        started = time.perf_counter()
        meter = self.web.load_meter
        load_before = meter.total(host=site.host, agent=AGENT_SURFACER)
        probes_before = self.prober.misses
        errors_before = meter.errors(host=site.host, agent=AGENT_SURFACER)
        retries_before = meter.retries(host=site.host, agent=AGENT_SURFACER)

        def finalize(result: SiteSurfacingResult) -> SiteSurfacingResult:
            result.fetch_errors = (
                meter.errors(host=site.host, agent=AGENT_SURFACER) - errors_before
            )
            result.fetch_retries = (
                meter.retries(host=site.host, agent=AGENT_SURFACER) - retries_before
            )
            result.degraded = result.fetch_errors > 0
            result.elapsed_seconds = time.perf_counter() - started
            return result

        ctx = self.context.for_site(site)
        result = ctx.site_result
        for stage in self._site_stages():
            ctx = self._run_stage(stage, ctx)
        if not ctx.homepage_ok:
            return finalize(result)

        for form in ctx.forms:
            if not form.is_get:
                result.post_forms_skipped += 1
                result.form_results.append(
                    FormSurfacingResult(
                        form_identity=form.identity,
                        method=form.method,
                        skipped=True,
                        skip_reason="POST forms cannot be surfaced",
                    )
                )
                continue
            form_result = self._surface_form(ctx, form)
            result.form_results.append(form_result)
            if not form_result.skipped:
                result.forms_surfaced += 1
                result.urls_generated += form_result.urls_generated
                result.urls_indexed += form_result.urls_indexed

        result.probes_issued = self.prober.misses - probes_before
        result.analysis_load = (
            meter.total(host=site.host, agent=AGENT_SURFACER) - load_before
        )
        result.coverage = self.coverage_estimator.report(site, result.record_sets)
        return finalize(result)

    def _surface_form(self, site_ctx: PipelineContext, form: SurfacingForm) -> FormSurfacingResult:
        ctx = site_ctx.for_form(form)
        if not form.bindable_inputs:
            ctx.form_result.skipped = True
            ctx.form_result.skip_reason = "no bindable inputs"
            return ctx.form_result
        for stage in self._form_stages():
            ctx = self._run_stage(stage, ctx)
            if ctx.form_result.skipped:
                break
        return ctx.form_result

    def surface_many(
        self,
        sites: Iterable[DeepWebSite],
        store: SqliteBackend | None = None,
    ) -> list[SiteSurfacingResult]:
        """Surface a batch of sites with progress events and timings.

        With a ``store`` (what ``persist()`` hands in), the batch is bound
        to this configuration, a site the store has completed is read back
        from its row without a fetch (site events only: its stages did not
        run), and a fresh site is surfaced inside
        :meth:`SqliteBackend.commit_site`, so the file gets all of it or,
        if anything raises, none of it.
        """
        targets = list(sites)
        total = len(targets)
        if store is not None:
            store.bind_config(self.config)
        results: list[SiteSurfacingResult] = []
        for index, site in enumerate(targets):
            for observer in self.observers:
                observer.on_site_start(site, index, total)
            if store is None:
                result = self.surface_site(site)
            else:
                result = store.site_result(site.host) or store.commit_site(
                    site.host, lambda: self.surface_site(site)
                )
            results.append(result)
            for observer in self.observers:
                observer.on_site_end(site, result, index, total)
        return results
