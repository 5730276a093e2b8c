"""The staged surfacing pipeline composer.

``SurfacingPipeline`` owns the stage list (the seven paper stages by
default), the shared services, and the observer list.  Stages can be
inserted, replaced or ablated by name:

    pipeline = SurfacingPipeline(web, engine, config)
    pipeline.without_stage("index-pages")            # ablation
    pipeline.replace_stage("candidate-values", MyValuesStage())
    pipeline.insert_stage(AuditStage(), after="generate-urls")

``surface_site`` runs one site through the stages and times it
(``SiteSurfacingResult.elapsed_seconds``); ``surface_many`` adds
deterministic per-site progress events.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.core.form_model import SurfacingForm
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


class UnknownStageError(KeyError):
    """Raised when a stage name does not exist in the pipeline."""


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

    # -- stage management ---------------------------------------------------

    @property
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def get_stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise UnknownStageError(name)

    def _index_of(self, name: str) -> int:
        for position, stage in enumerate(self.stages):
            if stage.name == name:
                return position
        raise UnknownStageError(name)

    def replace_stage(self, name: str, stage: Stage) -> "SurfacingPipeline":
        """Swap the named stage for another implementation."""
        self.stages[self._index_of(name)] = stage
        return self

    def without_stage(self, name: str) -> "SurfacingPipeline":
        """Ablate (remove) the named stage."""
        del self.stages[self._index_of(name)]
        return self

    def insert_stage(
        self, stage: Stage, before: str | None = None, after: str | None = None
    ) -> "SurfacingPipeline":
        """Insert a stage before/after a named stage (appended by default)."""
        if before is not None and after is not None:
            raise ValueError("pass at most one of before/after")
        if before is not None:
            self.stages.insert(self._index_of(before), stage)
        elif after is not None:
            self.stages.insert(self._index_of(after) + 1, stage)
        else:
            self.stages.append(stage)
        return self

    def add_observer(self, observer: PipelineObserver) -> "SurfacingPipeline":
        self.observers.append(observer)
        return self

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
        """Run the full staged pipeline for one site."""
        started = time.perf_counter()
        meter = self.web.load_meter
        load_before = meter.total(host=site.host, agent=AGENT_SURFACER)
        probes_before = self.prober.probe_count
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

        result.probes_issued = self.prober.probe_count - probes_before
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
        start_index: int = 0,
        total: int | None = None,
    ) -> list[SiteSurfacingResult]:
        """Surface a batch of sites with progress events and timings.

        ``start_index``/``total`` let a scheduler report batch-local work
        against the global progress bar.
        """
        targets = list(sites)
        total = total if total is not None else start_index + len(targets)
        results: list[SiteSurfacingResult] = []
        for offset, site in enumerate(targets):
            index = start_index + offset
            for observer in self.observers:
                observer.on_site_start(site, index, total)
            result = self.surface_site(site)
            results.append(result)
            for observer in self.observers:
                observer.on_site_end(site, result, index, total)
        return results
