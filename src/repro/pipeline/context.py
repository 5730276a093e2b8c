"""Shared state threaded through the surfacing stages.

A :class:`PipelineContext` carries two kinds of state:

* *services* -- the web, the search engine, the config and the seeded
  helpers (prober, classifier, correlation detector, coverage estimator)
  that every stage shares.  They are created once per pipeline and reused
  across sites, so typed-value draws carry over from one site to the
  next; the prober's binding memo does not (each site gets a fresh one,
  since its keys begin with the form identity and never match another
  site's);
* *scoped work state* -- the site currently being surfaced (homepage HTML,
  discovered forms, the accumulating :class:`SiteSurfacingResult`) and the
  form currently flowing through the form-scoped stages (type predictions,
  candidate values, generated URLs, the :class:`FormSurfacingResult`).

``for_site``/``for_form`` derive a fresh scope while sharing the services,
so stages can be written as pure ``run(ctx) -> ctx`` transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.correlations import CorrelationDetector
from repro.core.coverage import CoverageEstimator
from repro.core.form_model import SurfacingForm
from repro.core.input_types import InputTypeClassifier, TypePrediction, TypedValueLibrary
from repro.core.probe import FormProber
from repro.core.surfacer import (
    FormSurfacingResult,
    SiteSurfacingResult,
    SurfacingConfig,
)
from repro.core.urlgen import GeneratedUrl, UrlGenerationStats
from repro.search.engine import SearchEngine
from repro.util.rng import SeededRng
from repro.webspace.site import DeepWebSite
from repro.webspace.web import Web


@dataclass
class PipelineContext:
    """Everything a stage may read or write.

    Stages mutate the scoped fields in place and return the context; the
    services are shared across every site and form the pipeline processes.
    """

    # -- shared services -------------------------------------------------
    web: Web
    engine: SearchEngine
    config: SurfacingConfig
    rng: SeededRng
    prober: FormProber
    classifier: InputTypeClassifier
    correlations: CorrelationDetector
    coverage_estimator: CoverageEstimator

    # -- site scope ------------------------------------------------------
    site: DeepWebSite | None = None
    homepage_ok: bool = True
    homepage_html: str = ""
    forms: list[SurfacingForm] = field(default_factory=list)
    site_result: SiteSurfacingResult | None = None

    # -- form scope ------------------------------------------------------
    form: SurfacingForm | None = None
    form_result: FormSurfacingResult | None = None
    predictions: dict[str, TypePrediction] = field(default_factory=dict)
    value_sets: dict[str, list[str]] = field(default_factory=dict)
    candidates: list[GeneratedUrl] = field(default_factory=list)
    generation_stats: UrlGenerationStats = field(default_factory=UrlGenerationStats)
    kept: list[GeneratedUrl] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        web: Web,
        engine: SearchEngine | None = None,
        config: SurfacingConfig | None = None,
    ) -> "PipelineContext":
        """Build the service context (the rng child keys are part of the
        seeded-run contract: renaming one changes every seeded result)."""
        config = config or SurfacingConfig()
        rng = SeededRng(config.seed)
        engine = engine if engine is not None else SearchEngine()
        return cls(
            web=web,
            engine=engine,
            config=config,
            rng=rng,
            # One analysis cache per service: a probed page is parsed once,
            # however often it is probed again or indexed.
            prober=FormProber(web, signature_cache=engine.signature_cache),
            classifier=InputTypeClassifier(TypedValueLibrary(rng.child("typed"))),
            correlations=CorrelationDetector(),
            coverage_estimator=CoverageEstimator(rng.child("coverage")),
        )

    def for_site(self, site: DeepWebSite) -> "PipelineContext":
        """A fresh site scope sharing this context's services."""
        return replace(
            self,
            site=site,
            homepage_ok=True,
            homepage_html="",
            forms=[],
            site_result=SiteSurfacingResult(host=site.host, domain=site.domain_name),
            form=None,
            form_result=None,
            predictions={},
            value_sets={},
            candidates=[],
            generation_stats=UrlGenerationStats(),
            kept=[],
        )

    def for_form(self, form: SurfacingForm) -> "PipelineContext":
        """A fresh form scope within the current site scope."""
        return replace(
            self,
            form=form,
            form_result=FormSurfacingResult(form_identity=form.identity, method=form.method),
            predictions={},
            value_sets={},
            candidates=[],
            generation_stats=UrlGenerationStats(),
            kept=[],
        )
