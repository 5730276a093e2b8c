"""Stage-level unit tests for the staged surfacing pipeline."""

from __future__ import annotations

import pytest

from repro import SurfacingConfig
from repro.pipeline import (
    CandidateValueStage,
    CorrelationDetectionStage,
    FormDiscoveryStage,
    IndexingStage,
    InputClassificationStage,
    PipelineContext,
    Stage,
    TemplateSelectionStage,
    UrlGenerationStage,
    default_stages,
)
from repro.search.engine import SOURCE_SURFACED, SearchEngine
from repro.webspace.web import Web

pytestmark = pytest.mark.smoke

#: Form-scoped stages in paper order, for running a context "up to" a stage.
FORM_STAGE_ORDER = [
    InputClassificationStage,
    CorrelationDetectionStage,
    CandidateValueStage,
    TemplateSelectionStage,
    UrlGenerationStage,
    IndexingStage,
]


def run_through(ctx: PipelineContext, upto: type) -> PipelineContext:
    """Run the form stages in order until (and including) ``upto``."""
    for stage_cls in FORM_STAGE_ORDER:
        ctx = stage_cls().run(ctx)
        if stage_cls is upto:
            break
    return ctx


@pytest.fixture
def site_ctx(car_web, car_site):
    ctx = PipelineContext.create(
        car_web, SearchEngine(), SurfacingConfig(max_urls_per_form=200)
    )
    return FormDiscoveryStage().run(ctx.for_site(car_site))


@pytest.fixture
def form_ctx(site_ctx):
    assert site_ctx.forms, "discovery must find the car form"
    return site_ctx.for_form(site_ctx.forms[0])


class TestFormDiscoveryStage:
    def test_discovers_forms_and_homepage(self, site_ctx, car_site):
        assert site_ctx.homepage_ok
        assert site_ctx.homepage_html
        assert len(site_ctx.forms) == 1
        assert site_ctx.site_result.forms_found == 1
        assert site_ctx.forms[0].host == car_site.host

    def test_marks_unreachable_homepage(self, car_site):
        empty_web = Web()  # the site is not registered, so the fetch fails
        ctx = PipelineContext.create(empty_web, SearchEngine(), SurfacingConfig())
        ctx = FormDiscoveryStage().run(ctx.for_site(car_site))
        assert not ctx.homepage_ok
        assert ctx.forms == []


class TestInputClassificationStage:
    def test_predicts_types_for_text_inputs(self, form_ctx):
        ctx = run_through(form_ctx, InputClassificationStage)
        assert ctx.predictions
        assert "zipcode" in set(ctx.form_result.typed_inputs.values())


class TestCorrelationDetectionStage:
    def test_detects_price_range_pair(self, form_ctx):
        ctx = run_through(form_ctx, CorrelationDetectionStage)
        assert {pair.property_name for pair in ctx.form_result.range_pairs} >= {"price"}

    def test_config_can_disable_detection(self, site_ctx):
        site_ctx.config = SurfacingConfig(range_aware=False, db_selection_aware=False)
        ctx = run_through(site_ctx.for_form(site_ctx.forms[0]), CorrelationDetectionStage)
        assert ctx.form_result.range_pairs == []
        assert ctx.form_result.database_selection is None


class TestCandidateValueStage:
    def test_assembles_value_sets(self, form_ctx):
        ctx = run_through(form_ctx, CandidateValueStage)
        assert ctx.value_sets
        assert all(values for values in ctx.value_sets.values())
        # The max input of a detected range pair is handled by range-aware
        # URL generation, never enumerated independently.
        for pair in ctx.form_result.range_pairs:
            assert pair.max_input not in ctx.value_sets

    def test_respects_value_budget(self, form_ctx):
        budget = form_ctx.config.max_values_per_input
        ctx = run_through(form_ctx, CandidateValueStage)
        assert all(len(values) <= budget for values in ctx.value_sets.values())


class TestTemplateSelectionStage:
    def test_selects_bounded_informative_templates(self, form_ctx):
        ctx = run_through(form_ctx, TemplateSelectionStage)
        templates = ctx.form_result.templates_selected
        assert templates
        assert len(templates) <= ctx.config.max_templates_per_form
        assert all(
            len(template.binding_inputs) <= ctx.config.max_template_dimensions
            for template in templates
        )


class TestUrlGenerationStage:
    def test_generates_and_filters_urls(self, form_ctx):
        ctx = run_through(form_ctx, UrlGenerationStage)
        assert ctx.form_result.urls_generated > 0
        assert 0 < ctx.form_result.urls_kept <= ctx.form_result.urls_generated
        assert ctx.form_result.generation_stats.kept == ctx.form_result.urls_kept
        assert len(ctx.kept) == ctx.form_result.urls_kept


class TestIndexingStage:
    def test_indexes_kept_pages(self, form_ctx):
        ctx = run_through(form_ctx, IndexingStage)
        assert ctx.form_result.urls_indexed > 0
        surfaced = ctx.engine.documents(source=SOURCE_SURFACED)
        assert len(surfaced) == ctx.form_result.urls_indexed
        assert len(ctx.form_result.record_sets) == ctx.form_result.urls_kept


def test_default_stages_cover_the_paper_order():
    names = [stage.name for stage in default_stages()]
    assert names == [
        "discover-forms",
        "classify-inputs",
        "detect-correlations",
        "candidate-values",
        "select-templates",
        "generate-urls",
        "index-pages",
    ]
    assert all(isinstance(stage, Stage) for stage in default_stages())
