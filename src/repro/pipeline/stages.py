"""The seven paper stages as independent, pluggable classes.

Each stage implements the :class:`Stage` protocol -- a ``name`` (used for
insertion/replacement/ablation and in observer events), a ``scope``
(``"site"`` stages run once per site, ``"form"`` stages once per GET form)
and ``run(ctx) -> ctx``.  Probe order, rng derivations and result
bookkeeping are part of the seeded-run contract: changing one changes
every seeded result.

Paper mapping (CIDR 2009, Sections 3.2-4):

1. :class:`FormDiscoveryStage`      -- fetch the homepage, discover forms;
2. :class:`InputClassificationStage`-- search boxes vs. typed inputs;
3. :class:`CorrelationDetectionStage` -- range pairs, database selection;
4. :class:`CandidateValueStage`     -- select options, typed-value
   libraries, iterative-probing keywords;
5. :class:`TemplateSelectionStage`  -- informative query templates;
6. :class:`UrlGenerationStage`      -- enumerate submission URLs
   (range-aware, plus per-category database-selection URLs) and filter
   them with the indexability criterion;
7. :class:`IndexingStage`           -- fetch kept URLs, annotate, index.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.annotation import annotation_for_bindings
from repro.core.correlations import DatabaseSelection
from repro.core.form_model import discover_forms
from repro.core.input_types import COMMON_TYPES, TYPE_SEARCH
from repro.core.keywords import IterativeProber
from repro.core.templates import QueryTemplate, TemplateSelector
from repro.core.urlgen import GeneratedUrl, UrlGenerator
from repro.pipeline.context import PipelineContext
from repro.search.engine import SOURCE_SURFACED
from repro.util.text import tokenize
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.web import FetchError

#: Stage scopes.
SCOPE_SITE = "site"
SCOPE_FORM = "form"


@runtime_checkable
class Stage(Protocol):
    """A pluggable pipeline step."""

    name: str
    scope: str

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Transform the context (mutating its scoped state) and return it."""
        ...


class FormDiscoveryStage:
    """Stage 1: fetch the homepage and discover its forms."""

    name = "discover-forms"
    scope = SCOPE_SITE

    def run(self, ctx: PipelineContext) -> PipelineContext:
        try:
            homepage = ctx.web.fetch(ctx.site.homepage_url(), agent=AGENT_SURFACER)
        except FetchError:
            # An unreachable homepage degrades the site to "no forms found";
            # the pipeline records the skip and moves on.  Only fetch
            # errors are absorbed -- parser bugs must propagate.
            ctx.homepage_ok = False
            return ctx
        if not homepage.ok:
            ctx.homepage_ok = False
            return ctx
        ctx.homepage_html = homepage.html
        ctx.forms = discover_forms(homepage, host=ctx.site.host)
        ctx.site_result.forms_found = len(ctx.forms)
        return ctx


class InputClassificationStage:
    """Stage 2: classify text inputs into search boxes vs. typed inputs."""

    name = "classify-inputs"
    scope = SCOPE_FORM

    def run(self, ctx: PipelineContext) -> PipelineContext:
        ctx.predictions = ctx.classifier.classify_form(ctx.form, ctx.prober)
        ctx.form_result.typed_inputs = ctx.classifier.typed_inputs(ctx.predictions)
        return ctx


class CorrelationDetectionStage:
    """Stage 3: detect correlated inputs (ranges, database selection)."""

    name = "detect-correlations"
    scope = SCOPE_FORM

    def run(self, ctx: PipelineContext) -> PipelineContext:
        ctx.form_result.range_pairs = (
            ctx.correlations.detect_ranges(ctx.form) if ctx.config.range_aware else []
        )
        ctx.form_result.database_selection = (
            ctx.correlations.detect_database_selection(ctx.form)
            if ctx.config.db_selection_aware
            else None
        )
        return ctx


class CandidateValueStage:
    """Stage 4: assemble candidate value lists per input."""

    name = "candidate-values"
    scope = SCOPE_FORM

    def run(self, ctx: PipelineContext) -> PipelineContext:
        config = ctx.config
        form = ctx.form
        value_sets: dict[str, list[str]] = {}
        range_max_inputs = {pair.max_input for pair in ctx.form_result.range_pairs}
        database_selection = ctx.form_result.database_selection
        db_inputs: set[str] = set()
        if database_selection is not None:
            # The (search box, database selector) pair is handled by the
            # dedicated per-category keyword generation, not by templates.
            db_inputs = {database_selection.text_input, database_selection.select_input}

        for spec in form.select_inputs:
            if spec.name in range_max_inputs or spec.name in db_inputs:
                continue
            options = [option for option in spec.options if option][: config.max_values_per_input]
            if options:
                value_sets[spec.name] = options

        prober_keywords = IterativeProber(
            ctx.prober,
            ctx.engine,
            seed_count=config.keyword_seed_count,
            max_rounds=config.keyword_rounds,
            max_keywords=config.max_keywords,
        )
        for spec in form.text_inputs:
            if spec.name in db_inputs:
                continue
            prediction = ctx.predictions.get(spec.name)
            predicted_type = prediction.predicted_type if prediction else TYPE_SEARCH
            if config.use_typed_values and predicted_type in COMMON_TYPES:
                values = ctx.classifier.library.values_for(
                    predicted_type, config.max_values_per_input
                )
                if values:
                    value_sets[spec.name] = values
            elif predicted_type == TYPE_SEARCH:
                selection = prober_keywords.select_keywords(form, spec.name, ctx.homepage_html)
                if selection.keywords:
                    value_sets[spec.name] = selection.keywords
        ctx.value_sets = value_sets
        return ctx


class TemplateSelectionStage:
    """Stage 5: search for informative query templates."""

    name = "select-templates"
    scope = SCOPE_FORM

    def run(self, ctx: PipelineContext) -> PipelineContext:
        config = ctx.config
        selector = TemplateSelector(
            ctx.prober,
            informativeness_threshold=config.informativeness_threshold,
            max_dimensions=config.max_template_dimensions,
            probes_per_template=config.probes_per_template,
            max_templates=config.max_templates_per_form,
            rng=ctx.rng.child(f"templates/{ctx.form.identity}"),
        )
        evaluations = selector.select_templates(ctx.form, ctx.value_sets)
        ctx.form_result.templates_selected = [evaluation.template for evaluation in evaluations]
        return ctx


class UrlGenerationStage:
    """Stage 6: enumerate submission URLs and filter with the
    indexability criterion."""

    name = "generate-urls"
    scope = SCOPE_FORM

    def run(self, ctx: PipelineContext) -> PipelineContext:
        config = ctx.config
        form = ctx.form
        generator = UrlGenerator(
            criterion=config.criterion(),
            max_values_per_input=config.max_values_per_input,
            max_urls_per_form=config.max_urls_per_form,
            range_aware=config.range_aware,
        )
        candidates, stats = generator.generate_for_templates(
            form,
            ctx.form_result.templates_selected,
            ctx.value_sets,
            ctx.form_result.range_pairs,
            prober=ctx.prober,
        )
        candidates.extend(
            _database_selection_urls(ctx, ctx.form_result.database_selection)
        )
        ctx.candidates = candidates
        ctx.form_result.urls_generated = len(candidates)
        ctx.kept = generator.filter_indexable(form, candidates, ctx.prober, stats)
        ctx.generation_stats = stats
        ctx.form_result.generation_stats = stats
        ctx.form_result.urls_kept = len(ctx.kept)
        return ctx


class IndexingStage:
    """Stage 7: fetch surviving URLs and insert them into the index."""

    name = "index-pages"
    scope = SCOPE_FORM

    def run(self, ctx: PipelineContext) -> PipelineContext:
        for candidate in ctx.kept:
            ctx.form_result.record_sets.append(candidate.records)
            if ctx.config.index_pages:
                if _index_url(ctx, candidate):
                    ctx.form_result.urls_indexed += 1
        return ctx


def default_stages() -> list[Stage]:
    """The paper's stage order, freshly instantiated."""
    return [
        FormDiscoveryStage(),
        InputClassificationStage(),
        CorrelationDetectionStage(),
        CandidateValueStage(),
        TemplateSelectionStage(),
        UrlGenerationStage(),
        IndexingStage(),
    ]


# -- database-selection handling (used by UrlGenerationStage) -------------------


def _database_selection_urls(
    ctx: PipelineContext, database_selection: DatabaseSelection | None
) -> list[GeneratedUrl]:
    """Per-category keyword URLs for a detected database-selection pair
    (none, and no probe, when the keyword budget or round count is zero)."""
    config = ctx.config
    if database_selection is None or not (config.max_keywords and config.keyword_rounds):
        return []
    per_category = max(3, config.max_keywords // 2)
    urls: list[GeneratedUrl] = []
    template = QueryTemplate((database_selection.text_input, database_selection.select_input))
    for category in database_selection.categories:
        keywords = _keywords_for_category(ctx, database_selection, category, per_category)
        for keyword in keywords:
            bindings = {
                database_selection.select_input: category,
                database_selection.text_input: keyword,
            }
            urls.append(
                GeneratedUrl(
                    url=ctx.form.submission_url(bindings),
                    bindings=bindings,
                    template=template,
                )
            )
    return urls


def _keywords_for_category(
    ctx: PipelineContext,
    database_selection: DatabaseSelection,
    category: str,
    per_category: int,
) -> list[str]:
    """Iterative-probing keywords conditioned on one selected database.

    On a conjunctive form (see :mod:`repro.core.probe`) a keyword page lists
    a subset of the category's records, which spares two kinds of probe
    without changing what is chosen: once the chosen pages cover as many
    records as the category's banner counts, no later keyword can add one;
    and a keyword that is empty here is probed once on its own, because if
    it is empty there too the prober infers it empty in every other category.
    """
    prober, form = ctx.prober, ctx.form
    select_input, text_input = database_selection.select_input, database_selection.text_input
    # Seed from the result page of the category-only submission.
    category_page = prober.probe(form, {select_input: category})
    conjunctive = prober.conjunctive(form)
    category_size = category_page.result_count if category_page.ok and conjunctive else None
    if category_size == 0:
        return []
    seed_page = category_page.page.html if category_page.ok else ctx.homepage_html
    seed_text = prober.signature_cache.analyze(seed_page).text
    seeds = [
        token
        for token in tokenize(seed_text, drop_stopwords=True)
        if len(token) > 2 and not token.isdigit()
    ]
    seen: set[str] = set()
    ordered_seeds = [seed for seed in seeds if not (seed in seen or seen.add(seed))]
    chosen: list[str] = []
    covered: set[str] = set()
    for keyword in ordered_seeds[: per_category * 4]:
        if len(chosen) >= per_category or len(covered) == category_size:
            break
        result = prober.probe(form, {select_input: category, text_input: keyword})
        if not result.has_results:
            if conjunctive and result.ok and not result.inferred:
                prober.probe(form, {text_input: keyword})
            continue
        gain = len(result.signature.record_ids - covered)
        if gain == 0:
            continue
        chosen.append(keyword)
        covered |= result.signature.record_ids
    return chosen


# -- indexing (used by IndexingStage) -------------------------------------------


def _index_url(ctx: PipelineContext, candidate: GeneratedUrl) -> bool:
    """Fetch a kept URL (cached by the prober) and add it to the index."""
    result = ctx.prober.probe(ctx.form, candidate.bindings)
    if result.inferred:
        # Only a page the site served is indexed (an empty page is kept
        # only under ``min_results_per_page=0``).
        result = ctx.prober.confirm(ctx.form, candidate.bindings, result)
    if not result.ok:
        return False
    annotations = annotation_for_bindings(
        candidate.bindings, domain=ctx.site.domain_name
    ).as_dict
    doc_id = ctx.engine.add_page(result.page, source=SOURCE_SURFACED, annotations=annotations)
    if doc_id is None:
        return False
    # Refresh record bookkeeping from the page as indexed (resolving
    # relative links against the final URL).  The analysis is already cached
    # from the probe that fetched the page, so this is a hash lookup.
    signature = ctx.prober.signature_cache.signature(
        result.page.html, page_url=result.page.url
    )
    candidate.records = signature.record_ids
    return True
