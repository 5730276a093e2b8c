"""Surfacing configuration and result objects.

The pipeline itself lives in :mod:`repro.pipeline`: seven pluggable
stages (form discovery, input classification, correlation detection,
candidate values, template selection, URL generation + indexability
filtering, indexing) composed by
:class:`~repro.pipeline.pipeline.SurfacingPipeline`.  This module keeps

* :class:`SurfacingConfig` -- the validated tuning knobs;
* :class:`FormSurfacingResult` / :class:`SiteSurfacingResult` -- the result
  objects every experiment consumes.

Run surfacing through :class:`repro.api.DeepWebService` (the facade) or
:class:`repro.pipeline.SurfacingPipeline` (stage-level control).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.correlations import DatabaseSelection, RangePair
from repro.core.coverage import CoverageReport
from repro.core.templates import QueryTemplate
from repro.core.urlgen import IndexabilityCriterion, UrlGenerationStats


class SurfacingConfigError(ValueError):
    """Raised when a :class:`SurfacingConfig` holds contradictory or
    out-of-range values."""


@dataclass(frozen=True)
class SurfacingConfig:
    """Tuning knobs for the surfacing pipeline.

    Invalid combinations raise :class:`SurfacingConfigError` at
    construction time rather than surfacing as silent misbehaviour deep in
    a run.
    """

    seed: int = 11
    informativeness_threshold: float = 0.2
    max_template_dimensions: int = 2
    probes_per_template: int = 10
    max_templates_per_form: int = 12
    max_values_per_input: int = 15
    max_urls_per_form: int = 250
    min_results_per_page: int = 1
    max_results_per_page: int = 200
    keyword_seed_count: int = 8
    keyword_rounds: int = 2
    max_keywords: int = 12
    use_typed_values: bool = True
    range_aware: bool = True
    db_selection_aware: bool = True

    def __post_init__(self) -> None:
        problems: list[str] = []
        if self.min_results_per_page > self.max_results_per_page:
            problems.append(
                f"min_results_per_page ({self.min_results_per_page}) exceeds "
                f"max_results_per_page ({self.max_results_per_page})"
            )
        if self.min_results_per_page < 0:
            problems.append(f"min_results_per_page must be >= 0, got {self.min_results_per_page}")
        for name in (
            "max_urls_per_form",
            "probes_per_template",
            "max_template_dimensions",
            "max_templates_per_form",
            "max_values_per_input",
            "max_results_per_page",
        ):
            value = getattr(self, name)
            if value <= 0:
                problems.append(f"{name} must be positive, got {value}")
        for name in ("keyword_seed_count", "keyword_rounds", "max_keywords"):
            value = getattr(self, name)
            if value < 0:
                problems.append(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.informativeness_threshold <= 1.0:
            problems.append(
                "informativeness_threshold must lie in [0, 1], "
                f"got {self.informativeness_threshold}"
            )
        if problems:
            raise SurfacingConfigError("; ".join(problems))

    def criterion(self) -> IndexabilityCriterion:
        return IndexabilityCriterion(
            min_results=self.min_results_per_page,
            max_results=self.max_results_per_page,
        )


@dataclass
class FormSurfacingResult:
    """Per-form outcome."""

    form_identity: str
    method: str
    skipped: bool = False
    skip_reason: str = ""
    typed_inputs: dict[str, str] = field(default_factory=dict)
    range_pairs: list[RangePair] = field(default_factory=list)
    database_selection: DatabaseSelection | None = None
    templates_selected: list[QueryTemplate] = field(default_factory=list)
    urls_generated: int = 0
    urls_kept: int = 0
    urls_indexed: int = 0
    generation_stats: UrlGenerationStats = field(default_factory=UrlGenerationStats)
    record_sets: list[frozenset[str]] = field(default_factory=list)


@dataclass
class SiteSurfacingResult:
    """Per-site outcome.

    ``fetch_errors``/``fetch_retries`` are the site's failed and retried
    surfacer fetches during this run (zero on a fault-free web); a site
    with any failed fetch is marked ``degraded``: it was surfaced from
    whatever probes succeeded, never aborted.
    """

    host: str
    domain: str
    forms_found: int = 0
    forms_surfaced: int = 0
    post_forms_skipped: int = 0
    urls_generated: int = 0
    urls_indexed: int = 0
    probes_issued: int = 0
    analysis_load: int = 0
    elapsed_seconds: float = 0.0
    fetch_errors: int = 0
    fetch_retries: int = 0
    degraded: bool = False
    form_results: list[FormSurfacingResult] = field(default_factory=list)
    coverage: CoverageReport | None = None

    @property
    def records_covered(self) -> int:
        covered: set[str] = set()
        for form_result in self.form_results:
            for record_set in form_result.record_sets:
                covered |= record_set
        return len(covered)

    @property
    def record_sets(self) -> list[frozenset[str]]:
        sets: list[frozenset[str]] = []
        for form_result in self.form_results:
            sets.extend(form_result.record_sets)
        return sets
