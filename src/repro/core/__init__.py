"""The paper's primary contribution: deep-web surfacing.

The pipeline mirrors Sections 3-5 of the paper:

1. discover HTML forms from crawled pages (:mod:`repro.core.form_model`);
2. classify text inputs into search boxes vs. *typed* inputs
   (:mod:`repro.core.input_types`);
3. choose values -- select-menu options, typed-value libraries, and
   iterative-probing keywords for search boxes (:mod:`repro.core.keywords`);
4. detect correlated inputs: ranges and database selection
   (:mod:`repro.core.correlations`);
5. search for *informative* query templates (:mod:`repro.core.templates`,
   :mod:`repro.core.informativeness`);
6. generate submission URLs under an indexability criterion
   (:mod:`repro.core.urlgen`);
7. fetch and index the surfaced pages (:mod:`repro.pipeline.stages`), with
   semantic annotations (:mod:`repro.core.annotation`), record extraction
   (:mod:`repro.core.extraction`) and coverage estimation
   (:mod:`repro.core.coverage`).
"""

from repro.core.form_model import SurfacingForm, discover_forms
from repro.core.probe import FormProber, ProbeResult
from repro.core.informativeness import PageSignature
from repro.core.input_types import InputTypeClassifier, TypedValueLibrary
from repro.core.keywords import IterativeProber
from repro.core.correlations import CorrelationDetector, DatabaseSelection, RangePair
from repro.core.templates import QueryTemplate, TemplateSelector
from repro.core.urlgen import IndexabilityCriterion, UrlGenerator
from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.core.coverage import CoverageEstimator, CoverageReport
from repro.core.annotation import PageAnnotation, annotation_for_bindings
from repro.core.extraction import extract_result_records

__all__ = [
    "SurfacingForm",
    "discover_forms",
    "FormProber",
    "ProbeResult",
    "PageSignature",
    "InputTypeClassifier",
    "TypedValueLibrary",
    "IterativeProber",
    "CorrelationDetector",
    "RangePair",
    "DatabaseSelection",
    "QueryTemplate",
    "TemplateSelector",
    "UrlGenerator",
    "IndexabilityCriterion",
    "SurfacingConfig",
    "SiteSurfacingResult",
    "CoverageEstimator",
    "CoverageReport",
    "PageAnnotation",
    "annotation_for_bindings",
    "extract_result_records",
]
