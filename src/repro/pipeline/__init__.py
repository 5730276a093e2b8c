"""Staged surfacing pipeline: pluggable stages, context, observers.

The package decomposes the paper's surfacing system into seven independent
stages (see :mod:`repro.pipeline.stages` for the paper mapping) composed by
:class:`~repro.pipeline.pipeline.SurfacingPipeline`.  Stages share a
:class:`~repro.pipeline.context.PipelineContext` and can be instrumented
through :class:`~repro.pipeline.observer.PipelineObserver` hooks; the
facade hands every set of sites to
:meth:`~repro.pipeline.pipeline.SurfacingPipeline.surface_many`, the one
per-site loop.
"""

from repro.pipeline.context import PipelineContext
from repro.pipeline.observer import (
    MetricsObserver,
    PipelineObserver,
    ProgressObserver,
)
from repro.pipeline.pipeline import SurfacingPipeline
from repro.pipeline.stages import (
    SCOPE_FORM,
    SCOPE_SITE,
    CandidateValueStage,
    CorrelationDetectionStage,
    FormDiscoveryStage,
    IndexingStage,
    InputClassificationStage,
    Stage,
    TemplateSelectionStage,
    UrlGenerationStage,
    default_stages,
)

__all__ = [
    "PipelineContext",
    "PipelineObserver",
    "MetricsObserver",
    "ProgressObserver",
    "SurfacingPipeline",
    "Stage",
    "SCOPE_SITE",
    "SCOPE_FORM",
    "FormDiscoveryStage",
    "InputClassificationStage",
    "CorrelationDetectionStage",
    "CandidateValueStage",
    "TemplateSelectionStage",
    "UrlGenerationStage",
    "IndexingStage",
    "default_stages",
]
