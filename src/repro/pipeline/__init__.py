"""Staged surfacing pipeline: pluggable stages, context, observers.

The package decomposes the paper's surfacing system into seven independent
stages (see :mod:`repro.pipeline.stages` for the paper mapping) composed by
:class:`~repro.pipeline.pipeline.SurfacingPipeline`.  Stages share a
:class:`~repro.pipeline.context.PipelineContext` and can be instrumented
through :class:`~repro.pipeline.observer.PipelineObserver` hooks; the
facade hands a set of sites to the pipeline through
:class:`~repro.pipeline.scheduler.SurfacingScheduler`.
"""

from repro.pipeline.context import PipelineContext
from repro.pipeline.observer import (
    MetricsObserver,
    PipelineObserver,
    ProgressObserver,
)
from repro.pipeline.pipeline import SurfacingPipeline, UnknownStageError
from repro.pipeline.scheduler import SurfacingScheduler
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
    "SurfacingScheduler",
    "UnknownStageError",
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
