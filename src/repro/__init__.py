"""Reproduction of "Harnessing the Deep Web: Present and Future" (CIDR 2009).

Most users need only the top-level facade:

    from repro import DeepWebService, SurfacingConfig, WebConfig

    service = DeepWebService.build().web(WebConfig(seed=21)).create()
    service.crawl()
    service.surface()
    hits = service.search("some deep-web content")

The package implements, over a fully simulated web:

* ``repro.api`` -- the :class:`DeepWebService` facade (build / crawl /
  surface / search / query / report); ``query`` is the federated
  cross-corpus read.
* ``repro.store`` -- the unified content store: the ``IngestRecord``
  write model, the ``Ingestor`` seam every content layer produces
  through, the ``StorageBackend`` base class every backend keeps its
  documents in, and the in-memory backend (sqlite lives in
  ``repro.persist``, the hash-partitioned replicated one in
  ``repro.cluster``).
* ``repro.pipeline`` -- the staged surfacing pipeline: seven pluggable
  stages, a shared context, observer hooks for metrics and progress, and
  ``SurfacingPipeline.surface_many``, the one per-site loop every site is
  surfaced through (straight into the store, one sqlite transaction per
  site under ``persist()``).
* ``repro.relational`` -- the one immutable table behind each deep-web
  site and the conjunctive predicates its form compiles to.
* ``repro.datagen`` -- seeded synthetic data for ~10 content domains.
* ``repro.webspace`` -- deep-web sites (one HTML form over one table each),
  surface-web sites, and the ``Web`` fetch interface with load metering.
* ``repro.htmlparse`` -- DOM construction and form/link/table extraction.
* ``repro.search`` -- an inverted-index (BM25) search engine, a crawler and
  a power-law query-log generator.
* ``repro.query`` -- the federated query layer: a planner that parses
  keyword vs ``field:value`` queries and emits explicit routed plans,
  an executor with per-route fetch budgets and blend provenance.
* ``repro.serve`` -- the query-serving frontend for keyword queries:
  a worker pool for workload replays, an LRU result cache invalidated on
  ingest, and seeded Zipf/mixed-mode workload generation.
* ``repro.core`` -- the paper's contribution: surfacing configuration and
  results, plus typed-input recognition, iterative probing, informative
  query templates, correlated inputs, URL generation with an indexability
  criterion, coverage estimation, annotation and extraction.
* ``repro.virtual`` -- the virtual-integration baseline (mediated schemas,
  form matching, routing vocabularies, reformulation, wrappers), reached
  only as the live route of ``service.query(..., live=True)``.
* ``repro.webtables`` -- the WebTables-style corpus and semantic services.
* ``repro.analysis`` -- long-tail impact analysis and experiment harnesses.
* ``repro.resilience`` -- deterministic fault injection (seeded per-host
  error/timeout/outage schedules), bounded retry with seeded backoff,
  per-host circuit breakers, and the degraded-identity chaos harness
  (faults shrink answers, never substitute them).
"""

__version__ = "0.2.0"

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig, SurfacingConfigError
from repro.pipeline import MetricsObserver, ProgressObserver, SurfacingPipeline
from repro.search.engine import SOURCE_SURFACED, SearchEngine
from repro.store import InMemoryBackend
from repro.webspace.sitegen import WebConfig, generate_web
from repro.webspace.web import Web

#: What tests, examples, scripts and benchmarks import from the top level;
#: everything else is imported from the package that defines it.
__all__ = [
    "__version__",
    "DeepWebService",
    "SurfacingConfig",
    "SurfacingConfigError",
    "SurfacingPipeline",
    "MetricsObserver",
    "ProgressObserver",
    "Web",
    "WebConfig",
    "generate_web",
    "SearchEngine",
    "SOURCE_SURFACED",
    "InMemoryBackend",
]
