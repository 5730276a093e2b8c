"""Shared experiment harness helpers.

Benchmarks, examples and integration tests all need the same setup: generate
a web, crawl it, surface it, build a query log.  ``build_world`` and
``surface_world`` provide that once, with named scales so the expensive
pieces stay proportionate to where they are used (unit tests vs. benchmark
runs).  Everything runs through the :class:`repro.api.DeepWebService`
facade, so worlds carry the service (pipeline, stage metrics)
alongside the raw web and engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.api import DeepWebService
from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.pipeline.observer import PipelineObserver
from repro.search.crawler import CrawlStats
from repro.search.engine import SearchEngine
from repro.search.querylog import QueryLog, QueryLogConfig, QueryLogGenerator
from repro.util.rng import SeededRng
from repro.webspace.sitegen import WebConfig
from repro.webspace.web import Web

#: Named experiment scales: (web config, crawl budget, query volume).
SCALES: dict[str, dict[str, object]] = {
    "tiny": {
        "web": WebConfig(total_deep_sites=4, surface_site_count=1, max_records=80, seed=3),
        "crawl_pages": 200,
        "query_volume": 2000,
    },
    "small": {
        "web": WebConfig(total_deep_sites=12, surface_site_count=2, max_records=200, seed=5),
        "crawl_pages": 600,
        "query_volume": 8000,
    },
    "medium": {
        "web": WebConfig(total_deep_sites=40, surface_site_count=3, max_records=300, seed=7),
        "crawl_pages": 1500,
        "query_volume": 20000,
    },
    "large": {
        "web": WebConfig(total_deep_sites=120, surface_site_count=4, max_records=400, seed=9),
        "crawl_pages": 4000,
        "query_volume": 50000,
    },
}


@dataclass
class ExperimentWorld:
    """Everything an experiment needs in one place."""

    scale: str
    web: Web
    engine: SearchEngine
    service: DeepWebService | None = None
    crawl_stats: CrawlStats | None = None
    surfacing_results: list[SiteSurfacingResult] = field(default_factory=list)
    query_log: QueryLog | None = None


def build_world(
    scale: str = "small",
    crawl: bool = True,
    web_config: WebConfig | None = None,
) -> ExperimentWorld:
    """Generate the web (and optionally run the baseline surface crawl)."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    settings = SCALES[scale]
    config = web_config or settings["web"]
    service = DeepWebService.build().web(config).create()
    world = ExperimentWorld(
        scale=scale, web=service.web, engine=service.engine, service=service
    )
    if crawl:
        world.crawl_stats = service.crawl(max_pages=int(settings["crawl_pages"]))
    return world


def surface_world(
    world: ExperimentWorld,
    surfacing_config: SurfacingConfig | None = None,
    observers: Sequence[PipelineObserver] = (),
) -> list[SiteSurfacingResult]:
    """Run the surfacing pipeline over every deep-web site of a world.

    A fresh, freshly-seeded service is built per call and attached to the
    world so callers can reach the pipeline and stage metrics
    afterwards.
    """
    builder = (
        DeepWebService.build()
        .web(world.web)
        .engine(world.engine)
        .surfacing(surfacing_config or SurfacingConfig())
    )
    for observer in observers:
        builder = builder.observer(observer)
    service = builder.create()
    service.crawl_stats = world.crawl_stats
    world.service = service
    world.surfacing_results = service.surface()
    return world.surfacing_results


def build_query_log(
    world: ExperimentWorld,
    config: QueryLogConfig | None = None,
    seed: int = 17,
) -> QueryLog:
    """Generate (and attach) the query log for a world."""
    settings = SCALES[world.scale]
    effective = config or QueryLogConfig(total_volume=int(settings["query_volume"]))
    generator = QueryLogGenerator(world.web, SeededRng(seed))
    world.query_log = generator.generate(effective)
    return world.query_log
