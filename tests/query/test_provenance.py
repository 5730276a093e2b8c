"""Provenance surfacing: ``service.report()`` tells which routes ran, what
the live probes spent and how big the blends were, read from the one
owner of those counters (``PlannerStats``); ``ServeStats`` keeps to
serving facts."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.query.plan import ROUTE_INDEXED, ROUTE_WEBTABLES
from repro.query.executor import QueryExecutor
from repro.serve.frontend import QueryFrontend, ServeStats
from repro.webspace.sitegen import WebConfig

#: What the serving frontend counts; plan provenance is not among them.
SERVING_FACTS = {
    "served", "shed", "cache_hits", "cache_misses", "latency_p50", "latency_p90",
    "latency_p99", "latency_mean", "latency_max", "elapsed_seconds", "qps",
}


@pytest.fixture(scope="module")
def service() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=2, surface_site_count=1, max_records=40, seed=37))
        .surfacing(SurfacingConfig(max_urls_per_form=40))
        .create()
    )
    service.crawl(max_pages=60)
    service.surface()
    return service


class TestServiceReport:
    def test_report_carries_planning_provenance(self, service):
        service.query("city:portland records", k=10)
        service.query("records listings", k=5, min_per_source=3, include_webtables=False)
        report = service.report()
        planning = report.query_planning
        assert planning["plans"] >= 2
        assert planning["routes_taken"].get(ROUTE_INDEXED, 0) >= 2
        assert ROUTE_WEBTABLES in planning["hits_by_route"] or planning["routes_taken"].get(
            ROUTE_WEBTABLES, 0
        ) >= 0  # structured query planned the route even if it kept nothing
        assert "query planning:" in str(report)

    def test_report_without_plans_stays_quiet(self):
        fresh = (
            DeepWebService.build()
            .web(WebConfig(total_deep_sites=0, surface_site_count=1, max_records=10, seed=2))
            .create()
        )
        assert "query planning:" not in str(fresh.report())

    def test_stats_snapshot_is_deterministic(self, service):
        one = service.planner_stats.as_dict()
        two = service.planner_stats.as_dict()
        assert one == two
        assert list(one["routes_taken"]) == sorted(one["routes_taken"])


class TestOneOwnerPerPlanCounter:
    def test_cached_serves_run_no_route(self, service):
        """Plan provenance lives in the executor's ``PlannerStats`` alone:
        a cached serve counts as a plan and a cached plan, never as a
        route taken (nothing re-ran)."""
        plan = service.planner.plan("records listings", k=5, include_webtables=False)
        executor = QueryExecutor(service.engine)
        with QueryFrontend(
            service.engine, workers=1, cache_size=32, executor=executor
        ) as frontend:
            for _ in range(5):
                frontend.serve_plan(plan)
            served = frontend.stats()
        planning = executor.stats.as_dict()
        assert planning["plans"] == 5 and planning["cached_plans"] == 4
        assert planning["routes_taken"] == {ROUTE_INDEXED: 1}
        assert served.served == 5 and served.cache_hits == 4

    def test_serve_stats_hold_serving_facts_only(self, service):
        with QueryFrontend(
            service.engine, workers=1, cache_size=32, executor=service.executor
        ) as frontend:
            frontend.serve("records", k=3)
            frontend.serve_plan(service.planner.plan("records listings", k=5))
            stats = frontend.stats()
        assert {f.name for f in fields(ServeStats)} == SERVING_FACTS
        assert stats.served == 2
        assert not any(line.startswith("plans:") for line in stats.lines())
