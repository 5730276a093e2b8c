"""The one empty-query contract, pinned across every read layer.

``engine.search``, ``service.query``, the planner/executor, and the
serving frontend all answer empty or whitespace-only queries with
``[]`` -- without ranking, caching, harvesting or probing anything.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.serve.frontend import QueryFrontend
from repro.webspace.loadmeter import AGENT_VIRTUAL, AGENT_WEBTABLES
from repro.webspace.sitegen import WebConfig

EMPTY_QUERIES = ["", "   ", "\t", "\n  \n", "::: ---"]


@pytest.fixture(scope="module")
def service() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=2, surface_site_count=1, max_records=40, seed=19))
        .surfacing(SurfacingConfig(max_urls_per_form=40))
        .create()
    )
    service.crawl(max_pages=60)
    service.surface()
    return service


class TestEngineContract:
    @pytest.mark.parametrize("query", EMPTY_QUERIES)
    def test_engine_search_returns_empty(self, service, query):
        assert service.engine.search(query, k=10) == []

    def test_engine_search_does_not_touch_the_backend(self, service):
        calls = []
        original = service.engine.backend.search

        def spying(tokens, limit=None):  # pragma: no cover - must not run
            calls.append(tokens)
            return original(tokens, limit=limit)

        service.engine._backend.search = spying
        try:
            assert service.engine.search("   ") == []
        finally:
            del service.engine._backend.search
        assert calls == []


class TestSearchAllContract:
    @pytest.mark.parametrize("query", EMPTY_QUERIES)
    def test_search_all_returns_empty_without_harvesting(self, service, query):
        load_before = service.web.load_meter.total(agent=AGENT_WEBTABLES)
        assert service.query(query, k=10, min_per_source=3, include_webtables=False).results == []
        assert service.web.load_meter.total(agent=AGENT_WEBTABLES) == load_before


class TestPlannerContract:
    @pytest.mark.parametrize("query", EMPTY_QUERIES)
    def test_plans_are_empty_and_execute_to_empty(self, service, query):
        plan = service.planner.plan(query, live=True)
        assert plan.is_empty and plan.routes == ()
        virtual_before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        webtables_before = service.web.load_meter.total(agent=AGENT_WEBTABLES)
        outcome = service.executor.execute(plan)
        assert outcome.results == [] and outcome.hits == []
        assert service.web.load_meter.total(agent=AGENT_VIRTUAL) == virtual_before
        assert service.web.load_meter.total(agent=AGENT_WEBTABLES) == webtables_before


class TestFrontendContract:
    @pytest.mark.parametrize(
        "query,k",
        [pytest.param(query, 10, id=query) for query in EMPTY_QUERIES]
        # A non-positive k is an empty request too: nothing to rank.
        + [pytest.param("toyota", 0, id="k=0"), pytest.param("toyota", -3, id="k=-3")],
    )
    def test_serve_returns_empty_without_caching(self, service, query, k):
        scored = []
        service.engine._backend.search = lambda tokens, **kwargs: scored.append(tokens)
        try:
            with QueryFrontend(service.engine, workers=1, cache_size=64) as frontend:
                hits_before, misses_before = frontend.cache.hits, frontend.cache.misses
                assert frontend.serve(query, k=k) == []
                assert frontend.serve(query, k=k) == []  # repeat: still no cache traffic
                assert len(frontend.cache) == 0, "empty queries must not occupy cache slots"
                assert frontend.cache.hits == hits_before
                assert frontend.cache.misses == misses_before
        finally:
            del service.engine._backend.search
        assert scored == [], "an empty request must not be scored"

    def test_workload_with_empty_queries_replays_losslessly(self, service):
        queries = ["toyota", "", "city records", "   ", "toyota"]
        with QueryFrontend(service.engine, workers=2, cache_size=64) as frontend:
            outcome = frontend.serve_workload(queries)
        expected = [service.engine.search(query, k=10) for query in queries]
        assert outcome.results == expected
        assert outcome.results[1] == [] and outcome.results[3] == []
