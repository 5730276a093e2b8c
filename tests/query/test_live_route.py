"""Live-route guarantees: fetch budgets hold and probes are never stale-served.

The acceptance pin: :class:`LiveVerticalRoute` respects its per-plan
``Web.fetch`` budget -- asserted via the :class:`LoadMeter`, which
records every query-time fetch under the ``virtual`` agent -- and its
results never come from a cache entry (every serve runs a fresh probe).
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.query.plan import ROUTE_LIVE_VERTICAL, LiveVerticalRoute, SOURCE_LIVE_VERTICAL
from repro.serve.frontend import QueryFrontend
from repro.webspace.loadmeter import AGENT_VIRTUAL
from repro.webspace.sitegen import WebConfig


@pytest.fixture(scope="module")
def service() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=4, surface_site_count=1, max_records=60, seed=31))
        .surfacing(SurfacingConfig(max_urls_per_form=40))
        .create()
    )
    service.crawl(max_pages=80)
    service.surface()
    service.vertical  # build the routing table up front (metered separately)
    return service


def live_plan(service, budget: int):
    """A plan whose router-selected live route probes under ``budget``."""
    # Pick a query the router will route: the first source's domain words.
    source = service.vertical.sources()[0]
    query = f"{source.mapping.domain.replace('_', ' ')} records"
    plan = service.planner.plan(query, k=10, live=True, live_fetch_budget=budget)
    if ROUTE_LIVE_VERTICAL not in plan.route_names:
        pytest.skip("router did not route the probe query in this world")
    return plan


class TestFetchBudget:
    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_live_route_spends_at_most_its_budget(self, service, budget):
        plan = live_plan(service, budget)
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        outcome = service.executor.execute(plan)
        spent = service.web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert spent <= budget, f"live route exceeded its budget ({spent} > {budget})"
        assert outcome.live_fetches_spent == spent  # provenance tells the truth

    def test_probe_seam_enforces_budget_mid_pagination(self, service):
        vertical = service.vertical
        hosts = [entry.site.host for entry in vertical.sources()]
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        answer = vertical.probe(hosts, query="records search listings", fetch_budget=1)
        spent = service.web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert spent <= 1
        assert answer.fetches_issued == spent

    def test_unbudgeted_probe_still_bounded_by_page_limit(self, service):
        vertical = service.vertical
        hosts = [entry.site.host for entry in vertical.sources()][:1]
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        vertical.probe(hosts, query="records search listings", fetch_budget=None)
        spent = service.web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert spent <= vertical.max_pages_per_source


class TestLiveNeverCached:
    def test_live_plans_are_uncacheable(self, service):
        plan = live_plan(service, budget=3)
        assert not plan.cacheable

    def test_every_serve_runs_a_fresh_probe(self, service):
        plan = live_plan(service, budget=3)
        with QueryFrontend(
            service.engine, workers=1, cache_size=512, executor=service.executor
        ) as frontend:
            entries_before = len(frontend.cache)
            before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
            first = frontend.serve_plan(plan)
            mid = service.web.load_meter.total(agent=AGENT_VIRTUAL)
            second = frontend.serve_plan(plan)
            after = service.web.load_meter.total(agent=AGENT_VIRTUAL)
            assert mid > before, "first serve must probe"
            assert after > mid, "second serve must probe again, never cache-hit"
            assert not first.cached and not second.cached
            assert len(frontend.cache) == entries_before, "no cache entry for live plans"
            # Deterministic world: the fresh probe reproduces the answer.
            assert second.results == first.results

    def test_live_hits_carry_live_provenance(self, service):
        plan = live_plan(service, budget=5)
        outcome = service.executor.execute(plan)
        live_hits = [hit for hit in outcome.hits if hit.route == ROUTE_LIVE_VERTICAL]
        for hit in live_hits:
            assert hit.result.source == SOURCE_LIVE_VERTICAL
            assert hit.result.doc_id < 0  # minted, not a store document
        live_outcomes = [o for o in outcome.routes if o.route == ROUTE_LIVE_VERTICAL]
        assert live_outcomes and not live_outcomes[0].skipped

    def test_time_budget_skips_the_live_route(self, service):
        source = service.vertical.sources()[0]
        query = f"{source.mapping.domain.replace('_', ' ')} records"
        base = service.planner.plan(query, k=10, live=True, live_fetch_budget=3)
        if ROUTE_LIVE_VERTICAL not in base.route_names:
            pytest.skip("router did not route the probe query in this world")
        # A zero wall-clock budget is always exceeded by the indexed route.
        routes = tuple(
            LiveVerticalRoute(
                hosts=route.hosts,
                fetch_budget=route.fetch_budget,
                max_results=route.max_results,
                time_budget_seconds=0.0,
            )
            if isinstance(route, LiveVerticalRoute)
            else route
            for route in base.routes
        )
        from dataclasses import replace

        plan = replace(base, routes=routes)
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        outcome = service.executor.execute(plan)
        assert service.web.load_meter.total(agent=AGENT_VIRTUAL) == before
        skipped = [o for o in outcome.routes if o.route == ROUTE_LIVE_VERTICAL]
        assert skipped and skipped[0].skipped
        assert ROUTE_LIVE_VERTICAL not in outcome.routes_taken()
