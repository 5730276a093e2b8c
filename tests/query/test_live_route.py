"""Live-route guarantees: fetch budgets hold, probes are never stale-served,
and host selection is pinned.

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
from repro.search.engine import SOURCE_SURFACED
from repro.search.querylog import KIND_TAIL, QueryLogConfig, QueryLogGenerator
from repro.util.rng import SeededRng
from repro.virtual.vertical import MAX_PAGES_PER_SOURCE
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
    service.vertical  # register the sources up front (metered separately)
    return service


def live_plan(service, budget: int):
    """A plan whose live route probes the routed hosts under ``budget``."""
    # Pick a query that routes: the first source's domain words.
    source = next(iter(service.vertical.registry.values()))
    query = f"{source.mapping.domain.replace('_', ' ')} records"
    plan = service.planner.plan(query, k=10, live=True, live_fetch_budget=budget)
    if ROUTE_LIVE_VERTICAL not in plan.route_names:
        pytest.skip("the probe query routed to no host in this world")
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
        hosts = list(vertical.registry)
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        answer = vertical.probe(hosts, query="records search listings", fetch_budget=1)
        spent = service.web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert spent <= 1
        assert answer.fetches_issued == spent

    def test_unbudgeted_probe_still_bounded_by_page_limit(self, service):
        vertical = service.vertical
        hosts = list(vertical.registry)[:1]
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        # A budget far above the page limit leaves the limit as the cap.
        vertical.probe(hosts, query="records search listings", fetch_budget=1000)
        spent = service.web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert spent <= MAX_PAGES_PER_SOURCE


class TestLiveNeverCached:
    def test_live_plans_are_uncacheable(self, service):
        plan = live_plan(service, budget=3)
        assert not plan.cacheable

    def test_every_execution_runs_a_fresh_probe(self, service):
        plan = live_plan(service, budget=3)
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        first = service.executor.execute(plan)
        mid = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        second = service.executor.execute(plan)
        after = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        assert mid > before, "first execution must probe"
        assert after > mid, "second execution must probe again"
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
        source = next(iter(service.vertical.registry.values()))
        query = f"{source.mapping.domain.replace('_', ' ')} records"
        base = service.planner.plan(query, k=10, live=True, live_fetch_budget=3)
        if ROUTE_LIVE_VERTICAL not in base.route_names:
            pytest.skip("the probe query routed to no host in this world")
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
        assert ROUTE_LIVE_VERTICAL not in [o.route for o in outcome.routes if not o.skipped]


class TestLiveRoutePin:
    """One keyword and one structured live query on this world.

    The host tuples were recorded before routing moved from a separate
    router registry into the vertical engine's: a change that moves one
    changed which sites a live plan probes.
    """

    PINNED_HOSTS = {
        "jobs engineer": ("jobs2.example.com",),
        "genre:fiction city:portland": (
            "jobs2.example.com",
            "mediacatalog0.example.com",
            "mediacatalog1.example.com",
        ),
    }

    @pytest.mark.parametrize("query", sorted(PINNED_HOSTS))
    def test_live_route_hosts_spend_and_rows(self, service, query):
        budget = 6
        plan = service.planner.plan(query, k=10, live=True, live_fetch_budget=budget)
        route = next(r for r in plan.routes if isinstance(r, LiveVerticalRoute))
        assert route.hosts == self.PINNED_HOSTS[query]
        result = service.executor.execute(plan, keep_raw=True)
        outcome = next(o for o in result.routes if o.route == ROUTE_LIVE_VERTICAL)
        assert 0 < outcome.fetches_spent <= budget
        live_rows = dict(result.raw)[ROUTE_LIVE_VERTICAL]
        assert len(live_rows) == outcome.produced > 0
        assert all(row.host in route.hosts for row in live_rows)

    def test_tail_queries_live_vs_surfacing(self, service):
        """The paper's comparison through the production read: surfaced
        rows answer at least as many tail queries as live probing, which
        pays query-time fetches for its answers."""
        log = QueryLogGenerator(service.web, SeededRng(17)).generate(
            QueryLogConfig(total_volume=2000)
        )
        tail = log.by_kind(KIND_TAIL)[:30]
        surfaced = live = fetches = 0
        for query in tail:
            if any(hit.source == SOURCE_SURFACED for hit in service.search(query.text, k=10)):
                surfaced += 1
            result = service.query(
                query.text, live=True, live_fetch_budget=9, include_webtables=False
            )
            if any(o.route == ROUTE_LIVE_VERTICAL and o.produced for o in result.routes):
                live += 1
            fetches += result.live_fetches_spent
        print(
            f"\nlive vs surfacing: {len(tail)} tail queries, {surfaced} answered by "
            f"surfaced rows, {live} by live rows, {fetches} live fetches"
        )
        assert len(tail) == 30
        assert surfaced >= live > 0
        assert fetches > 0
