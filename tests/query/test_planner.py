"""Tests for :class:`QueryPlanner`: plan shapes, signals and fingerprints."""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.query.plan import (
    ROUTE_INDEXED,
    ROUTE_LIVE_VERTICAL,
    ROUTE_WEBTABLES,
    IndexedRoute,
    LiveVerticalRoute,
)
from repro.query.planner import DEFAULT_LIVE_BUDGET, QueryPlanner
from repro.search.engine import SearchEngine
from repro.webspace.loadmeter import AGENT_VIRTUAL
from repro.webspace.sitegen import WebConfig


@pytest.fixture(scope="module")
def service() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=3, surface_site_count=1, max_records=50, seed=17))
        .surfacing(SurfacingConfig(max_urls_per_form=50))
        .create()
    )
    service.crawl(max_pages=80)
    service.surface()
    service.harvest_tables()  # populate the webtables signals
    return service


class TestPlanShapes:
    def test_keyword_search_plans_indexed_only(self, service):
        plan = service.planner.plan("used toyota camry")
        assert plan.route_names == (ROUTE_INDEXED,)
        assert plan.cacheable

    def test_structured_search_adds_webtables_route(self, service):
        plan = service.planner.plan("make:toyota color:red")
        assert plan.route_names == (ROUTE_INDEXED, ROUTE_WEBTABLES)

    def test_include_webtables_false_forces_indexed_only(self, service):
        plan = service.planner.plan("make:toyota", include_webtables=False)
        assert plan.route_names == (ROUTE_INDEXED,)

    def test_table_lookup_keywords_unlock_webtables(self, service):
        # Every keyword is an attribute known to the harvested corpus.
        plan = service.planner.plan("city bedrooms")
        assert ROUTE_WEBTABLES in plan.route_names

    def test_live_plan_consults_the_routing_scores(self, service):
        plan = service.planner.plan("software engineer jobs", live=True)
        assert plan.route_names == (ROUTE_INDEXED, ROUTE_LIVE_VERTICAL)
        live = plan.routes[-1]
        assert live.hosts, "routing must select at least one plausible host"
        assert not plan.cacheable

    def test_live_plan_without_plausible_source_stays_offline(self, service):
        plan = service.planner.plan("quantum chromodynamics lecture notes", live=True)
        assert ROUTE_LIVE_VERTICAL not in plan.route_names
        assert plan.cacheable

    def test_min_per_source_reaches_the_indexed_route(self, service):
        plan = service.planner.plan("toyota", min_per_source=4)
        indexed = plan.routes[0]
        assert isinstance(indexed, IndexedRoute)
        assert indexed.min_per_source == 4


class TestEmptyPlans:
    def test_empty_and_whitespace_queries_plan_empty(self, service):
        for text in ("", "   ", "\n"):
            plan = service.planner.plan(text)
            assert plan.is_empty
            assert service.executor.execute(plan).results == []

    def test_non_positive_k_plans_empty(self, service):
        assert service.planner.plan("toyota", k=0).is_empty
        assert service.planner.plan("toyota", k=-3).is_empty


class TestFingerprints:
    def test_fingerprint_is_stable(self, service):
        one = service.planner.plan("make:toyota cheap", k=12)
        two = service.planner.plan("make:toyota cheap", k=12)
        assert one.fingerprint() == two.fingerprint()

    def test_fingerprint_normalizes_lexical_noise(self, service):
        assert (
            service.planner.plan("Used  TOYOTA", include_webtables=False).fingerprint()
            == service.planner.plan("used toyota", include_webtables=False).fingerprint()
        )

    def test_fingerprint_distinguishes_k_and_routes_and_filters(self, service):
        base = service.planner.plan("make:toyota", k=10)
        assert base.fingerprint() != service.planner.plan("make:toyota", k=11).fingerprint()
        assert (
            base.fingerprint()
            != service.planner.plan("make:toyota", k=10, include_webtables=False).fingerprint()
        )
        assert base.fingerprint() != service.planner.plan("make:honda", k=10).fingerprint()

    def test_live_budget_is_part_of_the_fingerprint(self, service):
        one = service.planner.plan("software engineer jobs", live=True, live_fetch_budget=4)
        two = service.planner.plan("software engineer jobs", live=True, live_fetch_budget=9)
        assert one.fingerprint() != two.fingerprint()


class TestPlannerValidation:
    def test_default_and_explicit_live_budgets(self, service):
        for asked, planned in ((None, DEFAULT_LIVE_BUDGET), (4, 4), (1, 1)):
            plan = service.planner.plan(
                "software engineer jobs", live=True, live_fetch_budget=asked
            )
            assert plan.routes[-1].fetch_budget == planned

    def test_zero_live_budget_plans_no_live_route_and_spends_nothing(self, service):
        plan = service.planner.plan("software engineer jobs", live=True, live_fetch_budget=0)
        assert plan.route_names == (ROUTE_INDEXED,)
        assert plan.cacheable
        before = service.web.load_meter.total(agent=AGENT_VIRTUAL)
        outcome = service.executor.execute(plan)
        assert service.web.load_meter.total(agent=AGENT_VIRTUAL) == before
        assert outcome.live_fetches_spent == 0 and outcome.hits

    @pytest.mark.parametrize("argument", ["live_fetch_budget"])
    def test_negative_budgets_and_route_sizes_are_rejected(self, service, argument):
        with pytest.raises(ValueError, match=argument):
            service.planner.plan("make model price", live=True, **{argument: -1})
        with pytest.raises(ValueError, match=argument):
            # Checked before anything else, the empty plan included.
            service.planner.plan("", **{argument: -3})

    def test_planner_without_vertical_never_plans_live(self):
        planner = QueryPlanner(SearchEngine())
        plan = planner.plan("toyota", live=True)
        assert plan.route_names == (ROUTE_INDEXED,)

    def test_structured_live_hosts_bind_a_filter(self, service):
        plan = service.planner.plan("city:portland", live=True)
        live = [r for r in plan.routes if isinstance(r, LiveVerticalRoute)]
        assert live, "a registered form binds the `city` attribute"
        registry = service.vertical.registry
        for host in live[0].hosts:
            assert registry[host].mapping.input_for("city") is not None
