"""Tests for query routing over the vertical registry and for keyword
reformulation.

Routing is the planner's live-host pick (``QueryPlanner._live_hosts``,
reached through ``plan(..., live=True)``) reading each registered
source's routing vocabulary; these pin its ranking order, the inclusive
:data:`MIN_ROUTING_SCORE` boundary and the misses the paper predicts.
"""

from __future__ import annotations

import pytest

from repro.query.plan import LiveVerticalRoute
from repro.query.planner import QueryPlanner
from repro.search.engine import SearchEngine
from repro.util.text import STOPWORDS, tokenize
from repro.virtual.matching import classify_domain
from repro.virtual.reformulation import reformulate
from repro.virtual.routing import MIN_ROUTING_SCORE, routing_score
from repro.virtual.vertical import VerticalSearchEngine
from repro.webspace.web import Web


@pytest.fixture
def vertical(car_site, gov_site) -> VerticalSearchEngine:
    web = Web()
    web.register_all([car_site, gov_site])
    vertical = VerticalSearchEngine(web)
    assert vertical.register_sites([car_site, gov_site]) == 2
    return vertical


def live_hosts(vertical: VerticalSearchEngine, query: str) -> tuple[str, ...]:
    """The hosts the planner's live route would probe for ``query``."""
    planner = QueryPlanner(SearchEngine(), vertical_provider=lambda: vertical)
    plan = planner.plan(query, live=True, include_webtables=False)
    routes = [route for route in plan.routes if isinstance(route, LiveVerticalRoute)]
    return routes[0].hosts if routes else ()


class TestRanking:
    def test_car_query_routes_to_car_site(self, vertical, car_site):
        assert live_hosts(vertical, "used toyota camry") == (car_site.host,)

    def test_government_query_routes_to_gov_site(self, vertical, gov_site):
        assert live_hosts(vertical, "water quality regulation survey") == (gov_site.host,)

    def test_hosts_rank_best_covered_first(self, vertical, car_site, gov_site):
        assert live_hosts(vertical, "toyota camry sedan water") == (car_site.host, gov_site.host)
        assert live_hosts(vertical, "water quality regulation toyota") == (
            gov_site.host,
            car_site.host,
        )

    def test_equal_scores_rank_by_host_name(self, vertical, car_site, gov_site):
        assert live_hosts(vertical, "toyota water") == tuple(
            sorted([car_site.host, gov_site.host])
        )

    def test_unrelated_query_routes_nowhere(self, vertical):
        assert live_hosts(vertical, "quantum chromodynamics lecture notes") == ()

    def test_fortuitous_query_is_missed_by_routing(self, vertical, car_site):
        """Routing only sees schema and select-option vocabulary, not page
        content, so a content-specific query with no domain words is not
        routed -- the failure mode the paper contrasts with surfacing."""
        record = car_site.table.get(1)
        # Query by a content detail (the mileage figure) with no car words.
        hosts = live_hosts(vertical, f"{record['mileage']} excellent verified")
        assert car_site.host not in hosts

    def test_registered_hosts_resolve(self, vertical, car_site):
        assert vertical.registry[car_site.host].site is car_site


class TestMinScoreBoundary:
    def test_score_equal_to_the_constant_is_routed(self, vertical, car_site):
        """Sources scoring exactly MIN_ROUTING_SCORE are kept; one more
        uncovered token drops the car source below it."""
        vocabulary = vertical.registry[car_site.host].vocabulary
        # Deterministic picks: set iteration order varies with the process
        # hash seed, and a stopword would be dropped by the scorer.
        covered = sorted(token for token in vocabulary if token not in STOPWORDS)[:3]
        unknown = [f"zzunknown{letter}" for letter in "abcdefghijklmnopqr"]
        exact = " ".join(covered + unknown[:17])  # 3 of 20 tokens covered
        assert routing_score(tokenize(exact, drop_stopwords=True), vocabulary) == MIN_ROUTING_SCORE
        assert car_site.host in live_hosts(vertical, exact)
        below = " ".join(covered + unknown)  # 3 of 21
        assert car_site.host not in live_hosts(vertical, below)

    def test_score_is_fraction_of_covered_tokens(self, vertical, car_site):
        vocabulary = vertical.registry[car_site.host].vocabulary
        assert routing_score(["toyota"], vocabulary) == 1.0
        assert routing_score(["toyota", "spaceship"], vocabulary) == 0.5
        assert routing_score([], vocabulary) == 0.0


class TestEmptyQueries:
    @pytest.mark.parametrize("query", ["", "   "])
    def test_empty_query_plans_no_route(self, vertical, query):
        assert live_hosts(vertical, query) == ()

    def test_stopword_only_query_routes_nowhere(self, vertical):
        assert live_hosts(vertical, "the and of") == ()


class TestReformulation:
    def test_select_values_bound_to_selects(self, car_form):
        bindings = reformulate("red toyota sedan", classify_domain(car_form))
        assert bindings.get("make") == "Toyota"
        assert bindings.get("color") == "red"
        assert bindings.get("body_style") == "sedan"

    def test_year_number_bound_to_year_input(self, car_form):
        bindings = reformulate("toyota 2003", classify_domain(car_form))
        year_bindings = [name for name in bindings if "year" in name]
        assert year_bindings, f"bindings: {bindings}"

    def test_leftover_tokens_go_to_search_box(self, car_form):
        bindings = reformulate("toyota excellent condition", classify_domain(car_form))
        search_values = [value for value in bindings.values() if "excellent" in value]
        assert search_values, "unmatched tokens should be sent to the search box"

    def test_empty_query(self, car_form):
        assert reformulate("", classify_domain(car_form)) == {}
