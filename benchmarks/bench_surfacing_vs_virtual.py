"""E6 -- surfacing vs. virtual integration.

Paper claims (Section 3): surfacing answers "fortuitous" queries that
routing-based virtual integration misses (the content matches even though
the form's domain model would never route the query there); surfacing's load
on form sites is off-line and amortized, while imprecise routing loads sites
at query time; and virtual integration's strength is richer, structured
slice-and-dice within its vertical.

Both sides are measured through the production read: surfacing as deep
pages in the shared index's top 10, virtual integration as the live route
of ``service.query(text, live=True)`` (its ``RouteOutcome`` says whether
live rows came back and what they cost), and the structured slice as the
planner's live hosts handed to ``service.vertical.probe``.  Registering
the sources lands ``vertical-source`` documents in the world's store.
"""

from __future__ import annotations

from repro.query.plan import ROUTE_LIVE_VERTICAL, LiveVerticalRoute
from repro.query.planner import MAX_LIVE_SOURCES
from repro.search.engine import SOURCE_SURFACED
from repro.search.querylog import KIND_TAIL
from repro.virtual.vertical import MAX_PAGES_PER_SOURCE
from repro.webspace.loadmeter import AGENT_SURFACER, AGENT_VIRTUAL

from conftest import print_table

#: Enough budget to page every routed source to the page limit, so the
#: budget never truncates a probe: routing alone decides the load.
LIVE_BUDGET = MAX_LIVE_SOURCES * MAX_PAGES_PER_SOURCE


def _tail_queries(world, limit: int = 60):
    return [query for query in world.query_log.by_kind(KIND_TAIL)][:limit]


def _live_query(world, text: str) -> tuple[bool, int]:
    """Whether the live route returned rows for ``text``, and its fetches."""
    result = world.service.query(
        text, live=True, live_fetch_budget=LIVE_BUDGET, include_webtables=False
    )
    live = [outcome for outcome in result.routes if outcome.route == ROUTE_LIVE_VERTICAL]
    return bool(live and live[0].produced), result.live_fetches_spent


def test_surfacing_vs_virtual_on_tail_queries(surfaced_bench_world, benchmark):
    world = surfaced_bench_world
    world.service.vertical  # noqa: B018 - register the sources before timing
    queries = _tail_queries(world)

    def run() -> tuple[int, int, int]:
        surfacing_answered = 0
        virtual_answered = 0
        virtual_fetches = 0
        for query in queries:
            results = world.engine.search(query.text, k=10)
            if any(result.source == SOURCE_SURFACED for result in results):
                surfacing_answered += 1
            answered, fetches = _live_query(world, query.text)
            virtual_fetches += fetches
            if answered:
                virtual_answered += 1
        return surfacing_answered, virtual_answered, virtual_fetches

    surfacing_answered, virtual_answered, virtual_fetches = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    surfacer_load = world.web.load_meter.total(agent=AGENT_SURFACER)
    virtual_load = world.web.load_meter.total(agent=AGENT_VIRTUAL)
    deep_sites = max(1, len(world.web.deep_sites()))

    rows = [
        ("tail queries evaluated", len(queries)),
        ("answered via surfacing (deep page in top 10)", surfacing_answered),
        ("answered via virtual integration (routing + reformulation)", virtual_answered),
        ("query-time fetches issued by virtual integration", virtual_fetches),
        ("total off-line surfacing load (all sites, one-time)", surfacer_load),
        ("  per site", round(surfacer_load / deep_sites, 1)),
        ("query-time fetches per answered virtual query", round(virtual_fetches / max(1, virtual_answered), 2)),
    ]
    print_table("E6: surfacing vs. virtual integration on tail queries", rows)

    # Shape 1: surfacing answers at least as many tail queries as the
    # routing-based virtual approach (fortuitous answering).
    assert surfacing_answered >= virtual_answered
    assert surfacing_answered > 0

    # Shape 2: virtual integration pays per-query site fetches; surfacing pays
    # nothing at query time (its load was spent off-line).
    assert virtual_fetches > 0


def test_fortuitous_queries_favor_surfacing(surfaced_bench_world):
    """Content-specific queries with no domain vocabulary: surfacing can still
    answer them, routing cannot."""
    world = surfaced_bench_world
    # The same constrained source count as the tail-query experiment
    # (MAX_LIVE_SOURCES): routing imprecision only bites when the planner
    # cannot broadcast.

    fortuitous = []
    for result in world.surfacing_results:
        if result.urls_indexed == 0:
            continue
        table = next(iter(world.web.site(result.host).database.tables()))
        for key in table.primary_keys()[:5]:
            record = table.get(key)
            words = [word for word in str(record["description"]).split() if len(word) > 4][:3]
            fortuitous.append(" ".join(words))
        if len(fortuitous) >= 15:
            break

    surfacing_hits = 0
    virtual_hits = 0
    for query in fortuitous:
        if any(r.source == SOURCE_SURFACED for r in world.engine.search(query, k=10)):
            surfacing_hits += 1
        if _live_query(world, query)[0]:
            virtual_hits += 1

    rows = [
        ("fortuitous queries", len(fortuitous)),
        ("answered by surfacing", surfacing_hits),
        ("answered by virtual integration", virtual_hits),
    ]
    print_table("E6b: fortuitous query answering", rows)
    assert surfacing_hits > virtual_hits


def test_virtual_integration_supports_structured_slicing(surfaced_bench_world):
    """Where virtual integration wins: structured queries within a vertical."""
    world = surfaced_bench_world
    plan = world.service.planner.plan("color:red", live=True)
    routes = [route for route in plan.routes if isinstance(route, LiveVerticalRoute)]
    if not routes:
        return  # the small world may not contain a source with a color input
    route = routes[0]
    answer = world.service.vertical.probe(
        route.hosts, filters={"color": "red"}, fetch_budget=route.fetch_budget, max_results=50
    )
    rows = [
        ("sources whose form binds color", len(route.hosts)),
        ("records returned for color=red", len(answer.records)),
    ]
    print_table("E6c: structured slice-and-dice in the vertical", rows)
    assert all(record.get("color") == "red" for record in answer.records)
