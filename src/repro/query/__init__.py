"""The federated query layer: one routed read path across every corpus.

The paper's central claim is that surfacing, virtual integration and
WebTables are *complementary* routes to deep-web content.  This package
makes that claim executable: a :class:`QueryPlanner` parses an incoming
query (keyword vs ``field:value`` structured filters), consults the
source-routing signals a serving stack realistically has (the
vertical registry's routing vocabulary scores, store composition
stats, corpus generation) and emits
an explicit :class:`QueryPlan` -- a list of route operators plus a
deterministic blended merge -- which a :class:`QueryExecutor` runs under
per-route time/fetch budgets, returning a :class:`PlanResult` that
carries provenance (which route produced each hit, what each route
spent).

Determinism rules apply throughout: plans are replayable (the
fingerprint names everything that influences execution), blending is
score-normalized with ties broken by doc id, and live probing is capped
by an explicit ``Web.fetch`` budget.
"""

from repro.query.executor import (
    BlendedRanker,
    PlanHit,
    PlannerStats,
    PlanResult,
    QueryExecutor,
    RouteOutcome,
)
from repro.query.parse import ParsedQuery, parse_query
from repro.query.plan import (
    ROUTE_INDEXED,
    ROUTE_LIVE_VERTICAL,
    ROUTE_WEBTABLES,
    SOURCE_LIVE_VERTICAL,
    IndexedRoute,
    LiveVerticalRoute,
    QueryPlan,
    WebTablesRoute,
)
from repro.query.planner import QueryPlanner

__all__ = [
    "ParsedQuery",
    "parse_query",
    "QueryPlan",
    "IndexedRoute",
    "LiveVerticalRoute",
    "WebTablesRoute",
    "ROUTE_INDEXED",
    "ROUTE_LIVE_VERTICAL",
    "ROUTE_WEBTABLES",
    "SOURCE_LIVE_VERTICAL",
    "QueryPlanner",
    "QueryExecutor",
    "BlendedRanker",
    "PlanResult",
    "PlanHit",
    "RouteOutcome",
    "PlannerStats",
]
