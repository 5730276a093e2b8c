"""Query plans: explicit, replayable route lists.

A :class:`QueryPlan` is the planner's entire decision, reified: which
route operators run, in which order, under which budgets and floors.
Everything that influences execution is named by the plan's
``fingerprint`` -- two plans with the same fingerprint over the same
corpus are the same computation by construction.

Three route operators cover the paper's three complementary systems:

* :class:`IndexedRoute` -- the materialized store (crawled + surfaced +
  webtable + vertical-source documents) ranked by the storage backend,
  with the cross-corpus representation floor;
* :class:`LiveVerticalRoute` -- query-time form probing through the
  virtual-integration engine, capped by an explicit per-plan
  ``Web.fetch`` budget (this is the only route that touches sites at
  query time, so it is the only uncacheable one);
* :class:`WebTablesRoute` -- the harvested table corpus, read through
  the store's ``webtable`` documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.parse import ParsedQuery

ROUTE_INDEXED = "indexed"
ROUTE_LIVE_VERTICAL = "live-vertical"
ROUTE_WEBTABLES = "webtables"

#: Source tag carried by results minted from live probe records (they
#: have no store document behind them, so no store source tag applies).
SOURCE_LIVE_VERTICAL = "live-vertical"


@dataclass(frozen=True)
class IndexedRoute:
    """Rank the unified content store (the pre-planner cross-corpus read).

    ``min_per_source`` is the cross-corpus representation floor: every
    source tag that matches anywhere in the ranking keeps at least that
    many entries (when it has them).  ``floor`` is the *blend-level*
    guarantee: when other routes participate, at least this many indexed
    hits survive the merge.
    """

    k: int
    min_per_source: int = 0
    floor: int = 0

    name = ROUTE_INDEXED
    cacheable = True

    def describe(self) -> str:
        return f"indexed(k={self.k},min_per_source={self.min_per_source},floor={self.floor})"


@dataclass(frozen=True)
class LiveVerticalRoute:
    """Budgeted query-time form probing via the vertical engine.

    ``fetch_budget`` caps the route's ``Web.fetch`` calls for one plan
    execution (routing itself is free; only form submissions and result
    pagination spend budget).
    """

    hosts: tuple[str, ...] = ()
    fetch_budget: int = 8
    max_results: int = 20
    floor: int = 2

    name = ROUTE_LIVE_VERTICAL
    cacheable = False

    def describe(self) -> str:
        return (
            f"live(hosts={','.join(self.hosts)},budget={self.fetch_budget},"
            f"max={self.max_results},floor={self.floor})"
        )


@dataclass(frozen=True)
class WebTablesRoute:
    """Rank the harvested table corpus (``webtable`` store documents)."""

    k: int = 10
    floor: int = 2

    name = ROUTE_WEBTABLES
    cacheable = True

    def describe(self) -> str:
        return f"webtables(k={self.k},floor={self.floor})"


Route = IndexedRoute | LiveVerticalRoute | WebTablesRoute


@dataclass(frozen=True)
class QueryPlan:
    """One routed read, fully described."""

    query: ParsedQuery
    k: int
    routes: tuple[Route, ...] = ()

    @property
    def is_empty(self) -> bool:
        """An empty plan answers ``[]`` without touching any route."""
        return not self.routes

    @property
    def cacheable(self) -> bool:
        """Whether the plan reads only the materialized store: a live
        route probes sites at query time, so its answer is not a function
        of the corpus alone."""
        return all(route.cacheable for route in self.routes)

    @property
    def route_names(self) -> tuple[str, ...]:
        return tuple(route.name for route in self.routes)

    def fingerprint(self) -> str:
        """A deterministic key naming everything that shapes execution.

        Built from the *parsed* query (so ``Toyota  camry`` and
        ``toyota camry`` share an entry), the filters, ``k`` and every
        route's full configuration.
        """
        filters = ",".join(f"{attr}={value.lower()}" for attr, value in self.query.filters)
        routes = "+".join(route.describe() for route in self.routes)
        return f"plan:kw={self.query.keyword_text()}|f={filters}|k={self.k}|{routes}"
