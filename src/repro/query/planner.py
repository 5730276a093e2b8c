"""The query planner: routing signals in, an explicit plan out.

The planner decides *which* of the three complementary systems answer a
query, using only signals a serving stack realistically has at plan
time:

* **routing vocabulary scores** -- the sources registered with the
  virtual-integration :class:`~repro.virtual.vertical.VerticalSearchEngine`
  are ranked by how much of the query their schema/option/description
  vocabulary covers (structured queries: how many filter attributes
  their form mapping binds); only plausibly relevant hosts earn a live
  probe (and only when the caller opted into query-time load);
* **store composition stats** -- ``store_stats().by_source`` says
  whether the webtables route has any documents to rank at all;
* **corpus attribute statistics** -- the
  :class:`~repro.webtables.acsdb.AcsDb` says whether a filter attribute
  (or an all-attribute keyword query, the table-lookup shape) is known
  to any harvested schema.

The planner never executes anything: it emits a :class:`QueryPlan`
whose fingerprint names every decision, so plans are replayable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.query.parse import ParsedQuery, parse_query
from repro.query.plan import (
    IndexedRoute,
    LiveVerticalRoute,
    QueryPlan,
    Route,
    WebTablesRoute,
)
from repro.store.records import SOURCE_WEBTABLE
from repro.util.text import tokenize
from repro.virtual.routing import MIN_ROUTING_SCORE, routing_score
from repro.webtables.acsdb import AcsDb

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.search.engine import SearchEngine
    from repro.virtual.vertical import VerticalSearchEngine
    from repro.webtables.corpus import TableCorpus

#: Most form sites one live route probes.
MAX_LIVE_SOURCES = 3
#: ``Web.fetch`` budget of a live route when the caller names none.
DEFAULT_LIVE_BUDGET = 8


class QueryPlanner:
    """Parses queries and emits routed, budgeted :class:`QueryPlan` s.

    The vertical engine and corpus arrive through providers so that
    planning a pure-indexed query never forces the expensive layers into
    existence (building the vertical's registry registers sources, which
    fetches pages).
    """

    def __init__(
        self,
        engine: "SearchEngine",
        vertical_provider: Callable[[], "VerticalSearchEngine | None"] | None = None,
        corpus_provider: Callable[[], "TableCorpus | None"] | None = None,
    ) -> None:
        self._engine = engine
        self._vertical_provider = vertical_provider
        self._corpus_provider = corpus_provider
        # AcsDb rebuilt lazily, keyed on corpus size (schema admission is
        # append-only, so equal counts mean an identical statistics set).
        self._acsdb: AcsDb | None = None
        self._acsdb_key: tuple[int, int] | None = None
        # Store-composition signal memoized on the (append-only) document
        # count: the store's stats walk every document, which must not
        # happen on every keyword-query plan() call.
        self._composition_key: int | None = None
        self._store_has_webtables = False

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        query: str,
        k: int = 20,
        min_per_source: int = 0,
        live: bool = False,
        live_fetch_budget: int | None = None,
        include_webtables: bool | None = None,
    ) -> QueryPlan:
        """Emit the plan for one query.

        Empty/whitespace queries and non-positive ``k`` produce the empty
        plan: no routes, no harvest, no probing, answered as ``[]`` and
        never cached.  ``include_webtables=None`` lets the corpus
        statistics decide (structured filters or an all-attribute
        keyword query unlock the route); ``live=True`` ranks the
        vertical engine's registered sources and adds a budgeted live
        probe when any of them plausibly covers the query.  ``live_fetch_budget=None`` means
        :data:`DEFAULT_LIVE_BUDGET`; ``0`` means no load on the form
        sites, so no live route is planned (and the plan stays
        cacheable).  A negative budget raises ``ValueError``.
        """
        if live_fetch_budget is None:
            live_fetch_budget = DEFAULT_LIVE_BUDGET
        elif live_fetch_budget < 0:
            raise ValueError(
                f"live_fetch_budget must not be negative, got {live_fetch_budget}"
            )
        parsed = parse_query(query)
        if parsed.is_empty or k <= 0:
            return QueryPlan(query=parsed, k=max(k, 0))
        routes: list[Route] = [IndexedRoute(k=k, min_per_source=min_per_source)]
        if include_webtables is None:
            include_webtables = parsed.is_structured or self._is_table_lookup(parsed)
        if include_webtables:
            routes.append(WebTablesRoute())
        if live and live_fetch_budget:
            hosts = self._live_hosts(parsed)
            if hosts:
                routes.append(LiveVerticalRoute(hosts=hosts, fetch_budget=live_fetch_budget))
        return QueryPlan(
            query=parsed, k=k, routes=tuple(routes)
        )

    # -- signals -------------------------------------------------------------

    def _acsdb_for_corpus(self) -> AcsDb | None:
        """The corpus' attribute statistics, rebuilt only when it grew."""
        corpus = self._corpus_provider() if self._corpus_provider else None
        if corpus is None:
            return None
        key = (len(corpus.tables), len(corpus.form_schemas))
        if self._acsdb is None or self._acsdb_key != key:
            self._acsdb = AcsDb.from_corpus(corpus)
            self._acsdb_key = key
        return self._acsdb

    def _is_table_lookup(self, parsed: ParsedQuery) -> bool:
        """Whether a keyword query is really asking for table schemata.

        True when the store holds webtable documents and *every* keyword
        is an attribute known to the corpus statistics -- the
        ``make model price`` shape of the WebTables workload.
        """
        if not parsed.keywords:
            return False
        if not self._webtables_present():
            return False
        acsdb = self._acsdb_for_corpus()
        if acsdb is None or acsdb.schema_count == 0:
            return False
        return all(acsdb.frequency(keyword) > 0 for keyword in parsed.keywords)

    def _webtables_present(self) -> bool:
        """Whether the store holds any ``webtable`` documents, O(1) per
        plan: the store is append-only, so an unchanged document count
        means an unchanged composition."""
        key = len(self._engine)
        if self._composition_key != key:
            self._store_has_webtables = (
                self._engine.store_stats().by_source.get(SOURCE_WEBTABLE, 0) > 0
            )
            self._composition_key = key
        return self._store_has_webtables

    def _live_hosts(self, parsed: ParsedQuery) -> tuple[str, ...]:
        """The hosts a live probe would contact, best first.

        Structured filters rank sources by how many filter attributes
        their form mapping can bind (sources binding none are excluded);
        keyword queries by their routing vocabulary score (sources below
        :data:`~repro.virtual.routing.MIN_ROUTING_SCORE` are excluded).
        The host name breaks ties, so truncation keeps the best sources.
        No vertical engine (or no plausible source) means no live route.
        """
        vertical = self._vertical_provider() if self._vertical_provider else None
        if vertical is None:
            return ()
        scored = []
        if parsed.filters:
            for host, source in vertical.registry.items():
                bindable = sum(
                    1
                    for attribute, _value in parsed.filters
                    if source.mapping.input_for(attribute) is not None
                )
                if bindable:
                    scored.append((-bindable, host))
        else:
            tokens = tokenize(parsed.keyword_text(), drop_stopwords=True)
            for host, source in vertical.registry.items():
                score = routing_score(tokens, source.vocabulary)
                if score >= MIN_ROUTING_SCORE:
                    scored.append((-score, host))
        return tuple(host for _neg, host in sorted(scored)[:MAX_LIVE_SOURCES])
