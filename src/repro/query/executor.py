"""Plan execution: routes run under budgets, results blended with provenance.

The :class:`QueryExecutor` is the single place a :class:`QueryPlan`
turns into results.  Each route operator runs in plan order under its
own budget (live probes are capped by an explicit ``Web.fetch`` budget),
its raw output is blended by the deterministic :class:`BlendedRanker`,
and the returned :class:`PlanResult` carries provenance: which route
produced each hit, how many hits each route contributed and kept, and
what each route spent.

Equivalence guarantee: a plan holding a single :class:`IndexedRoute`
bypasses normalization entirely -- its results (ids, scores, order) are
byte-identical to the pre-planner cross-corpus read path, which
``tests/query/`` pins against a legacy replica.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.query.plan import (
    IndexedRoute,
    LiveVerticalRoute,
    QueryPlan,
    SOURCE_LIVE_VERTICAL,
    WebTablesRoute,
)
from repro.search.engine import SearchEngine, SearchResult
from repro.store.records import SOURCE_WEBTABLE
from repro.webspace.web import FetchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virtual.vertical import VerticalSearchEngine


#: Ranked ``(doc_id, score)`` pairs and, index for index, their source tags.
_SourceRanking = tuple[list[tuple[int, float]], list[str]]


@dataclass(frozen=True)
class PlanHit:
    """One blended result plus the route that produced it."""

    result: SearchResult
    route: str


@dataclass(frozen=True)
class RouteOutcome:
    """What one route did during a plan execution.

    Degraded provenance: ``degraded`` is True when the route lost work to
    fetch failures -- it returned *less* than a fault-free execution would
    have, never anything different.  ``failed_hosts`` names the hosts whose
    query-time fetches failed (live route only) and ``error`` carries a
    short description of the failure mode.
    """

    route: str
    produced: int
    kept: int
    fetches_spent: int
    seconds: float
    degraded: bool = False
    failed_hosts: tuple[str, ...] = ()
    error: str = ""


@dataclass
class PlanResult:
    """The outcome of executing one plan, provenance included.

    ``degraded`` (any route degraded) marks a partial answer: under the
    no-wrong-answers invariant every hit is one the fault-free execution
    also produces, but some may be missing.
    """

    plan: QueryPlan
    hits: list[PlanHit] = field(default_factory=list)
    routes: list[RouteOutcome] = field(default_factory=list)
    #: Pre-blend per-route contributions ``(route name, results)``;
    #: populated only by ``execute(..., keep_raw=True)`` (chaos harness).
    raw: tuple[tuple[str, tuple[SearchResult, ...]], ...] | None = None

    @property
    def results(self) -> list[SearchResult]:
        """The ranked result list (what ``service.query`` callers read)."""
        return [hit.result for hit in self.hits]

    @property
    def live_fetches_spent(self) -> int:
        return sum(outcome.fetches_spent for outcome in self.routes)

    @property
    def degraded(self) -> bool:
        return any(outcome.degraded for outcome in self.routes)



class PlannerStats:
    """Cumulative provenance counters over every executed plan.

    Shared between the service facade (``report()``) and whichever
    executor instances serve traffic; recording is locked because plan
    execution may happen on frontend worker threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.plans = 0
        self.empty_plans = 0
        self.degraded_plans = 0
        self.live_fetches = 0
        self.blended_results = 0
        self.routes_taken: dict[str, int] = {}
        self.hits_by_route: dict[str, int] = {}

    def record(self, result: PlanResult) -> None:
        with self._lock:
            self.plans += 1
            if result.plan.is_empty:
                self.empty_plans += 1
            if result.degraded:
                self.degraded_plans += 1
            self.live_fetches += result.live_fetches_spent
            self.blended_results += len(result.hits)
            for outcome in result.routes:
                self.routes_taken[outcome.route] = self.routes_taken.get(outcome.route, 0) + 1
                self.hits_by_route[outcome.route] = (
                    self.hits_by_route.get(outcome.route, 0) + outcome.kept
                )

    def as_dict(self) -> dict[str, object]:
        """A deterministic snapshot (sorted route keys)."""
        with self._lock:
            return {
                "plans": self.plans,
                "empty_plans": self.empty_plans,
                "degraded_plans": self.degraded_plans,
                "live_fetches": self.live_fetches,
                "blended_results": self.blended_results,
                "routes_taken": dict(sorted(self.routes_taken.items())),
                "hits_by_route": dict(sorted(self.hits_by_route.items())),
            }


class BlendedRanker:
    """Deterministic cross-route merge.

    A single contribution passes through untouched (raw backend scores,
    the byte-identity path).  Multiple contributions are score-normalized
    per route (divide by the route's best score), deduplicated -- a
    document two routes both surfaced keeps its best-normalized instance
    -- and merged score-descending with ties broken by ascending doc id,
    then by route order.  Per-route floors guarantee representation:
    a route with ``floor=f`` keeps at least ``min(f, produced)`` hits in
    the final list, pulled up in normalized-rank order.
    """

    def blend(
        self,
        contributions: Sequence[tuple[str, Sequence[SearchResult], int]],
        k: int,
    ) -> list[PlanHit]:
        if len(contributions) == 1:
            name, results, _floor = contributions[0]
            return [PlanHit(result=result, route=name) for result in results]
        # (-normalized score, doc id, route order, result, route name): the
        # rescored result row is built only for candidates that survive.
        candidates: list[tuple[float, int, int, SearchResult, str]] = []
        for order, (name, results, _floor) in enumerate(contributions):
            best = max((result.score for result in results), default=0.0)
            norm = best if best > 0 else 1.0
            for result in results:
                candidates.append(
                    (-(result.score / norm), result.doc_id, order, result, name)
                )
        candidates.sort(key=lambda entry: entry[:3])
        deduped: list[tuple[float, int, int, SearchResult, str]] = []
        seen: set[str] = set()
        for entry in candidates:
            # URL is the one identity shared by store documents and
            # live-minted results, so a page the live probe returns that
            # the store also holds dedups to its best instance.
            url = entry[3].url
            if url in seen:
                continue
            seen.add(url)
            deduped.append(entry)
        head = deduped[:k]
        tail_start = len(head)
        counts: dict[str, int] = {}
        for entry in head:
            counts[entry[4]] = counts.get(entry[4], 0) + 1
        taken: set[int] = set()
        for name, _results, floor in contributions:
            if floor <= 0:
                continue
            for index in range(tail_start, len(deduped)):
                if counts.get(name, 0) >= floor:
                    break
                if deduped[index][4] == name and index not in taken:
                    taken.add(index)
                    head.append(deduped[index])
                    counts[name] = counts.get(name, 0) + 1
        order_of = {name: index for index, (name, _r, _f) in enumerate(contributions)}
        head.sort(key=lambda entry: (entry[0], entry[1], order_of[entry[4]]))
        return [
            PlanHit(replace(result, score=-neg_score), name)
            for neg_score, _doc_id, _order, result, name in head
        ]


class QueryExecutor:
    """Runs plans against the store, the table corpus and the live seam."""

    def __init__(
        self,
        engine: SearchEngine,
        vertical_provider: Callable[[], "VerticalSearchEngine | None"] | None = None,
        refresh: Callable[[], int] | None = None,
        ranker: BlendedRanker | None = None,
        stats: PlannerStats | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._engine = engine
        self._vertical_provider = vertical_provider
        #: Corpus refresh hook (the facade's incremental ``harvest_tables``);
        #: runs once per non-empty plan so the webtables route ranks over a
        #: current corpus.  O(1) on a settled store.
        self._refresh = refresh
        self._ranker = ranker or BlendedRanker()
        self.stats = stats or PlannerStats()
        self._clock = clock

    def execute(self, plan: QueryPlan, keep_raw: bool = False) -> PlanResult:
        """Run every route in plan order and blend the outputs.

        Empty plans return an empty result without refreshing, probing
        or ranking anything -- the one query contract shared by every
        read layer.  ``keep_raw=True`` additionally attaches the pre-blend
        per-route contributions to the result (used by the chaos harness
        to check the degraded-subset invariant against the full candidate
        pool, not just the blended top-k).
        """
        if plan.is_empty:
            result = PlanResult(plan=plan)
            self.stats.record(result)
            return result
        if self._refresh is not None:
            self._refresh()
        contributions: list[tuple[str, list[SearchResult], int]] = []
        raw: list[tuple[str, int, int, float, tuple[str, ...], str]] = []
        #: Per-execution memo so the indexed floor path and the webtables
        #: route share one store search instead of ranking the corpus twice.
        shared: dict[str, _SourceRanking] = {}
        for route in plan.routes:
            route_started = self._clock()
            fetches = 0
            failed_hosts: tuple[str, ...] = ()
            error = ""
            if isinstance(route, IndexedRoute):
                results = self._run_indexed(plan, route, shared)
            elif isinstance(route, WebTablesRoute):
                results = self._run_webtables(plan, route, shared)
            elif isinstance(route, LiveVerticalRoute):
                results, fetches, failed_hosts, error = self._run_live(plan, route)
            else:  # pragma: no cover - the Route union is closed
                raise TypeError(f"unknown route operator {route!r}")
            contributions.append((route.name, results, getattr(route, "floor", 0)))
            raw.append(
                (
                    route.name,
                    len(results),
                    fetches,
                    self._clock() - route_started,
                    failed_hosts,
                    error,
                )
            )
        hits = self._ranker.blend(contributions, plan.k)
        kept: dict[str, int] = {}
        for hit in hits:
            kept[hit.route] = kept.get(hit.route, 0) + 1
        outcomes = [
            RouteOutcome(
                route=name,
                produced=produced,
                kept=kept.get(name, 0),
                fetches_spent=fetches,
                seconds=seconds,
                degraded=bool(failed_hosts) or bool(error),
                failed_hosts=failed_hosts,
                error=error,
            )
            for name, produced, fetches, seconds, failed_hosts, error in raw
        ]
        result = PlanResult(plan=plan, hits=hits, routes=outcomes)
        if keep_raw:
            result.raw = tuple(
                (name, tuple(results)) for name, results, _floor in contributions
            )
        self.stats.record(result)
        return result

    # -- route operators -----------------------------------------------------

    def _source_ranking(
        self,
        plan: QueryPlan,
        shared: dict[str, _SourceRanking],
    ) -> _SourceRanking:
        """The store's per-source top ranking and each entry's source tag
        -- one backend search per execution.

        ``limit`` is the largest count any store-reading route can ask of
        one source, so the list -- every match among the ``limit`` best of
        its own source, in global rank order -- holds the global top-k as
        its prefix, every floor candidate and the webtables top-k; the
        matches it leaves out are ones no route could return.
        """
        if "ranking" not in shared:
            limit = max(
                max(route.k, getattr(route, "min_per_source", 0))
                for route in plan.routes
                if not isinstance(route, LiveVerticalRoute)
            )
            ranked = self._engine.rank(plan.query.text, k=limit, per_source=True)
            get = self._engine.backend.get
            shared["ranking"] = ranked, [get(doc_id).source for doc_id, _score in ranked]
        return shared["ranking"]

    def _run_indexed(
        self,
        plan: QueryPlan,
        route: IndexedRoute,
        shared: dict[str, _SourceRanking],
    ) -> list[SearchResult]:
        """The materialized read path, byte-for-byte the pre-planner
        cross-corpus merge: global top-k plus the per-source
        representation floor, score-ordered with doc-id ties.  The floor
        is applied to ``(doc_id, score)`` pairs; only the hits returned
        become :class:`SearchResult` rows."""
        engine = self._engine
        if route.min_per_source <= 0:
            # Pure top-k: keep the backend's heap-based ranking path.
            return engine.search(plan.query.text, k=route.k)
        # The representation floor needs to see where every matching
        # source ranks: the store's per-source top ranking shows exactly
        # the matches that can be in the top-k or fill a floor.
        ranked, sources = self._source_ranking(plan, shared)
        top = ranked[: route.k]
        counts: dict[str, int] = {}
        for source in sources[: route.k]:
            counts[source] = counts.get(source, 0) + 1
        extras = []
        for pair, source in zip(ranked[route.k :], sources[route.k :]):
            if counts.get(source, 0) < route.min_per_source:
                counts[source] = counts.get(source, 0) + 1
                extras.append(pair)
        if extras:
            top = sorted(top + extras, key=lambda pair: (-pair[1], pair[0]))
        return engine.materialize(top)

    def _run_webtables(
        self,
        plan: QueryPlan,
        route: WebTablesRoute,
        shared: dict[str, _SourceRanking],
    ) -> list[SearchResult]:
        """Rank only the harvested ``webtable`` documents (tables and form
        schemata the corpus admitted into the shared store)."""
        ranked, sources = self._source_ranking(plan, shared)
        tables = [
            pair for pair, source in zip(ranked, sources) if source == SOURCE_WEBTABLE
        ]
        return self._engine.materialize(tables[: route.k])

    def _run_live(
        self, plan: QueryPlan, route: LiveVerticalRoute
    ) -> tuple[list[SearchResult], int, tuple[str, ...], str]:
        """Budgeted query-time probing through the vertical engine.

        Probe records are minted into result rows with deterministic
        negative doc ids (they have no store document); scores decay by
        extraction rank so the blend's normalization sees a proper
        ranking.  Per-host fetch failures are absorbed inside the probe
        (partial records kept, the host recorded in ``failed_hosts``); a
        :class:`FetchError` escaping the probe itself degrades the whole
        route to whatever the other routes return.
        """
        vertical = self._vertical_provider() if self._vertical_provider else None
        if vertical is None or not route.hosts:
            return [], 0, (), ""
        try:
            answer = vertical.probe(
                route.hosts,
                query=plan.query.keyword_text() or plan.query.text,
                filters=plan.query.filters_dict() or None,
                fetch_budget=route.fetch_budget,
                max_results=route.max_results,
            )
        except FetchError as exc:
            return [], 0, tuple(route.hosts), str(exc)
        results = [
            SearchResult(
                doc_id=-(index + 1),
                url=record.detail_url,
                host=record.host,
                title=record.title,
                score=1.0 / (1.0 + index),
                source=SOURCE_LIVE_VERTICAL,
            )
            for index, record in enumerate(answer.records)
        ]
        return results, answer.fetches_issued, tuple(answer.failed_hosts), ""
