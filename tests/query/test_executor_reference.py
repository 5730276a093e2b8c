"""The floor path against its naive reference, on every backend.

:class:`QueryExecutor` asks the store for the per-source top ranking and
builds result rows only for the hits it returns.  ``NaiveExecutor`` below
keeps the route operators it replaced -- rank *every* match, one
:class:`SearchResult` per match, walk the whole list -- and both must give
the same hits (ids, scores, order, sources) and the same per-route
produced / kept counts over every ``DocumentCatalog`` backend, healthy or
with a dead shard.
"""

from __future__ import annotations

import random

import pytest

import repro.search.engine as engine_module
from repro.cluster import ClusterBackend, shard_of
from repro.persist import SqliteBackend
from repro.query.executor import QueryExecutor
from repro.query.parse import parse_query
from repro.query.plan import IndexedRoute, QueryPlan, WebTablesRoute
from repro.search.engine import SearchEngine, SearchResult
from repro.store import IngestRecord, InMemoryBackend
from repro.store.records import (
    SOURCE_DEEP_CRAWLED,
    SOURCE_SURFACE,
    SOURCE_SURFACED,
    SOURCE_VERTICAL,
    SOURCE_WEBTABLE,
)


class NaiveExecutor(QueryExecutor):
    """The pre-change route operators, verbatim: full sort, a result row
    per match, a walk over all of them."""

    def _full_ranking(self, plan, shared):
        full = shared.get("full")
        if full is None:
            full = self._engine.search(
                plan.query.text, k=max(plan.k, len(self._engine))
            )
            shared["full"] = full
        return full

    def _run_indexed(self, plan, route, shared):
        engine = self._engine
        query = plan.query.text
        if route.min_per_source <= 0:
            return engine.search(query, k=route.k)
        full = self._full_ranking(plan, shared)
        top = full[: route.k]
        counts: dict[str, int] = {}
        for result in top:
            counts[result.source] = counts.get(result.source, 0) + 1
        extras = []
        for result in full[route.k :]:
            if counts.get(result.source, 0) < route.min_per_source:
                counts[result.source] = counts.get(result.source, 0) + 1
                extras.append(result)
        if extras:
            top = sorted(top + extras, key=lambda r: (-r.score, r.doc_id))
        return top

    def _run_webtables(self, plan, route, shared):
        full = self._full_ranking(plan, shared)
        return [result for result in full if result.source == SOURCE_WEBTABLE][: route.k]


def cluster(shard_count: int, replicas: int = 1) -> ClusterBackend:
    # Identity is asserted, so no deadline a loaded box could miss.
    return ClusterBackend(shard_count, replicas=replicas, deadline_seconds=30)


BACKENDS = {
    "memory": lambda tmp_path: InMemoryBackend(),
    "sqlite": lambda tmp_path: SqliteBackend(tmp_path / "store.sqlite3"),
    "cluster-1x1": lambda tmp_path: cluster(1),
    "cluster-4x1": lambda tmp_path: cluster(4),
    "cluster-4x2": lambda tmp_path: cluster(4, replicas=2),
}

#: Skewed on purpose: one source dominates every ranking, ``webtable`` is
#: small, and ``vertical-source`` holds fewer matches than any floor used.
SOURCE_MIX = (
    [SOURCE_SURFACED] * 12
    + [SOURCE_SURFACE] * 5
    + [SOURCE_DEEP_CRAWLED] * 4
    + [SOURCE_WEBTABLE] * 2
)
TERMS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
DOCUMENTS = 360


def corpus() -> list[IngestRecord]:
    rng = random.Random(16)
    records = []
    for index in range(DOCUMENTS):
        # Few distinct lengths and term counts, so scores tie often.
        tokens = [rng.choice(TERMS) for _ in range(rng.choice([3, 3, 4, 6]))]
        source = rng.choice(SOURCE_MIX)
        if index in (41, 187):
            source, tokens = SOURCE_VERTICAL, ["alpha", "bravo", "golf"]
        records.append(
            IngestRecord(
                url=f"http://site{index % 7}.test/doc/{index}",
                host=f"site{index % 7}.test",
                title=f"doc {index}",
                text=" ".join(tokens),
                tokens=tokens,
                source=source,
            )
        )
    return records


@pytest.fixture(params=list(BACKENDS))
def engine(request, tmp_path):
    backend = BACKENDS[request.param](tmp_path)
    engine = SearchEngine(backend=backend)
    engine.ingest_records(corpus())
    yield engine
    if hasattr(backend, "close"):
        backend.close()


def plan_for(query: str, k: int, floor: int, webtables_k: int | None = None) -> QueryPlan:
    routes = [IndexedRoute(k=k, min_per_source=floor)]
    if webtables_k is not None:
        routes.append(WebTablesRoute(k=webtables_k))
    return QueryPlan(query=parse_query(query), k=k, routes=tuple(routes))


def outcome(executor: QueryExecutor, plan: QueryPlan):
    result = executor.execute(plan, keep_raw=True)
    return (
        [(hit.route, hit.result) for hit in result.hits],
        [(route.route, route.produced, route.kept) for route in result.routes],
        result.raw,
    )


QUERIES = ["alpha", "alpha bravo", "charlie delta echo", "golf", "golf alpha", "nosuchterm"]
#: (k, min_per_source, webtables k): floor above k, k above the match
#: count, a floor no source can fill, a webtables route wider than k.
SHAPES = [
    (10, 2, None),
    (3, 5, None),
    (1, 3, None),
    (500, 3, None),
    (5, 400, None),
    (10, 2, 10),
    (2, 1, 25),
    (4, 0, 6),
    (6, 3, 1),
]


class TestEqualsNaiveReference:
    @pytest.mark.parametrize("k,floor,webtables_k", SHAPES)
    def test_hits_and_route_counts_match(self, engine, k, floor, webtables_k):
        fast, naive = QueryExecutor(engine), NaiveExecutor(engine)
        answered = 0
        for query in QUERIES:
            plan = plan_for(query, k, floor, webtables_k)
            got = outcome(fast, plan)
            assert got == outcome(naive, plan)
            answered += bool(got[0])
        assert answered >= len(QUERIES) - 1  # only the nonsense term is empty

    def test_floor_shapes_are_really_exercised(self, engine):
        def sources(results):
            return {result.source for result in results}

        executor = QueryExecutor(engine)
        plain = executor.execute(plan_for("alpha bravo", 3, 0)).results
        floored = executor.execute(plan_for("alpha bravo", 3, 5)).results
        assert len(floored) > len(plain) == 3
        # Two vertical-source documents exist: the floor of 5 gets both, no padding.
        assert sum(r.source == SOURCE_VERTICAL for r in floored) == 2
        assert sources(floored) > sources(plain)


class TestDeadShard:
    def test_degraded_answer_equals_naive_and_is_a_flagged_exact_score_subset(self):
        reference = InMemoryBackend()
        for record in corpus():
            reference.add(record)
        backend = cluster(4)
        engine = SearchEngine(backend=backend)
        engine.ingest_records(corpus())
        fast, naive = QueryExecutor(engine), NaiveExecutor(engine)
        backend.kill("shard2/replica0")
        lost = {
            doc.doc_id for doc in engine.documents() if shard_of(doc.url, 4) == 2
        }
        for query in QUERIES[:5]:
            plan = plan_for(query, 5, 3, 8)
            degraded = outcome(fast, plan)
            assert backend.consume_degraded()
            assert degraded == outcome(naive, plan)
            assert backend.consume_degraded()
            # What the dead shard held is gone; every survivor keeps
            # the score the healthy single index gives it.
            healthy = dict(reference.search(plan.query.text.split()))
            assert lost & set(healthy)
            # Pre-blend contributions: blending renormalises scores.
            survivors = [r for _route, results in degraded[2] for r in results]
            assert survivors
            for result in survivors:
                assert result.doc_id not in lost
                assert healthy[result.doc_id] == result.score


class TestWorkIsBoundedByWhatIsReturned:
    """Counts, not timings: a floor query builds result rows and reads
    documents in proportion to ``limit x sources``, not to the matches."""

    def test_result_rows_and_document_reads(self, engine, monkeypatch):
        backend = engine.backend
        k, floor = 4, 2
        limit, source_count = max(k, floor), len(backend.stats().by_source)
        matches = len(backend.search(["alpha", "bravo"]))
        assert matches > 4 * limit * source_count

        built, reads = [], []

        def counting_result(**fields):
            built.append(fields["doc_id"])
            return SearchResult(**fields)

        real_get = backend.get

        def counting_get(doc_id):
            reads.append(doc_id)
            return real_get(doc_id)

        monkeypatch.setattr(engine_module, "SearchResult", counting_result)
        monkeypatch.setattr(backend, "get", counting_get)
        result = QueryExecutor(engine).execute(plan_for("alpha bravo", k, floor, 3))
        assert result.hits
        returned = sum(route.produced for route in result.routes)
        assert len(built) == returned <= limit * source_count
        # One read per candidate for its source tag, one per returned hit.
        assert len(reads) <= limit * source_count + returned
        assert len(reads) < matches
