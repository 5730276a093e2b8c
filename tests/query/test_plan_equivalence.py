"""The PR's acceptance pins: planner reads are byte-identical.

* an indexed-only :class:`QueryPlan` returns byte-identical results
  (ids, scores, order) to the pre-planner ``search_all`` algorithm,
  replicated inline below, at every ``min_per_source`` parity -- that
  read is now ``service.query(q, k, min_per_source,
  include_webtables=False)``;
* frontend-served plans are byte-identical to direct executor runs,
  including after a mid-workload ingest invalidates the plan cache.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.serve.frontend import QueryFrontend
from repro.serve.loadgen import WorkloadGenerator
from repro.store.records import IngestRecord
from repro.util.text import tokenize
from repro.webspace.sitegen import WebConfig


@pytest.fixture(scope="module")
def service() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=3, surface_site_count=2, max_records=50, seed=23))
        .surfacing(SurfacingConfig(max_urls_per_form=50))
        .create()
    )
    service.crawl(max_pages=120)
    service.surface()
    return service


def legacy_search_all(service, query: str, k: int = 20, min_per_source: int = 3):
    """The pre-planner ``search_all`` read path, verbatim."""
    service.harvest_tables()
    if k <= 0:
        return []
    if min_per_source <= 0:
        return service.engine.search(query, k=k)
    full = service.engine.search(query, k=max(k, len(service.engine)))
    top = full[:k]
    counts: dict[str, int] = {}
    for result in top:
        counts[result.source] = counts.get(result.source, 0) + 1
    extras = []
    for result in full[k:]:
        if counts.get(result.source, 0) < min_per_source:
            counts[result.source] = counts.get(result.source, 0) + 1
            extras.append(result)
    if extras:
        top = sorted(top + extras, key=lambda r: (-r.score, r.doc_id))
    return top


def sample_queries(service, limit: int = 40) -> list[str]:
    """Deterministic query texts drawn from the corpus itself."""
    queries = []
    for doc in service.engine.documents():
        tokens = tokenize(doc.text, drop_stopwords=True)[:3]
        if tokens:
            queries.append(" ".join(tokens))
        if len(queries) >= limit:
            break
    assert queries
    return queries


class TestIndexedPlanEquivalence:
    @pytest.mark.parametrize("min_per_source", [0, 1, 3, 7])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_search_all_is_byte_identical_to_the_legacy_path(
        self, service, k, min_per_source
    ):
        for query in sample_queries(service):
            expected = legacy_search_all(service, query, k=k, min_per_source=min_per_source)
            got = service.query(
                query, k=k, min_per_source=min_per_source, include_webtables=False
            ).results
            assert got == expected  # ids, scores, order -- the full tuples

    def test_direct_executor_matches_search_all(self, service):
        for query in sample_queries(service, limit=15):
            plan = service.planner.plan(query, k=10, min_per_source=2, include_webtables=False)
            assert service.executor.execute(plan).results == service.query(
                query, k=10, min_per_source=2, include_webtables=False
            ).results

    def test_indexed_hits_carry_route_provenance(self, service):
        plan = service.planner.plan(sample_queries(service, 1)[0], k=5, include_webtables=False)
        outcome = service.executor.execute(plan)
        assert outcome.hits, "corpus-derived query must match"
        assert all(hit.route == "indexed" for hit in outcome.hits)
        assert outcome.routes_taken() == ("indexed",)


class TestFrontendPlanEquivalence:
    def _plans(self, service, count: int, seed: str):
        stream = WorkloadGenerator(service.web, seed=seed).mixed_stream(count, k=10)
        return [service.planner.plan(query.text, k=query.k, min_per_source=2) for query in stream]

    def test_served_plans_match_direct_executor_runs(self, service):
        plans = self._plans(service, 150, seed="plan-equiv")
        direct = [service.executor.execute(plan).results for plan in plans]
        recorded = service.planner_stats.as_dict()["plans"]
        with QueryFrontend(
            service.engine, workers=1, cache_size=512, executor=service.executor
        ) as frontend:
            served = [frontend.serve_plan(plan).results for plan in plans]
            assert served == direct
            assert frontend.stats().served == len(plans)
            assert service.planner_stats.as_dict()["plans"] == recorded + len(plans)
            assert frontend.cache.hits > 0, "repeated plans must hit the fingerprint cache"

    def test_mid_workload_ingest_invalidates_served_plans(self, service):
        plans = self._plans(service, 80, seed="plan-invalidate")
        half = len(plans) // 2
        with QueryFrontend(
            service.engine, workers=1, cache_size=512, executor=service.executor
        ) as frontend:
            first_direct = [service.executor.execute(plan).results for plan in plans[:half]]
            assert [frontend.serve_plan(p).results for p in plans[:half]] == first_direct

            text = "midworkload planner listing city bedrooms special"
            service.engine.ingest_records(
                [
                    IngestRecord(
                        url="http://ingest.planner.example.com/1",
                        host="ingest.planner.example.com",
                        title="planner midworkload",
                        text=text,
                        tokens=tokenize(text),
                        source="surfaced",
                    )
                ]
            )

            second_direct = [service.executor.execute(plan).results for plan in plans[half:]]
            assert [frontend.serve_plan(p).results for p in plans[half:]] == second_direct

    def test_cached_plan_serves_identical_hits_with_provenance(self, service):
        plan = service.planner.plan(sample_queries(service, 1)[0], k=8, min_per_source=2)
        with QueryFrontend(
            service.engine, workers=1, cache_size=64, executor=service.executor
        ) as frontend:
            cold = frontend.serve_plan(plan)
            warm = frontend.serve_plan(plan)
            assert not cold.cached and warm.cached
            assert warm.hits == cold.hits  # provenance survives the cache
            assert warm.results == cold.results
