"""The PR's acceptance pins: planner reads are byte-identical.

* an indexed-only :class:`QueryPlan` returns byte-identical results
  (ids, scores, order) to the pre-planner ``search_all`` algorithm,
  replicated inline below, at every ``min_per_source`` parity -- that
  read is now ``service.query(q, k, min_per_source,
  include_webtables=False)``.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
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
        assert [o.route for o in outcome.routes if not o.skipped] == ["indexed"]
