"""Cross-corpus service tests: builder ``.store()``, table harvesting and
the cross-corpus read over a sharded content store."""

from __future__ import annotations

import pytest

from repro import (
    DeepWebService,
    InMemoryBackend,
    SurfacingConfig,
    WebConfig,
)
from repro.cluster import ClusterBackend
from repro.search.engine import (
    SOURCE_DEEP_CRAWLED,
    SOURCE_SURFACE,
    SOURCE_SURFACED,
    SOURCE_WEBTABLE,
)

pytestmark = pytest.mark.smoke

SMALL_WEB = WebConfig(total_deep_sites=3, surface_site_count=1, max_records=60, seed=3)


@pytest.fixture(scope="module")
def sharded_service():
    service = (
        DeepWebService.build()
        .web(SMALL_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=100))
        .store(ClusterBackend(shard_count=4, deadline_seconds=30))  # identity is asserted below
        .create()
    )
    service.crawl(max_pages=100)
    service.surface()
    yield service
    service.store.close()


class TestBuilderStore:
    def test_store_backs_the_engine(self):
        backend = InMemoryBackend()
        service = DeepWebService.build().web(SMALL_WEB).store(backend).create()
        assert service.store is backend
        assert service.engine.backend is backend


class TestSearchAll:
    def test_merged_results_span_surfaced_crawled_and_webtables(self, sharded_service):
        results = sharded_service.query(
            "used toyota price", min_per_source=3, include_webtables=False
        ).results
        assert results
        sources = {result.source for result in results}
        assert SOURCE_SURFACED in sources
        assert sources & {SOURCE_SURFACE, SOURCE_DEEP_CRAWLED}
        assert SOURCE_WEBTABLE in sources
        # One ranked list: scores non-increasing, ties broken by doc id.
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_min_per_source_zero_gives_pure_topk(self, sharded_service):
        pure = sharded_service.query(
            "used toyota price", k=10, min_per_source=0, include_webtables=False
        ).results
        assert [r.doc_id for r in pure] == [
            r.doc_id for r in sharded_service.search("used toyota price", k=10)
        ]

    def test_search_all_populates_the_shared_store(self, sharded_service):
        counts = sharded_service.engine.store_stats().by_source
        assert counts.get(SOURCE_WEBTABLE, 0) > 0
        assert len(sharded_service.corpus) > 0
        # Sharded layout is real: every shard holds documents.
        assert all(n > 0 for n in sharded_service.engine.store_stats().shard_documents)

    def test_harvest_is_incremental_and_idempotent(self, sharded_service):
        before = len(sharded_service.engine)
        assert sharded_service.harvest_tables() == 0  # nothing new since the reads above
        assert len(sharded_service.engine) == before

    def test_report_accounts_webtable_documents(self, sharded_service):
        report = sharded_service.report()
        assert report.store.by_source.get(SOURCE_WEBTABLE, 0) > 0
        assert str(report)  # deterministic rendering still works

    def test_sharded_results_match_inmemory_service(self, sharded_service):
        # The same seeded workload on the default backend must rank the
        # cross-corpus query identically (backend equivalence end-to-end).
        plain = (
            DeepWebService.build()
            .web(SMALL_WEB)
            .surfacing(SurfacingConfig(max_urls_per_form=100))
            .create()
        )
        plain.crawl(max_pages=100)
        plain.surface()
        expected = [
            (r.doc_id, r.url, r.score, r.source)
            for r in plain.query(
                "used toyota price", k=40, min_per_source=3, include_webtables=False
            ).results
        ]
        got = [
            (r.doc_id, r.url, r.score, r.source)
            for r in sharded_service.query(
                "used toyota price", k=40, min_per_source=3, include_webtables=False
            ).results
        ]
        assert got == expected
