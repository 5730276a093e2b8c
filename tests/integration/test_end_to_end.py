"""Integration tests: the full story of the paper on one small world.

These tests exercise the interactions between subsystems (crawl -> surface ->
index -> query -> analyze; virtual integration vs. surfacing; semantic
server over the same web) rather than individual modules.
"""

from __future__ import annotations

import pytest

from repro.analysis.longtail import deep_web_impact
from repro.api import DeepWebService
from repro.query.plan import ROUTE_LIVE_VERTICAL, LiveVerticalRoute
from repro.search.crawler import Crawler
from repro.search.engine import SOURCE_DEEP_CRAWLED, SOURCE_SURFACE, SOURCE_SURFACED, SearchEngine
from repro.search.querylog import KIND_TAIL
from repro.webspace.loadmeter import AGENT_SURFACER, AGENT_VIRTUAL
from repro.webtables.semantic_server import SemanticServer


class TestSurfacingStory:
    def test_deep_content_invisible_before_surfacing(self, crawled_world):
        counts = crawled_world.engine.store_stats().by_source
        assert counts.get(SOURCE_SURFACE, 0) > 0
        # Without surfacing, only homepages (and a few browse links) of deep
        # sites are indexed: a tiny fraction of the records.
        deep_docs = counts.get(SOURCE_DEEP_CRAWLED, 0)
        assert deep_docs < 0.2 * crawled_world.web.total_deep_records()

    def test_surfacing_exposes_most_deep_records(self, surfaced_world):
        total_records = surfaced_world.web.total_deep_records()
        covered = sum(result.records_covered for result in surfaced_world.surfacing_results)
        get_form_records = sum(
            surfaced_world.web.site(result.host).size()
            for result in surfaced_world.surfacing_results
            if result.forms_surfaced > 0
        )
        assert covered > 0.6 * get_form_records
        assert surfaced_world.engine.store_stats().by_source.get(SOURCE_SURFACED, 0) > 0
        assert total_records >= get_form_records

    def test_tail_queries_answered_from_surfaced_pages(self, surfaced_world):
        log = surfaced_world.query_log
        tail_queries = [query for query in log.by_kind(KIND_TAIL)][:40]
        answered = 0
        for query in tail_queries:
            results = surfaced_world.engine.search(query.text, k=10)
            if any(result.source == SOURCE_SURFACED for result in results):
                answered += 1
        assert answered / max(1, len(tail_queries)) > 0.5

    def test_fortuitous_answering(self, surfaced_world):
        """A query phrased around record content (not form fields) is still
        answered because the surfaced page text matches -- the paper's
        'SIGMOD award MIT professor' scenario."""
        site = next(
            surfaced_world.web.site(result.host)
            for result in surfaced_world.surfacing_results
            if result.urls_indexed > 0
        )
        table = next(iter(site.database.tables()))
        record = table.get(table.primary_keys()[0])
        # Use distinctive content words from the record's description.
        words = [word for word in str(record["description"]).split() if len(word) > 4][:3]
        query = " ".join(words)
        results = surfaced_world.engine.search(query, k=10)
        assert any(result.host == site.host for result in results)

    def test_crawler_discovers_more_after_seeding(self, surfaced_world):
        """Once surfaced URLs are indexed, a follow-up crawl of their links
        discovers detail pages the original crawl could never reach."""
        engine = surfaced_world.engine
        web = surfaced_world.web
        surfaced_docs = engine.documents(source=SOURCE_SURFACED)[:5]
        crawler = Crawler(web, engine)
        before = len(engine)
        stats = crawler.crawl(seeds=[doc.url for doc in surfaced_docs], max_pages=60, max_depth=2)
        assert stats.fetched > 0
        assert len(engine) > before


class TestSurfacingVsVirtualIntegration:
    """Virtual integration through the federated read's live route."""

    @pytest.fixture(scope="class")
    def live_service(self, surfaced_world):
        """A service over the world's web with a store of its own, so source
        registration lands no ``vertical-source`` documents in the shared
        world's index."""
        service = DeepWebService.build().web(surfaced_world.web).create()
        service.vertical  # noqa: B018 - registration fetches come first
        return service

    def test_query_time_load_profile(self, surfaced_world, live_service):
        """Surfacing loads sites off-line; virtual integration loads them at
        query time."""
        web = surfaced_world.web
        virtual_before = web.load_meter.total(agent=AGENT_VIRTUAL)
        spent = 0
        for _ in range(5):
            result = live_service.query("used toyota", live=True, live_fetch_budget=9)
            assert ROUTE_LIVE_VERTICAL in [outcome.route for outcome in result.routes]
            spent += result.live_fetches_spent
        virtual_after = web.load_meter.total(agent=AGENT_VIRTUAL)
        assert virtual_after - virtual_before == spent > 0
        # Surfacer load was spent before any query arrived and does not grow
        # with the query stream.
        surfacer_before = web.load_meter.total(agent=AGENT_SURFACER)
        surfaced_world.engine.search("used toyota")
        assert web.load_meter.total(agent=AGENT_SURFACER) == surfacer_before

    def test_vertical_supports_structured_slicing(self, live_service):
        plan = live_service.planner.plan("color:red", live=True)
        route = next(r for r in plan.routes if isinstance(r, LiveVerticalRoute))
        answer = live_service.vertical.probe(
            route.hosts, filters={"color": "red"}, fetch_budget=route.fetch_budget
        )
        assert answer.records
        assert all(record.get("color") == "red" for record in answer.records)


class TestSemanticServerIntegration:
    def test_services_built_from_surfaced_web(self, surfaced_world):
        server = SemanticServer.from_web(surfaced_world.web, detail_pages_per_site=6)
        attributes = set(server.acsdb.attributes())
        assert "price" in attributes or "year" in attributes
        suggestions = server.autocomplete(["city", "state"])
        assert suggestions, "geo attributes should have common co-attributes"


class TestImpactAnalysisIntegration:
    def test_full_pipeline_produces_long_tail_shape(self, surfaced_world):
        report = deep_web_impact(surfaced_world.engine, surfaced_world.query_log, k=10)
        assert report.queries_with_deep_result > 0
        assert report.tail_impact_rate >= report.head_impact_rate
        # Impact is spread over multiple forms, not one dominant site.
        if len(report.form_impacts) >= 2:
            assert report.share_of_top_forms(1) < 1.0
