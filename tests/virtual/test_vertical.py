"""Tests for the vertical search engine (virtual integration end-to-end).

The engine is driven the way the executor drives it -- ``probe`` on
explicit hosts -- and keyword queries go through the production read,
``service.query(..., live=True)``.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.extraction import extract_result_records
from repro.datagen.domains import domain
from repro.htmlparse.dom import parse_html
from repro.search.engine import SearchEngine
from repro.query.plan import ROUTE_LIVE_VERTICAL
from repro.util.rng import SeededRng
from repro.virtual.vertical import VerticalSearchEngine
from repro.virtual.wrappers import ResultWrapper, matches_filters
from repro.webspace.loadmeter import AGENT_VIRTUAL
from repro.webspace.sitegen import build_deep_site
from repro.webspace.web import Web


@pytest.fixture
def car_vertical():
    """Two used-car sources and a books source."""
    web = Web()
    sites = [
        build_deep_site(domain("used_cars"), f"cars{i}.vertical.test", 50, SeededRng(f"v{i}"))
        for i in range(2)
    ]
    web.register_all(sites)
    books = build_deep_site(domain("books"), "books.vertical.test", 30, SeededRng("vb"))
    web.register(books)
    engine = VerticalSearchEngine(web)
    accepted = engine.register_sites(web.deep_sites())
    return web, engine, sites, accepted


def probe_all(engine: VerticalSearchEngine, filters: dict[str, str]):
    """A structured probe of every registered source, budget to spare."""
    return engine.probe(list(engine.registry), filters=filters, fetch_budget=100, max_results=50)


class TestRegistration:
    def test_post_only_site_rejected(self):
        web = Web()
        site = build_deep_site(domain("used_cars"), "post.vertical.test", 20, SeededRng(1), method="post")
        web.register(site)
        engine = VerticalSearchEngine(web)
        assert engine.register_site(site) is None
        assert engine.registry == {}

    def test_sites_of_every_domain_are_accepted(self, car_vertical):
        _web, engine, sites, accepted = car_vertical
        assert accepted == len(engine.registry) == len(sites) + 1
        assert engine.registry["books.vertical.test"].mapping.domain == "books"
        assert {engine.registry[site.host].mapping.domain for site in sites} == {"used_cars"}


class TestWrappers:
    def test_wrapper_normalizes_fields(self, car_vertical):
        web, engine, sites, _accepted = car_vertical
        source = engine.registry[sites[0].host]
        template = sites[0].forms[0]
        make_input = next(spec for spec in template.inputs if spec.column == "make")
        url = source.mapping.form.submission_url({make_input.name: make_input.options[0]})
        page = web.fetch(url)
        records = source.wrapper.wrap_page(page.html)
        assert records
        assert all(record.get("make") for record in records)

    def test_result_page_is_parsed_once_per_fetch(self, car_vertical, monkeypatch):
        """The wrapper and the pager share one DOM: every ``parse_html``
        seam a probe can reach is counted, and the total is the fetches."""
        import repro.core.extraction
        import repro.htmlparse.links
        import repro.virtual.vertical

        web, engine, _sites, _accepted = car_vertical
        parses = []

        def counting_parse(html):
            parses.append(html)
            return parse_html(html)

        for module in (repro.virtual.vertical, repro.core.extraction, repro.htmlparse.links):
            monkeypatch.setattr(module, "parse_html", counting_parse)
        before = web.load_meter.total(agent=AGENT_VIRTUAL)
        answer = probe_all(engine, {"color": "red"})
        fetched = web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert answer.records and answer.fetches_issued == fetched
        assert fetched > len(answer.sources_contacted)  # pagination happened
        assert len(parses) == fetched

    def test_extraction_accepts_a_parsed_page(self, car_vertical):
        web, engine, sites, _accepted = car_vertical
        source = engine.registry[sites[0].host]
        template = sites[0].forms[0]
        make_input = next(spec for spec in template.inputs if spec.column == "make")
        url = source.mapping.form.submission_url({make_input.name: make_input.options[0]})
        html = web.fetch(url).html
        from_markup = extract_result_records(html)
        assert from_markup
        assert extract_result_records(parse_html(html)) == from_markup
        assert source.wrapper.wrap_page(parse_html(html)) == source.wrapper.wrap_page(html)

    def test_matches_filters(self):
        from repro.virtual.wrappers import WrappedRecord

        record = WrappedRecord(host="h", title="t", detail_url="u", attributes={"make": "Toyota", "price": "5000"})
        assert matches_filters(record, {"make": "toyota"})
        assert matches_filters(record, {"price": "5000"})
        assert not matches_filters(record, {"make": "Honda"})
        assert not matches_filters(record, {"color": "red"})


class TestStructuredQueries:
    def test_structured_probe_returns_matching_records(self, car_vertical):
        _web, engine, sites, _accepted = car_vertical
        make = sites[0].database.table("listings").get(1)["make"]
        answer = probe_all(engine, {"make": make})
        assert answer.records
        assert all(record.get("make").lower() == make.lower() for record in answer.records)
        # The books source binds no ``make`` input, so it is skipped free.
        assert answer.sources_contacted == [site.host for site in sites]

    def test_structured_probe_slices_by_color(self, car_vertical):
        _web, engine, _sites, _accepted = car_vertical
        answer = probe_all(engine, {"color": "red"})
        assert answer.records
        assert all(record.get("color") == "red" for record in answer.records)


class TestKeywordQueries:
    """Keyword queries through the federated read's live route."""

    @staticmethod
    def live_query(web: Web, query: str):
        service = DeepWebService.build().web(web).create()
        service.vertical  # registration fetches are not query-time load
        before = web.load_meter.total(agent=AGENT_VIRTUAL)
        result = service.query(query, live=True, live_fetch_budget=100, include_webtables=False)
        fetched = web.load_meter.total(agent=AGENT_VIRTUAL) - before
        live = [outcome for outcome in result.routes if outcome.route == ROUTE_LIVE_VERTICAL]
        rows = [hit.result for hit in result.hits if hit.route == ROUTE_LIVE_VERTICAL]
        return live, rows, fetched

    def test_live_keyword_search_answers_domain_query(self, car_vertical):
        web, _engine, sites, _accepted = car_vertical
        record = sites[0].database.table("listings").get(1)
        live, rows, _fetched = self.live_query(web, f"used {record['make']} {record['model']}")
        assert live and live[0].produced
        titles = " ".join(row.title.lower() for row in rows)
        assert record["make"].lower() in titles

    def test_query_time_load_is_metered(self, car_vertical):
        web, _engine, _sites, _accepted = car_vertical
        live, _rows, fetched = self.live_query(web, "used toyota")
        assert fetched == live[0].fetches_spent > 0, "virtual integration fetches sites at query time"

    def test_off_domain_query_is_not_answered(self, car_vertical):
        web, _engine, _sites, _accepted = car_vertical
        live, rows, fetched = self.live_query(web, "moroccan chickpea stew recipe")
        assert live == [] and rows == []
        assert fetched == 0


class TestStoreEmission:
    """Registered sources land in the shared content store."""

    def test_register_site_emits_vertical_source_record(self):
        from repro.store.records import SOURCE_VERTICAL

        web = Web()
        site = build_deep_site(domain("used_cars"), "cars.store.test", 40, SeededRng("vs"))
        web.register(site)
        search_engine = SearchEngine()
        vertical = VerticalSearchEngine(web, ingestor=search_engine.ingestor)
        assert vertical.register_site(site) is not None
        docs = search_engine.documents(source=SOURCE_VERTICAL)
        assert len(docs) == 1
        assert docs[0].host == "cars.store.test"
        assert docs[0].annotations["domain"] == "used_cars"
        # The source description is searchable alongside everything else.
        assert [hit.host for hit in search_engine.search("used cars")] == ["cars.store.test"]

    def test_rejected_site_emits_nothing(self):
        from repro.store.records import SOURCE_VERTICAL

        web = Web()
        site = build_deep_site(
            domain("used_cars"), "post.store.test", 20, SeededRng("vb2"), method="post"
        )
        web.register(site)
        search_engine = SearchEngine()
        vertical = VerticalSearchEngine(web, ingestor=search_engine.ingestor)
        assert vertical.register_site(site) is None
        assert search_engine.documents(source=SOURCE_VERTICAL) == []

    def test_unwired_engine_stays_storeless(self, car_vertical):
        _web, engine, _sites, _accepted = car_vertical
        assert engine._ingestor is None  # default: no store side effects

    def test_source_record_lands_even_when_homepage_already_crawled(self):
        from repro.store.records import SOURCE_VERTICAL
        from repro.webspace.loadmeter import AGENT_CRAWLER

        web = Web()
        site = build_deep_site(domain("used_cars"), "cars.dedup.test", 40, SeededRng("vs3"))
        web.register(site)
        search_engine = SearchEngine()
        homepage = web.fetch(site.homepage_url(), agent=AGENT_CRAWLER)
        search_engine.add_page(homepage)  # the crawl got there first
        vertical = VerticalSearchEngine(web, ingestor=search_engine.ingestor)
        assert vertical.register_site(site) is not None
        docs = search_engine.documents(source=SOURCE_VERTICAL)
        assert len(docs) == 1  # distinct record URL: registration still lands
        # Re-registration dedups to the same record.
        vertical2 = VerticalSearchEngine(web, ingestor=search_engine.ingestor)
        vertical2.register_site(site)
        assert len(search_engine.documents(source=SOURCE_VERTICAL)) == 1
