"""Tests for the vertical search engine (virtual integration end-to-end)."""

from __future__ import annotations

import pytest

from repro.core.extraction import extract_result_records
from repro.datagen.domains import domain
from repro.htmlparse.dom import parse_html
from repro.search.engine import SearchEngine
from repro.util.rng import SeededRng
from repro.virtual.matching import SchemaMatcher
from repro.virtual.vertical import VerticalSearchEngine
from repro.virtual.wrappers import ResultWrapper, matches_filters
from repro.webspace.loadmeter import AGENT_VIRTUAL
from repro.webspace.sitegen import build_deep_site
from repro.webspace.web import Web


@pytest.fixture
def car_vertical():
    """A two-source used-car vertical."""
    web = Web()
    sites = [
        build_deep_site(domain("used_cars"), f"cars{i}.vertical.test", 50, SeededRng(f"v{i}"))
        for i in range(2)
    ]
    web.register_all(sites)
    # A books site that must be rejected by the domain-restricted vertical.
    books = build_deep_site(domain("books"), "books.vertical.test", 30, SeededRng("vb"))
    web.register(books)
    engine = VerticalSearchEngine(web, domain="used_cars")
    accepted = engine.register_sites(web.deep_sites())
    return web, engine, sites, accepted


class TestRegistration:
    def test_only_domain_sites_accepted(self, car_vertical):
        _web, engine, sites, accepted = car_vertical
        assert accepted == len(sites)
        assert engine.source_count == len(sites)

    def test_post_only_site_rejected(self):
        web = Web()
        site = build_deep_site(domain("used_cars"), "post.vertical.test", 20, SeededRng(1), method="post")
        web.register(site)
        engine = VerticalSearchEngine(web, domain="used_cars")
        assert engine.register_site(site) is None

    def test_unrestricted_engine_accepts_all_domains(self):
        web = Web()
        cars = build_deep_site(domain("used_cars"), "c.any.test", 20, SeededRng(2))
        books = build_deep_site(domain("books"), "b.any.test", 20, SeededRng(3))
        web.register_all([cars, books])
        engine = VerticalSearchEngine(web)
        assert engine.register_sites([cars, books]) == 2


class TestWrappers:
    def test_wrapper_normalizes_fields(self, car_vertical):
        web, engine, sites, _accepted = car_vertical
        source = engine.sources()[0]
        template = sites[0].forms[0]
        make_input = next(spec for spec in template.inputs if spec.column == "make")
        url = source.form.submission_url({make_input.name: make_input.options[0]})
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
        answer = engine.structured_query({"color": "red"})
        fetched = web.load_meter.total(agent=AGENT_VIRTUAL) - before
        assert answer.records and answer.fetches_issued == fetched
        assert fetched > len(answer.sources_contacted)  # pagination happened
        assert len(parses) == fetched

    def test_extraction_accepts_a_parsed_page(self, car_vertical):
        web, engine, sites, _accepted = car_vertical
        source = engine.sources()[0]
        template = sites[0].forms[0]
        make_input = next(spec for spec in template.inputs if spec.column == "make")
        url = source.form.submission_url({make_input.name: make_input.options[0]})
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
    def test_structured_query_returns_matching_records(self, car_vertical):
        _web, engine, sites, _accepted = car_vertical
        make = sites[0].database.table("listings").get(1)["make"]
        answer = engine.structured_query({"make": make})
        assert answer.answered
        assert all(record.get("make").lower() == make.lower() for record in answer.records)
        assert len(answer.sources_contacted) == engine.source_count

    def test_structured_query_slices_by_color(self, car_vertical):
        _web, engine, sites, _accepted = car_vertical
        answer = engine.structured_query({"color": "red"})
        assert all(record.get("color") == "red" for record in answer.records)


class TestKeywordQueries:
    def test_keyword_query_answers_domain_query(self, car_vertical):
        _web, engine, sites, _accepted = car_vertical
        record = sites[0].database.table("listings").get(1)
        answer = engine.keyword_query(f"used {record['make']} {record['model']}")
        assert answer.routing is not None
        assert answer.sources_contacted
        assert answer.answered
        titles = " ".join(record_.title.lower() for record_ in answer.records)
        assert record["make"].lower() in titles

    def test_query_time_load_is_metered(self, car_vertical):
        web, engine, sites, _accepted = car_vertical
        before = web.load_meter.total(agent=AGENT_VIRTUAL)
        engine.keyword_query("used toyota")
        after = web.load_meter.total(agent=AGENT_VIRTUAL)
        assert after > before, "virtual integration fetches sites at query time"

    def test_off_domain_query_is_not_answered(self, car_vertical):
        _web, engine, _sites, _accepted = car_vertical
        answer = engine.keyword_query("moroccan chickpea stew recipe")
        assert not answer.answered
        assert answer.fetches_issued == 0


class TestStoreEmission:
    """Registered sources land in the shared content store."""

    def test_register_site_emits_vertical_source_record(self):
        from repro.store.records import SOURCE_VERTICAL

        web = Web()
        site = build_deep_site(domain("used_cars"), "cars.store.test", 40, SeededRng("vs"))
        web.register(site)
        search_engine = SearchEngine()
        vertical = VerticalSearchEngine(
            web, domain="used_cars", ingestor=search_engine.ingestor
        )
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
        books = build_deep_site(domain("books"), "books.store.test", 20, SeededRng("vb2"))
        web.register(books)
        search_engine = SearchEngine()
        vertical = VerticalSearchEngine(
            web, domain="used_cars", ingestor=search_engine.ingestor
        )
        assert vertical.register_site(books) is None
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
        vertical = VerticalSearchEngine(
            web, domain="used_cars", ingestor=search_engine.ingestor
        )
        assert vertical.register_site(site) is not None
        docs = search_engine.documents(source=SOURCE_VERTICAL)
        assert len(docs) == 1  # distinct record URL: registration still lands
        # Re-registration dedups to the same record.
        vertical2 = VerticalSearchEngine(
            web, domain="used_cars", ingestor=search_engine.ingestor
        )
        vertical2.register_site(site)
        assert len(search_engine.documents(source=SOURCE_VERTICAL)) == 1
