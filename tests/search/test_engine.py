"""Tests for the search engine (document store + ranking + annotations)."""

from __future__ import annotations

from repro.search.engine import SOURCE_SURFACE, SOURCE_SURFACED, SearchEngine
from repro.webspace.page import WebPage


def page(url: str, title: str, body: str) -> WebPage:
    html = f"<html><head><title>{title}</title></head><body><p>{body}</p></body></html>"
    return WebPage(url=url, html=html)


def build_engine() -> SearchEngine:
    engine = SearchEngine()
    engine.add_page(page("http://cars.com/1", "Used Toyota Camry", "2003 toyota camry austin texas"))
    engine.add_page(page("http://cars.com/2", "Used Honda Civic", "honda civic dallas"))
    engine.add_page(
        page("http://gov.com/doc", "Water quality report", "regulation water quality texas"),
        source=SOURCE_SURFACED,
        annotations={"domain": "government", "topic": "water quality"},
    )
    return engine


class TestIngestion:
    def test_add_and_count(self):
        engine = build_engine()
        assert len(engine) == 3
        assert "http://cars.com/1" in [doc.url for doc in engine.documents()]

    def test_error_pages_not_indexed(self, empty_engine):
        assert empty_engine.add_page(WebPage(url="u", html="x", status=404)) is None
        assert len(empty_engine) == 0

    def test_duplicate_url_returns_same_doc_id(self, empty_engine):
        first = empty_engine.add_page(page("http://a.com/", "T", "body"))
        second = empty_engine.add_page(page("http://a.com/", "T", "body"))
        assert first == second
        assert len(empty_engine) == 1

    def test_document_metadata(self):
        engine = build_engine()
        (doc,) = engine.backend.documents_for_host("gov.com")
        assert doc.host == "gov.com"
        assert doc.source == SOURCE_SURFACED
        assert doc.annotations["domain"] == "government"

    def test_count_by_source(self):
        counts = build_engine().store_stats().by_source
        assert counts == {SOURCE_SURFACE: 2, SOURCE_SURFACED: 1}

    def test_count_by_source_ordering_is_sorted_regardless_of_ingestion(self):
        # Ingest in reverse-alphabetical source order; the rendering order
        # must still be sorted by source tag (backed by store stats), so
        # reports are deterministic across ingestion interleavings.
        engine = SearchEngine()
        engine.add_page(page("http://s.com/1", "S", "body"), source="zeta")
        engine.add_page(page("http://s.com/2", "S", "body"), source="alpha")
        engine.add_page(page("http://s.com/3", "S", "body"), source="mid")
        assert list(engine.store_stats().by_source) == ["alpha", "mid", "zeta"]

    def test_documents_filter_by_source_and_host(self):
        engine = build_engine()
        assert len(engine.documents(source=SOURCE_SURFACED)) == 1
        assert len(engine.backend.documents_for_host("cars.com")) == 2


class TestSearch:
    def test_relevant_result_first(self):
        engine = build_engine()
        results = engine.search("toyota camry austin")
        assert results[0].url == "http://cars.com/1"

    def test_k_limits_results(self):
        assert len(build_engine().search("used", k=1)) == 1

    def test_no_results(self):
        assert build_engine().search("zzqx") == []

    def test_results_carry_their_hosts(self):
        hosts = [result.host for result in build_engine().search("texas")]
        assert "cars.com" in hosts or "gov.com" in hosts

    def test_annotations_are_searchable(self):
        engine = build_engine()
        results = engine.search("government water")
        assert results and results[0].host == "gov.com"

    def test_site_term_frequencies(self):
        frequencies = build_engine().site_term_frequencies("cars.com")
        assert frequencies["toyota"] == 2  # title + body of the Camry page
        assert frequencies["civic"] == 2
        # Stopwords (including domain-generic words like "used") are dropped.
        assert "used" not in frequencies
        assert "the" not in frequencies
