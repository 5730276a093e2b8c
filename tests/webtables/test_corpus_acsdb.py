"""Tests for the table corpus and the ACSDb statistics."""

from __future__ import annotations

import pytest

from repro.api import DeepWebService, SurfacingConfig, WebConfig
from repro.htmlparse.dom import parse_html
from repro.htmlparse.forms import ParsedForm, ParsedInput
from repro.htmlparse.tables import extract_tables
from repro.webspace.page import WebPage
from repro.webtables.acsdb import AcsDb
from repro.webtables.corpus import TableCorpus, normalize_attribute


HEADER_TABLE_PAGE = WebPage(
    url="http://data.test/t1",
    html=(
        "<html><body><table>"
        "<tr><th>Make</th><th>Model</th><th>Price</th></tr>"
        "<tr><td>Toyota</td><td>Camry</td><td>5000</td></tr>"
        "<tr><td>Honda</td><td>Civic</td><td>6000</td></tr>"
        "</table></body></html>"
    ),
)

DETAIL_PAGE = WebPage(
    url="http://cars.test/item?id=1",
    html=(
        "<html><body><table class='record'>"
        "<tr><th>make</th><td>Ford</td></tr>"
        "<tr><th>model</th><td>Focus</td></tr>"
        "<tr><th>price</th><td>3000</td></tr>"
        "<tr><th>zipcode</th><td>78701</td></tr>"
        "</table></body></html>"
    ),
)

LOW_QUALITY_PAGE = WebPage(
    url="http://junk.test/",
    html="<html><body><table><tr><td>just</td><td>layout</td></tr></table></body></html>",
)


def sample_form() -> ParsedForm:
    return ParsedForm(
        action="/s",
        method="get",
        inputs=(
            ParsedInput(name="make", kind="select", options=("Toyota", "Honda")),
            ParsedInput(name="zip_code", kind="text"),
            ParsedInput(name="maxPrice", kind="select", options=("1000", "2000")),
        ),
    )


class TestNormalizeAttribute:
    @pytest.mark.parametrize(
        "raw,expected",
        [("Make", "make"), ("zip_code", "zip_code"), ("maxPrice", "max_price"), ("Body Style", "body_style")],
    )
    def test_normalization(self, raw, expected):
        assert normalize_attribute(raw) == expected


class TestCorpusIngestion:
    def test_header_table_admitted(self):
        corpus = TableCorpus()
        assert corpus.add_page(HEADER_TABLE_PAGE) == 1
        table = corpus.tables[0]
        assert table.attributes == ("make", "model", "price")
        assert table.row_count == 2
        assert table.column_values("price") == ["5000", "6000"]

    def test_detail_page_becomes_schema_instance(self):
        corpus = TableCorpus()
        assert corpus.add_page(DETAIL_PAGE) == 1
        table = corpus.tables[0]
        assert table.source_kind == "detail_page"
        assert set(table.attributes) == {"make", "model", "price", "zipcode"}
        assert table.row_count == 1

    def test_low_quality_table_rejected(self):
        corpus = TableCorpus()
        assert corpus.add_page(LOW_QUALITY_PAGE) == 0

    def test_error_page_ignored(self):
        corpus = TableCorpus()
        assert corpus.add_page(WebPage(url="u", html="x", status=404)) == 0

    def test_form_ingestion(self):
        corpus = TableCorpus()
        corpus.add_form(sample_form())
        assert corpus.form_schemas == [("make", "max_price", "zip_code")]
        assert corpus.form_values["make"] == ["Toyota", "Honda"]

    def test_attribute_values_merge_tables_and_forms(self):
        corpus = TableCorpus()
        corpus.add_page(HEADER_TABLE_PAGE)
        corpus.add_form(sample_form())
        values = {value.lower() for value in corpus.attribute_values("make")}
        assert {"toyota", "honda"} <= values

    def test_schemata_and_attributes(self):
        corpus = TableCorpus()
        for page in (HEADER_TABLE_PAGE, DETAIL_PAGE):
            corpus.add_page(page)
        corpus.add_form(sample_form())
        assert len(corpus.schemata()) == 3
        assert "zipcode" in corpus.attributes()
        assert corpus.stats.tables_admitted == 2
        assert corpus.stats.forms_seen == 1


class TestAcsDb:
    def _acsdb(self) -> AcsDb:
        schemata = [
            ("make", "model", "price", "zipcode"),
            ("make", "model", "price", "color"),
            ("make", "model", "mileage"),
            ("zip", "price", "bedrooms"),
            ("zip", "bedrooms", "sqft"),
        ]
        return AcsDb(schemata)

    def test_frequencies(self):
        acsdb = self._acsdb()
        assert acsdb.schema_count == 5
        assert acsdb.frequency("make") == 3
        assert acsdb.probability("make") == pytest.approx(0.6)
        assert acsdb.frequency("unknown") == 0

    def test_cooccurrence_and_conditional(self):
        acsdb = self._acsdb()
        assert acsdb.cooccurrence("make", "model") == 3
        assert acsdb.conditional_probability("model", given="make") == pytest.approx(1.0)
        assert acsdb.conditional_probability("color", given="make") == pytest.approx(1 / 3)
        assert acsdb.conditional_probability("anything", given="unknown") == 0.0

    def test_context_similarity_finds_synonym_shape(self):
        acsdb = self._acsdb()
        # "zip" and "zipcode" never co-occur but share neighbours (price).
        assert acsdb.cooccurrence("zip", "zipcode") == 0
        assert acsdb.context_similarity("zip", "zipcode") > 0.0
        assert acsdb.context_similarity("make", "make") >= 0.0

    def test_from_corpus(self):
        corpus = TableCorpus()
        for page in (HEADER_TABLE_PAGE, DETAIL_PAGE):
            corpus.add_page(page)
        acsdb = AcsDb.from_corpus(corpus)
        assert acsdb.schema_count == 2
        assert acsdb.frequency("make") == 2

    def test_empty_and_degenerate_schemata(self):
        acsdb = AcsDb([(), ("only",)])
        assert acsdb.schema_count == 1
        assert acsdb.frequency("only") == 1
        assert acsdb.context_vector("only") == {}


class TestBatchHardening:
    """One malformed table must not abort the rest of its page."""

    def test_add_page_returns_its_admit_count(self):
        corpus = TableCorpus()
        pages = (HEADER_TABLE_PAGE, LOW_QUALITY_PAGE, DETAIL_PAGE)
        counts = [corpus.add_page(page) for page in pages]
        assert counts == [1, 0, 1]
        assert len(corpus) == 2

    def test_add_page_survives_a_table_that_raises(self, monkeypatch):
        import repro.webtables.corpus as corpus_module

        corpus = TableCorpus()
        original_admit = TableCorpus._admit
        calls = {"n": 0}

        def exploding_admit(self, table, source_url):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("unadmittable table")
            return original_admit(self, table, source_url)

        monkeypatch.setattr(corpus_module.TableCorpus, "_admit", exploding_admit)
        counts = [corpus.add_page(page) for page in (HEADER_TABLE_PAGE, DETAIL_PAGE)]
        # First table blew up but the batch kept going.
        assert counts == [0, 1]
        assert corpus.stats.table_errors == 1
        assert len(corpus) == 1

    def test_error_page_counts_as_zero(self):
        corpus = TableCorpus()
        error_page = WebPage(url="u", html="x", status=500)
        counts = [corpus.add_page(page) for page in (error_page, DETAIL_PAGE)]
        assert counts == [0, 1]


class TestCorpusStoreEmission:
    """Admitted tables and form schemata land in the shared content store."""

    def _store(self):
        from repro.store import InMemoryBackend, Ingestor

        backend = InMemoryBackend()
        return backend, Ingestor(backend)

    def test_admitted_tables_become_webtable_documents(self):
        from repro.store.records import SOURCE_WEBTABLE

        backend, ingestor = self._store()
        corpus = TableCorpus(ingestor=ingestor)
        for page in (HEADER_TABLE_PAGE, LOW_QUALITY_PAGE, DETAIL_PAGE):
            corpus.add_page(page)
        docs = backend.documents(source=SOURCE_WEBTABLE)
        assert len(docs) == 2  # the low-quality table is not admitted
        assert docs[0].url == "http://data.test/t1#table-1"
        assert docs[0].host == "data.test"
        assert docs[0].annotations["kind"] == "html_table"
        assert "toyota" in docs[0].text.lower()

    def test_form_schema_becomes_webtable_document(self):
        from repro.store.records import SOURCE_WEBTABLE

        backend, ingestor = self._store()
        corpus = TableCorpus(ingestor=ingestor)
        corpus.add_form(sample_form())
        docs = backend.documents(source=SOURCE_WEBTABLE)
        assert len(docs) == 1
        assert docs[0].annotations["kind"] == "form"
        assert "make" in docs[0].text

    def test_webtable_documents_are_searchable(self):
        from repro.search.engine import SearchEngine
        from repro.store.records import SOURCE_WEBTABLE

        engine = SearchEngine()
        corpus = TableCorpus(ingestor=engine.ingestor)
        corpus.add_page(HEADER_TABLE_PAGE)
        results = engine.search("toyota camry")
        assert results and results[0].source == SOURCE_WEBTABLE

    def test_reingesting_a_page_does_not_duplicate_store_documents(self):
        from repro.store.records import SOURCE_WEBTABLE

        backend, ingestor = self._store()
        corpus = TableCorpus(ingestor=ingestor)
        corpus.add_page(HEADER_TABLE_PAGE)
        corpus.add_page(HEADER_TABLE_PAGE)  # same page again
        corpus.add_form(sample_form())
        corpus.add_form(sample_form())  # same form again
        docs = backend.documents(source=SOURCE_WEBTABLE)
        # Stable record URLs dedup in the store (1 table + 1 form schema).
        assert len(docs) == 2


class TestTableTagShortcut:
    """``extract_tables`` skips the DOM for pages without a ``<table``;
    a harvest must admit exactly what it admitted when every page was parsed."""

    @staticmethod
    def harvested_corpus() -> TableCorpus:
        service = (
            DeepWebService.build()
            .web(WebConfig(total_deep_sites=3, surface_site_count=1, max_records=40, seed=11))
            .surfacing(SurfacingConfig(max_urls_per_form=40))
            .create()
        )
        service.crawl(max_pages=80)
        service.surface()
        service.harvest_tables()
        return service.corpus

    def test_harvest_is_identical_with_and_without_the_shortcut(self, monkeypatch):
        import repro.webtables.corpus as corpus_module

        with_shortcut = self.harvested_corpus()
        parsed_pages = []

        def always_parse(html, page_url=""):
            parsed_pages.append(page_url)
            return extract_tables(parse_html(html), page_url=page_url)

        monkeypatch.setattr(corpus_module, "extract_tables", always_parse)
        without = self.harvested_corpus()
        assert parsed_pages and without.tables
        assert with_shortcut.tables == without.tables
        assert with_shortcut.form_schemas == without.form_schemas
        assert with_shortcut.form_values == without.form_values
        assert with_shortcut.stats == without.stats
