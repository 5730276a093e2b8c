"""Tests for the semantic services and the semantic server facade."""

from __future__ import annotations

import pytest

from repro.webtables.acsdb import AcsDb
from repro.webtables.corpus import CorpusTable, TableCorpus
from repro.webtables.semantic_server import SemanticServer
from repro.webtables.services import (
    AutocompleteService,
    PropertyService,
    SynonymService,
    ValuesService,
    precision_at_k,
)


def build_corpus() -> TableCorpus:
    """A hand-built corpus with a known synonym structure.

    ``zip`` and ``zipcode`` are used by different designers for the same
    concept: they never co-occur but share neighbours.
    """
    corpus = TableCorpus()
    schemas = [
        # Real-estate-style designers who spell the attribute "zipcode" ...
        ("price", "bedrooms", "city", "zipcode"),
        ("bedrooms", "sqft", "city", "zipcode"),
        ("price", "sqft", "zipcode"),
        # ... and others who spell it "zip", with the same neighbours.
        ("price", "bedrooms", "city", "zip"),
        ("bedrooms", "sqft", "zip", "city"),
        ("price", "sqft", "zip", "garage"),
        # Car schemas give "make"/"model" their own distinct context.
        ("make", "model", "price", "color"),
        ("make", "model", "mileage", "year"),
        ("make", "model", "price", "year"),
        # Book schemas: unrelated context.
        ("title", "author", "genre", "price"),
        ("title", "author", "year"),
    ]
    for index, attributes in enumerate(schemas):
        corpus.tables.append(
            CorpusTable(attributes=attributes, values=(tuple("x" for _ in attributes),), source_url=f"s{index}")
        )
    # Values for the property/values services.
    corpus.tables.append(
        CorpusTable(
            attributes=("make", "model", "price"),
            values=(("Toyota", "Camry", "5000"), ("Honda", "Civic", "6000")),
            source_url="values",
        )
    )
    return corpus


@pytest.fixture
def corpus() -> TableCorpus:
    return build_corpus()


@pytest.fixture
def acsdb(corpus) -> AcsDb:
    return AcsDb.from_corpus(corpus)


class TestSynonymService:
    def test_zip_and_zipcode_are_mutual_synonyms(self, acsdb):
        service = SynonymService(acsdb)
        zip_synonyms = [scored.name for scored in service.synonyms("zip", limit=3)]
        zipcode_synonyms = [scored.name for scored in service.synonyms("zipcode", limit=3)]
        assert "zipcode" in zip_synonyms
        assert "zip" in zipcode_synonyms

    def test_frequent_coattributes_are_not_synonyms(self, acsdb):
        service = SynonymService(acsdb)
        make_synonyms = [scored.name for scored in service.synonyms("make", limit=3)]
        assert "model" not in make_synonyms, "make and model co-occur constantly"

    def test_unknown_attribute(self, acsdb):
        assert SynonymService(acsdb).synonyms("nonexistent") == []

    def test_scores_sorted_descending(self, acsdb):
        suggestions = SynonymService(acsdb).synonyms("zip", limit=10)
        scores = [scored.score for scored in suggestions]
        assert scores == sorted(scores, reverse=True)


class TestValuesService:
    def test_values_from_table_columns(self, corpus):
        service = ValuesService(corpus)
        assert {"Toyota", "Honda"} <= set(service.values("make"))

    def test_limit(self, corpus):
        assert len(ValuesService(corpus).values("make", limit=1)) == 1


class TestPropertyService:
    def test_entity_resolves_to_properties(self, corpus, acsdb):
        service = PropertyService(corpus, acsdb)
        anchors = service.attributes_containing("Toyota")
        assert anchors == ["make"]
        properties = [scored.name for scored in service.properties("Toyota", limit=5)]
        assert "model" in properties
        assert "price" in properties

    def test_unknown_entity(self, corpus, acsdb):
        assert PropertyService(corpus, acsdb).properties("Atlantis") == []


class TestAutocompleteService:
    def test_suggests_common_coattributes(self, acsdb):
        service = AutocompleteService(acsdb)
        suggestions = [scored.name for scored in service.suggest(["make", "model"], limit=5)]
        assert "price" in suggestions
        assert "zipcode" in suggestions or "mileage" in suggestions

    def test_given_attributes_never_suggested(self, acsdb):
        suggestions = [scored.name for scored in AutocompleteService(acsdb).suggest(["make"])]
        assert "make" not in suggestions

    def test_real_estate_partial_schema(self, acsdb):
        suggestions = [scored.name for scored in AutocompleteService(acsdb).suggest(["bedrooms"])]
        assert "sqft" in suggestions or "city" in suggestions

    def test_empty_input(self, acsdb):
        assert AutocompleteService(acsdb).suggest([]) == []


class TestPrecisionAtK:
    def test_precision(self, acsdb):
        suggestions = AutocompleteService(acsdb).suggest(["make", "model"], limit=5)
        assert 0.0 <= precision_at_k(suggestions, ["price", "mileage", "color", "zipcode", "city"], 3) <= 1.0
        assert precision_at_k([], ["price"], 3) == 0.0
        assert precision_at_k(suggestions, [], 0) == 0.0


class TestSemanticServer:
    def test_facade_wires_all_services(self, corpus):
        server = SemanticServer(corpus)
        assert server.values("make")
        assert server.autocomplete(["make", "model"])
        assert server.properties("Toyota")
        assert isinstance(server.synonyms("zip"), list)

    def test_from_web_and_the_facade_harvest_are_one_walk(self):
        """``from_web(web, n)`` and a fresh service's ``harvest_tables(n)``
        admit the same tables and schemata for the same fetches: there is
        one harvest (``harvest_web``), the service only adds its store."""
        from repro.api import DeepWebService
        from repro.webspace.loadmeter import AGENT_WEBTABLES
        from repro.webspace.sitegen import WebConfig, generate_web

        config = WebConfig(total_deep_sites=5, surface_site_count=1, max_records=60, seed=9)
        sampled = generate_web(config)
        server = SemanticServer.from_web(sampled, detail_pages_per_site=7)
        service = DeepWebService.build().web(config).create()
        admitted = service.harvest_tables(detail_pages_per_site=7)

        assert admitted == len(server.corpus) > 0
        assert service.corpus.tables == server.corpus.tables
        assert service.corpus.schemata() == server.corpus.schemata()
        assert service.corpus.form_values == server.corpus.form_values
        assert service.corpus.stats == server.corpus.stats
        assert service.web.load_meter.total(agent=AGENT_WEBTABLES) == (
            sampled.load_meter.total(agent=AGENT_WEBTABLES)
        ) == sampled.load_meter.total()

    def test_from_web_builds_corpus(self, small_web):
        server = SemanticServer.from_web(small_web, detail_pages_per_site=5)
        assert len(server.corpus) > 0
        assert server.acsdb.schema_count > 0
        # Attributes from the generated domains must be present.
        assert "price" in server.acsdb.attributes() or "year" in server.acsdb.attributes()
