"""Tests for mediated schemas and form-to-schema matching."""

from __future__ import annotations

import pytest

from repro.core.form_model import SurfacingForm
from repro.datagen.domains import domain_names
from repro.htmlparse.forms import ParsedForm, ParsedInput
from repro.virtual.matching import classify_domain, map_form, match_input
from repro.virtual.mediated_schema import all_schemas, schema_for_domain


class TestMediatedSchemas:
    def test_schema_exists_for_every_domain(self):
        for name in domain_names():
            schema = schema_for_domain(name)
            assert schema.domain == name
            assert schema.attributes

    def test_unknown_domain(self):
        with pytest.raises(KeyError):
            schema_for_domain("pet_rocks")

    def test_attribute_lookup_includes_synonyms(self):
        schema = schema_for_domain("used_cars")
        assert schema.attribute("make").name == "make"
        assert schema.attribute("brand").name == "make"
        assert schema.attribute("frobnicator") is None

    def test_all_schemas_sorted_and_keyworded(self):
        schemas = all_schemas()
        assert [schema.domain for schema in schemas] == sorted(s.domain for s in schemas)
        assert all(schema.keywords for schema in schemas)


class TestSchemaMatching:
    def test_input_name_similarity(self):
        schema = schema_for_domain("used_cars")
        zip_input = ParsedInput(name="zip_code", kind="text")
        assert match_input(zip_input, schema.attribute("zipcode")) > 0.6
        assert match_input(zip_input, schema.attribute("make")) < 0.3

    def test_value_overlap_matches_opaque_names(self):
        schema = schema_for_domain("used_cars")
        opaque = ParsedInput(
            name="field12", kind="select", options=("Toyota", "Honda", "Ford", "BMW")
        )
        assert match_input(opaque, schema.attribute("make")) > 0.3

    def test_map_form_maps_most_inputs(self, car_form):
        mapping = map_form(car_form, schema_for_domain("used_cars"))
        assert mapping.domain == "used_cars"
        mapped = {match.input_name for match in mapping.matches}
        bindable = {spec.name for spec in car_form.bindable_inputs}
        assert len(mapped & bindable) > 0.5 * len(bindable)
        assert mapping.input_for("make") == "make"

    def test_classify_domain_picks_used_cars_for_car_form(self, car_form):
        mapping = classify_domain(car_form)
        assert mapping.domain == "used_cars"

    def test_classify_domain_picks_government_for_gov_form(self, gov_site):
        from repro.core.form_model import discover_forms
        from repro.webspace.web import Web

        web = Web()
        web.register(gov_site)
        form = discover_forms(web.fetch(gov_site.homepage_url()))[0]
        mapping = classify_domain(form)
        assert mapping.domain == "government"

    def test_mapping_on_empty_form(self):
        parsed = ParsedForm(action="/s", method="get", inputs=())
        form = SurfacingForm(host="x.test", parsed=parsed)
        mapping = map_form(form, schema_for_domain("books"))
        assert mapping.matches == []
