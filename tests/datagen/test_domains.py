"""Tests for domain specifications."""

from __future__ import annotations

import pytest

from repro.datagen.domains import domain, domain_names, iter_domains
from repro.relational import DataType


class TestRegistry:
    def test_all_expected_domains_registered(self):
        names = domain_names()
        expected = {
            "used_cars", "real_estate", "apartments", "jobs", "recipes",
            "books", "events", "government", "store_locator", "media_catalog",
        }
        assert expected <= set(names)

    def test_unknown_domain(self):
        with pytest.raises(KeyError):
            domain("underwater_basket_weaving")

    def test_iter_domains_sorted(self):
        names = [spec.name for spec in iter_domains()]
        assert names == sorted(names)


class TestSpecConsistency:
    @pytest.mark.parametrize("name", domain_names())
    def test_schema_builds(self, name):
        schema = domain(name).schema()
        assert schema.primary_key == "id"
        assert "id" in schema.column_names

    @pytest.mark.parametrize("name", domain_names())
    def test_form_columns_exist_in_schema(self, name):
        spec = domain(name)
        schema = spec.schema()
        for column in spec.form_columns:
            assert column in schema.column_names, f"{name}: {column} not in schema"

    @pytest.mark.parametrize("name", domain_names())
    def test_search_columns_are_searchable_text(self, name):
        spec = domain(name)
        schema = spec.schema()
        for column in spec.search_columns:
            assert schema.column(column).dtype is DataType.TEXT

    @pytest.mark.parametrize("name", domain_names())
    def test_range_inputs_are_numeric(self, name):
        spec = domain(name)
        schema = spec.schema()
        for column in spec.range_inputs:
            assert schema.column(column).dtype.is_numeric

    @pytest.mark.parametrize("name", domain_names())
    def test_title_column_exists(self, name):
        spec = domain(name)
        assert spec.title_column in spec.schema().column_names

    def test_used_cars_has_expected_shape(self):
        spec = domain("used_cars")
        assert "make" in spec.select_inputs
        assert spec.typed_text_inputs.get("zipcode") == "zipcode"
        assert "price" in spec.range_inputs
        assert spec.has_search_box

    def test_store_locator_is_typed_only(self):
        spec = domain("store_locator")
        assert not spec.has_search_box
        assert "zipcode" in spec.typed_text_inputs

    def test_media_catalog_is_database_selection_domain(self):
        spec = domain("media_catalog")
        assert spec.category_column == "category"
        assert spec.has_search_box

    def test_government_has_low_commercial_value(self):
        assert domain("government").commercial_value < domain("used_cars").commercial_value

    def test_zipcode_columns_use_zipcode_type(self):
        for spec in iter_domains():
            for column, semantic in spec.typed_text_inputs.items():
                if semantic == "zipcode":
                    assert spec.schema().column(column).dtype is DataType.ZIPCODE
