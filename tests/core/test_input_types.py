"""Tests for typed-input recognition (paper Section 4.1, experiment E2)."""

from __future__ import annotations

import re

import pytest

from repro.core.input_types import (
    COMMON_TYPES,
    InputTypeClassifier,
    TYPE_CITY,
    TYPE_DATE,
    TYPE_PRICE,
    TYPE_SEARCH,
    TYPE_STATE,
    TYPE_ZIPCODE,
    TypePrediction,
    TypedValueLibrary,
)
from repro.datagen import vocab
from repro.htmlparse.forms import ParsedInput


def text_input(name: str, label: str = "") -> ParsedInput:
    return ParsedInput(name=name, kind="text", label=label)


class TestTypedValueLibrary:
    def test_values_exist_for_all_common_types(self):
        library = TypedValueLibrary()
        for type_name in COMMON_TYPES:
            values = library.values_for(type_name)
            assert values, type_name

    @pytest.mark.parametrize(
        "type_name, well_formed",
        [
            (TYPE_ZIPCODE, lambda value: re.fullmatch(r"\d{5}", value)),
            (TYPE_DATE, lambda value: re.fullmatch(r"\d{4}(-\d{2}){0,2}", value)),
            (TYPE_PRICE, lambda value: re.fullmatch(r"\d{1,7}", value)),
            (TYPE_CITY, lambda value: value in vocab.CITY_NAMES),
            (TYPE_STATE, lambda value: value in vocab.STATE_NAMES),
        ],
    )
    def test_every_value_is_well_formed_for_its_type(self, type_name, well_formed):
        values = TypedValueLibrary().values_for(type_name)
        assert values
        assert all(well_formed(value) for value in values), type_name

    def test_sampling_is_deterministic(self):
        assert TypedValueLibrary().values_for(TYPE_ZIPCODE, 5) == TypedValueLibrary().values_for(TYPE_ZIPCODE, 5)

    def test_nonsense_values(self):
        assert len(TypedValueLibrary().nonsense_values(3)) == 3

    def test_extend_adds_new_values(self):
        library = TypedValueLibrary()
        library.extend(TYPE_CITY, ["Springfield", "Boston"])
        values = library.values_for(TYPE_CITY)
        assert "Springfield" in values
        assert values.count("Boston") == 1

    def test_unknown_type_returns_empty(self):
        assert TypedValueLibrary().values_for("unknown_type") == []


class TestNameClassification:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("zip", TYPE_ZIPCODE),
            ("zip_code", TYPE_ZIPCODE),
            ("postal_code", TYPE_ZIPCODE),
            ("city", TYPE_CITY),
            ("location", TYPE_CITY),
            ("start_date", TYPE_DATE),
            ("max_price", TYPE_PRICE),
            ("salary", TYPE_PRICE),
            ("state", TYPE_STATE),
        ],
    )
    def test_typed_names(self, name, expected):
        prediction = InputTypeClassifier().classify_by_name(text_input(name))
        assert prediction is not None
        assert prediction.predicted_type == expected

    @pytest.mark.parametrize("name", ["q", "query", "keywords", "search"])
    def test_search_box_names(self, name):
        prediction = InputTypeClassifier().classify_by_name(text_input(name))
        assert prediction.predicted_type == TYPE_SEARCH

    def test_unknown_name_returns_none(self):
        assert InputTypeClassifier().classify_by_name(text_input("frobnicator")) is None

    def test_label_used_when_name_is_opaque(self):
        prediction = InputTypeClassifier().classify_by_name(text_input("field_7", label="Zip code"))
        assert prediction.predicted_type == TYPE_ZIPCODE


class TestProbeConfirmation:
    def test_zipcode_input_confirmed_on_car_site(self, car_form, car_prober):
        classifier = InputTypeClassifier()
        zipcode_input = next(
            spec
            for spec in car_form.text_inputs
            if classifier.classify_by_name(spec) is not None
            and classifier.classify_by_name(spec).predicted_type == TYPE_ZIPCODE
        )
        prediction = classifier.confirm_with_probes(car_form, zipcode_input, TYPE_ZIPCODE, car_prober)
        assert prediction.probe_confirmed
        assert prediction.predicted_type == TYPE_ZIPCODE
        assert prediction.confidence > 0.9

    def test_whole_form_classification(self, car_form, car_prober):
        classifier = InputTypeClassifier()
        predictions = classifier.classify_form(car_form, car_prober)
        assert set(predictions.keys()) == {spec.name for spec in car_form.text_inputs}
        typed = classifier.typed_inputs(predictions)
        assert any(type_name == TYPE_ZIPCODE for type_name in typed.values())
        assert any(
            prediction.predicted_type == TYPE_SEARCH for prediction in predictions.values()
        ), "the generic search box should remain a search box"

    def test_classification_without_prober_uses_names_only(self, car_form):
        predictions = InputTypeClassifier().classify_form(car_form, prober=None)
        assert all(isinstance(prediction, TypePrediction) for prediction in predictions.values())
        assert not any(prediction.probe_confirmed for prediction in predictions.values())

    def test_store_locator_zip_and_city_recognized(self, store_site):
        from repro.core.form_model import discover_forms
        from repro.core.probe import FormProber
        from repro.webspace.web import Web

        web = Web()
        web.register(store_site)
        page = web.fetch(store_site.homepage_url())
        form = discover_forms(page)[0]
        classifier = InputTypeClassifier()
        predictions = classifier.classify_form(form, FormProber(web))
        typed = set(classifier.typed_inputs(predictions).values())
        assert TYPE_ZIPCODE in typed
        assert TYPE_CITY in typed
