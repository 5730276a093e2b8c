"""Tests for text utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.util.text import (
    edit_distance,
    jaccard,
    name_tokens,
    normalize,
    string_similarity,
    tokenize,
)


class TestTokenize:
    def test_basic_tokenization(self):
        assert tokenize("Used Ford Focus 1993!") == ["used", "ford", "focus", "1993"]

    def test_stopword_removal(self):
        assert tokenize("the price of the car", drop_stopwords=True) == ["price", "car"]

    def test_stopwords_kept_by_default(self):
        assert "the" in tokenize("the price")

    def test_empty_string(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("!!! --- ???") == []


class TestNormalize:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize("  Hello   WORLD \n") == "hello world"

    def test_empty(self):
        assert normalize("   ") == ""


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard(["a", "b"], ["b", "a"]) == 1.0

    def test_disjoint_sets(self):
        assert jaccard(["a"], ["b"]) == 0.0

    def test_partial_overlap(self):
        assert jaccard(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard([], []) == 0.0


class TestNameTokens:
    def test_underscore_names(self):
        assert name_tokens("min_price") == ["min", "price"]

    def test_camel_case(self):
        assert name_tokens("minPrice") == ["min", "price"]

    def test_dashes_and_dots(self):
        assert name_tokens("zip-code.value") == ["zip", "code", "value"]

    def test_plain_name(self):
        assert name_tokens("make") == ["make"]

    @pytest.mark.parametrize(
        "identifier",
        ["minPrice", "min_price", "min-price", "min.price", "MIN_PRICE", "min__price"],
    )
    def test_spellings_of_one_name_agree(self, identifier):
        assert name_tokens(identifier) == ["min", "price"]


class TestEditDistance:
    def test_identical(self):
        assert edit_distance("price", "price") == 0

    def test_single_substitution(self):
        assert edit_distance("cat", "car") == 1

    def test_empty_strings(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    @pytest.mark.parametrize(
        "left, right, distance",
        [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("zip", "zipcode", 4),
            ("price", "prices", 1),
            ("abc", "cab", 2),
        ],
    )
    def test_known_distances(self, left, right, distance):
        assert edit_distance(left, right) == distance

    def test_symmetry(self):
        assert edit_distance("zipcode", "zip") == edit_distance("zip", "zipcode")


class TestStringSimilarity:
    def test_identical_after_normalization(self):
        assert string_similarity("Price", "price ") == 1.0

    def test_unrelated_strings_low(self):
        assert string_similarity("make", "bedrooms") < 0.5

    def test_similar_strings_high(self):
        assert string_similarity("zipcode", "zip_code") > 0.7


class TestProperties:
    @given(st.text(max_size=200))
    def test_tokenize_always_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=10),
           st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=10))
    def test_jaccard_bounded_and_symmetric(self, left, right):
        value = jaccard(left, right)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(jaccard(right, left))

    @given(st.text(alphabet="abcde", max_size=12), st.text(alphabet="abcde", max_size=12))
    def test_edit_distance_triangle_inequality_with_empty(self, left, right):
        # d(l, r) <= len(l) + len(r)  (going through the empty string)
        assert edit_distance(left, right) <= len(left) + len(right)

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_string_similarity_bounded(self, left, right):
        assert 0.0 <= string_similarity(left, right) <= 1.0
