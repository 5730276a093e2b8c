"""Tests for the BM25 inverted index."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.search.inverted_index import InvertedIndex, rank_accumulator
from repro.util.text import tokenize


def build_index() -> InvertedIndex:
    index = InvertedIndex()
    documents = {
        1: "used toyota camry for sale in austin texas",
        2: "used honda civic excellent condition",
        3: "toyota prius hybrid low mileage",
        4: "apartment for rent in austin downtown",
        5: "government regulation on water quality in texas",
    }
    for doc_id, text in documents.items():
        index.add_document(doc_id, tokenize(text))
    return index


class TestConstruction:
    def test_document_count(self):
        assert len(build_index()) == 5

    def test_duplicate_document_rejected(self):
        index = build_index()
        with pytest.raises(ValueError):
            index.add_document(1, ["again"])

    def test_average_length(self):
        index = build_index()
        assert index.average_length() > 0

    def test_empty_index(self):
        index = InvertedIndex()
        assert index.average_length() == 0.0
        assert index.score(["anything"]) == []


class TestStatistics:
    def test_document_frequency(self):
        index = build_index()
        assert index.document_frequency("toyota") == 2
        assert index.document_frequency("missing") == 0

    def test_idf_rarer_terms_score_higher(self):
        index = build_index()
        assert index.idf("camry") > index.idf("in")

    def test_idf_never_negative(self):
        index = build_index()
        for term in ("in", "used", "toyota", "for"):
            assert index.idf(term) >= 0.0


class TestScoring:
    def test_relevant_document_ranks_first(self):
        index = build_index()
        ranked = index.score(tokenize("toyota camry austin"))
        assert ranked[0][0] == 1

    def test_limit(self):
        index = build_index()
        assert len(index.score(tokenize("used toyota"), limit=1)) == 1

    def test_scores_descending(self):
        index = build_index()
        scores = [score for _, score in index.score(tokenize("used toyota austin"))]
        assert scores == sorted(scores, reverse=True)

    def test_no_match(self):
        assert build_index().score(tokenize("zzqx")) == []

    def test_deterministic_tie_break(self):
        index = InvertedIndex()
        index.add_document(2, ["apple"])
        index.add_document(1, ["apple"])
        ranked = index.score(["apple"])
        assert [doc_id for doc_id, _ in ranked] == [1, 2]


class TestProperties:
    @given(
        st.lists(
            st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_scores_are_positive_and_cover_matching_docs(self, documents):
        index = InvertedIndex()
        for doc_id, tokens in enumerate(documents):
            index.add_document(doc_id, tokens)
        ranked = index.score(["alpha"])
        expected = {doc_id for doc_id, tokens in enumerate(documents) if "alpha" in tokens}
        assert {doc_id for doc_id, _ in ranked} == expected
        assert all(score > 0 for _, score in ranked)


def brute_force_grouped(accumulator, limit, group_of):
    """Full ``(-score, doc_id)`` sort; keep an entry iff fewer than
    ``limit`` entries of its own group precede it."""
    kept, seen = [], {}
    for doc_id, score in sorted(accumulator.items(), key=lambda item: (-item[1], item[0])):
        key = group_of[doc_id]
        if limit is None or seen.get(key, 0) < limit:
            kept.append((doc_id, score))
        seen[key] = seen.get(key, 0) + 1
    return kept


class TestGroupedRanking:
    # Scores drawn from four values, so ties straddle every group's cut.
    @given(
        entries=st.dictionaries(
            st.integers(min_value=1, max_value=60),
            st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.sampled_from("abc")),
            max_size=40,
        ),
        limit=st.one_of(st.none(), st.integers(min_value=-2, max_value=45)),
    )
    def test_equals_brute_force(self, entries, limit):
        accumulator = {doc_id: score for doc_id, (score, _group) in entries.items()}
        group_of = {doc_id: group for doc_id, (_score, group) in entries.items()}
        expected = brute_force_grouped(accumulator, limit, group_of)
        assert rank_accumulator(accumulator, limit, group_of.__getitem__) == expected
        if limit is not None and limit > 0:
            # The plain top-k is the grouped result's prefix.
            assert rank_accumulator(accumulator, limit) == expected[:limit]

    def test_tie_straddling_a_group_cut_breaks_by_doc_id(self):
        accumulator = {7: 1.0, 3: 1.0, 5: 1.0, 9: 2.0, 4: 1.0}
        group_of = {7: "a", 3: "a", 5: "a", 9: "b", 4: "b"}
        assert rank_accumulator(accumulator, 2, group_of.__getitem__) == [
            (9, 2.0), (3, 1.0), (4, 1.0), (5, 1.0),
        ]

    def test_index_score_threads_the_group_through(self):
        index = build_index()
        group = {1: "cars", 2: "cars", 3: "cars", 4: "homes", 5: "gov"}.__getitem__
        tokens = tokenize("used toyota austin texas")
        full = index.score(tokens)
        assert len(full) == 5
        grouped = index.score(tokens, limit=1, group=group)
        best_of = {}
        for doc_id, score in full:
            best_of.setdefault(group(doc_id), (doc_id, score))
        assert grouped == [pair for pair in full if pair in best_of.values()]
