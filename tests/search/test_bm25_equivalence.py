"""The optimized BM25 paths must match a naive reference bit for bit."""

from __future__ import annotations

import math
import random
from collections import defaultdict

import pytest

from repro.search import inverted_index
from repro.search.inverted_index import InvertedIndex


def naive_accumulate(index: InvertedIndex, docs, query, idf_by_term, average_length):
    """The textbook per-posting loop under the given idf / avgdl: no
    cache, everything recomputed per hit."""
    accumulator = defaultdict(float)
    for term in query:
        for doc_id, tokens in docs.items():
            frequency = tokens.count(term)
            if not frequency:
                continue
            length_norm = 1 - index.b + index.b * (
                len(tokens) / average_length if average_length else 1.0
            )
            tf = (frequency * (index.k1 + 1)) / (frequency + index.k1 * length_norm)
            accumulator[doc_id] += idf_by_term[term] * tf
    return dict(accumulator)


def naive_score(index: InvertedIndex, docs: dict[int, list[str]], query, limit=None):
    """The textbook (seed) implementation: no idf cache, no impact cache,
    full sort, everything recomputed per hit."""
    n = len(docs)
    average_length = sum(len(tokens) for tokens in docs.values()) / n if n else 0.0
    idf_by_term = {}
    for term in query:
        df = sum(1 for tokens in docs.values() if term in tokens)
        if df:
            idf_by_term[term] = max(0.01, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
    accumulator = naive_accumulate(index, docs, query, idf_by_term, average_length)
    ranked = sorted(accumulator.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:limit] if limit is not None else ranked


def index_of(docs: dict[int, list[str]]) -> InvertedIndex:
    index = InvertedIndex()
    for doc_id, tokens in docs.items():
        index.add_document(doc_id, tokens)
    return index


@pytest.fixture(scope="module")
def indexed_corpus():
    rng = random.Random(29)
    vocabulary = [f"term{i}" for i in range(70)]
    docs = {
        doc_id: [rng.choice(vocabulary) for _ in range(rng.randint(2, 40))]
        for doc_id in range(1, 121)
    }
    return index_of(docs), docs, vocabulary


class TestOptimizedVsNaive:
    def test_scores_bit_identical_across_random_queries(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        rng = random.Random(31)
        for _ in range(150):
            query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 5))]
            limit = rng.choice([None, 1, 3, 10, 500])
            assert index.score(query, limit=limit) == naive_score(index, docs, query, limit)

    def test_topk_equals_truncated_full_sort(self, indexed_corpus):
        index, _docs, vocabulary = indexed_corpus
        query = vocabulary[:4]
        assert index.score(query, limit=7) == index.score(query, limit=None)[:7]

    def test_duplicate_query_terms_contribute_twice(self, indexed_corpus):
        index, docs, _vocabulary = indexed_corpus
        term = next(iter(docs[1]))
        assert index.score([term, term]) == naive_score(index, docs, [term, term])

    def test_caches_invalidated_on_mutation(self, indexed_corpus):
        index, docs, _vocabulary = indexed_corpus
        term = next(iter(docs[1]))
        before = index.score([term])
        docs[999] = [term, term, "freshterm"]
        index.add_document(999, docs[999])
        after = index.score([term])
        assert after != before
        assert after == naive_score(index, docs, [term])
        assert index.score(["freshterm"]) == naive_score(index, docs, ["freshterm"])
        # idf of an unseen term stays 0 and is not poisoned by the cache
        assert index.idf("never-indexed") == 0.0

    def test_cold_warm_and_rebuilt_all_equal_naive(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        docs = dict(docs)
        fresh = index_of(docs)
        query = [vocabulary[3], vocabulary[11], vocabulary[3]]
        cold = fresh.score(query, limit=10)
        assert cold == fresh.score(query, limit=10) == naive_score(fresh, docs, query, 10)
        docs[5000] = [vocabulary[3], "padding", "padding"]
        fresh.add_document(5000, docs[5000])
        after_write = fresh.score(query, limit=10)
        assert after_write == naive_score(fresh, docs, query, 10)
        assert index_of(docs).score(query, limit=10) == after_write  # shares no cache

    def test_stale_idf_is_not_cached_across_a_concurrent_write(self, indexed_corpus, monkeypatch):
        """A write landing between idf's compute and its store (a frontend
        worker reading while an ingest listener writes) must not leave the
        pre-write idf cached."""
        _index, docs, vocabulary = indexed_corpus
        docs = dict(docs)
        index = index_of(docs)
        term = vocabulary[0]
        real_idf = inverted_index.bm25_idf
        pending = [(7000, [term, term, "latecomer"])]

        def idf_with_a_write_in_the_middle(document_count, document_frequency):
            value = real_idf(document_count, document_frequency)
            if pending:
                doc_id, tokens = pending.pop()
                docs[doc_id] = tokens
                index.add_document(doc_id, tokens)
            return value

        monkeypatch.setattr(inverted_index, "bm25_idf", idf_with_a_write_in_the_middle)
        index.idf(term)  # the racing read; linearized before the write
        assert not pending
        n = len(docs)
        df = sum(1 for tokens in docs.values() if term in tokens)
        assert index.idf(term) == max(0.01, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
        assert index.score([term]) == naive_score(index, docs, [term])


def tie_heavy_corpus():
    """Groups of documents with identical token multisets (so identical
    scores), interleaved so doc-id order cuts across the groups."""
    shapes = [
        ["alpha", "beta"],
        ["alpha", "alpha", "gamma"],
        ["beta", "gamma", "delta", "delta"],
        ["alpha"],
        ["delta", "epsilon"],
    ]
    docs = {doc_id: list(shapes[doc_id % len(shapes)]) for doc_id in range(1, 31)}
    return index_of(docs), docs


class TestTopKThroughTies:
    @pytest.mark.parametrize("query", [["alpha"], ["alpha", "beta"], ["gamma", "alpha", "delta"]])
    def test_every_limit_matches_the_truncated_full_sort(self, query):
        index, docs = tie_heavy_corpus()
        full = naive_score(index, docs, query)
        scores = [score for _doc_id, score in full]
        assert len(set(scores)) < len(scores) / 3, "the corpus must actually tie"
        assert index.score(query) == full
        for limit in range(0, len(docs) + 2):
            assert index.score(query, limit=limit) == full[:limit]

    def test_non_positive_limit_is_empty(self):
        index, _docs = tie_heavy_corpus()
        assert index.score(["alpha"], limit=0) == []
        assert index.score(["alpha"], limit=-3) == []
        assert index.score(["nosuchterm"], limit=0) == []


class TestAccumulateUnderExternalIngredients:
    """A shard's idf / avgdl move when *another* shard is written: the
    same unmutated index must score correctly under each pair it is handed."""

    def test_unmutated_index_follows_changed_idf_and_average_length(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        query = [vocabulary[5], vocabulary[9]]
        for idf_by_term, average_length in [
            ({vocabulary[5]: 1.25, vocabulary[9]: 0.5}, 17.0),
            ({vocabulary[5]: 1.25, vocabulary[9]: 0.5}, 23.5),  # avgdl alone moved
            ({vocabulary[5]: 0.75, vocabulary[9]: 0.5}, 23.5),  # one idf alone moved
            ({vocabulary[5]: 0.75, vocabulary[9]: 0.5}, 0.0),
        ]:
            accumulator: dict[int, float] = {}
            index.accumulate(query, idf_by_term, average_length, accumulator)
            assert accumulator == naive_accumulate(index, docs, query, idf_by_term, average_length)

    def test_duplicated_term_contributes_twice_into_a_shared_accumulator(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        term = vocabulary[2]
        idf_by_term = {term: 0.9}
        accumulator = {-1: 4.0}  # another shard's document, already merged
        index.accumulate([term, term], idf_by_term, 20.0, accumulator)
        expected = naive_accumulate(index, docs, [term, term], idf_by_term, 20.0)
        expected[-1] = 4.0
        assert accumulator == expected
        once: dict[int, float] = {}
        index.accumulate([term], idf_by_term, 20.0, once)
        assert all(accumulator[doc_id] == once[doc_id] + once[doc_id] for doc_id in once)


class TestMatchingDocuments:
    def test_union_and_intersection_match_reference(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        rng = random.Random(37)
        for _ in range(100):
            query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 4))]
            per_term = [
                {doc_id for doc_id, tokens in docs.items() if term in tokens}
                for term in query
            ]
            union = set().union(*per_term)
            intersection = set.intersection(*per_term)
            assert index.matching_documents(query) == union
            assert index.matching_documents(query, require_all=True) == intersection

    def test_missing_term_short_circuits_intersection(self, indexed_corpus):
        index, _docs, vocabulary = indexed_corpus
        assert index.matching_documents([vocabulary[0], "nosuchterm"], require_all=True) == set()
        assert index.matching_documents(["nosuchterm"]) == set()
        assert index.matching_documents([], require_all=True) == set()
        assert index.matching_documents([]) == set()

    def test_result_sets_are_fresh_copies(self, indexed_corpus):
        index, _docs, vocabulary = indexed_corpus
        first = index.matching_documents([vocabulary[0]])
        first.add(-1)
        assert -1 not in index.matching_documents([vocabulary[0]])
