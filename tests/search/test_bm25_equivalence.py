"""The optimized BM25 paths must match a naive reference bit for bit."""

from __future__ import annotations

import math
import random
import sys
import threading
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.search import inverted_index
from repro.search.inverted_index import B, K1, InvertedIndex
from test_inverted_index import brute_force_grouped


def naive_accumulate(docs, query, idf_by_term, average_length):
    """The textbook per-posting loop under the given idf / avgdl: no
    cache, everything recomputed per hit."""
    accumulator = defaultdict(float)
    for term in query:
        for doc_id, tokens in docs.items():
            frequency = tokens.count(term)
            if not frequency:
                continue
            length_norm = 1 - B + B * (
                len(tokens) / average_length if average_length else 1.0
            )
            tf = (frequency * (K1 + 1)) / (frequency + K1 * length_norm)
            accumulator[doc_id] += idf_by_term[term] * tf
    return dict(accumulator)


def naive_score(docs: dict[int, list[str]], query, limit=None):
    """The textbook (seed) implementation: no idf cache, no impact cache,
    full sort, everything recomputed per hit."""
    n = len(docs)
    average_length = sum(len(tokens) for tokens in docs.values()) / n if n else 0.0
    idf_by_term = {}
    for term in query:
        df = sum(1 for tokens in docs.values() if term in tokens)
        if df:
            idf_by_term[term] = max(0.01, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
    accumulator = naive_accumulate(docs, query, idf_by_term, average_length)
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
            assert index.score(query, limit=limit) == naive_score(docs, query, limit)

    def test_topk_equals_truncated_full_sort(self, indexed_corpus):
        index, _docs, vocabulary = indexed_corpus
        query = vocabulary[:4]
        assert index.score(query, limit=7) == index.score(query, limit=None)[:7]

    def test_duplicate_query_terms_contribute_twice(self, indexed_corpus):
        index, docs, _vocabulary = indexed_corpus
        term = next(iter(docs[1]))
        assert index.score([term, term]) == naive_score(docs, [term, term])

    def test_caches_invalidated_on_mutation(self, indexed_corpus):
        index, docs, _vocabulary = indexed_corpus
        term = next(iter(docs[1]))
        before = index.score([term])
        docs[999] = [term, term, "freshterm"]
        index.add_document(999, docs[999])
        after = index.score([term])
        assert after != before
        assert after == naive_score(docs, [term])
        assert index.score(["freshterm"]) == naive_score(docs, ["freshterm"])
        # idf of an unseen term stays 0 and is not poisoned by the cache
        assert index.idf("never-indexed") == 0.0

    def test_cold_warm_and_rebuilt_all_equal_naive(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        docs = dict(docs)
        fresh = index_of(docs)
        query = [vocabulary[3], vocabulary[11], vocabulary[3]]
        cold = fresh.score(query, limit=10)
        assert cold == fresh.score(query, limit=10) == naive_score(docs, query, 10)
        docs[5000] = [vocabulary[3], "padding", "padding"]
        fresh.add_document(5000, docs[5000])
        after_write = fresh.score(query, limit=10)
        assert after_write == naive_score(docs, query, 10)
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
        assert index.score([term]) == naive_score(docs, [term])


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
        full = naive_score(docs, query)
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


COMMON_TERMS = ["book", "recipe", "sale"]
RARE_TERMS = [f"rare{i}" for i in range(20)]


@st.composite
def skewed_corpora(draw):
    """A few terms in most documents, many rare ones, every document copied
    up to three times under interleaved ids (so scores tie), and a query
    that may repeat its tokens or name an unindexed term."""
    shapes = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(COMMON_TERMS), max_size=4),
                st.lists(st.sampled_from(RARE_TERMS), max_size=4),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    copies = [common + rare for common, rare, count in shapes for _ in range(count)]
    docs = dict(enumerate(draw(st.permutations(copies)), start=1))
    query = draw(
        st.lists(st.sampled_from(COMMON_TERMS + RARE_TERMS[:8] + ["absent"]), min_size=1, max_size=5)
    )
    query += query[: draw(st.integers(min_value=0, max_value=2))]
    return docs, query


class TestPrunedTopK:
    """A top-``limit`` query on one index walks only the postings that can
    change its answer; the answer stays the naive ranking bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(skewed_corpora())
    def test_pruned_top_k_equals_the_naive_ranking(self, corpus):
        docs, query = corpus
        index = index_of(docs)
        naive = naive_score(docs, query)
        idf_by_term = {term: index.idf(term) for term in query}
        full: dict[int, float] = {}
        index.accumulate(query, idf_by_term, index.average_length(), full)
        for limit in range(1, len(naive) + 2):
            assert index.score(query, limit=limit) == naive[:limit]
            top: dict[int, float] = {}
            index.accumulate(query, idf_by_term, index.average_length(), top, limit)
            assert top.items() <= full.items()
            if limit <= len(naive):
                kth = naive[limit - 1][1]
                assert {doc_id for doc_id, score in naive if score >= kth} <= top.keys()
            else:
                assert top == full

    def test_pruning_fires_on_a_skewed_corpus(self):
        docs = {doc_id: ["book"] * (1 + doc_id % 3) for doc_id in range(1, 101)}
        for doc_id in (7, 40, 41, 93):
            docs[doc_id] = docs[doc_id] + ["zanzibar"]
        index = index_of(docs)
        query = ["book", "zanzibar"]
        idf_by_term = {term: index.idf(term) for term in query}
        full: dict[int, float] = {}
        top: dict[int, float] = {}
        index.accumulate(query, idf_by_term, index.average_length(), full)
        index.accumulate(query, idf_by_term, index.average_length(), top, 3)
        assert top.items() <= full.items()
        assert len(top) < len(full) == len(docs)
        assert index.score(query, limit=3) == naive_score(docs, query, 3)


@st.composite
def writes_between_queries(draw):
    """A skewed corpus, then adds (new shapes, or copies of a document so
    scores tie) and queries with a draw that picks the ``limit``."""
    docs, _query = draw(skewed_corpora())
    new_document = st.one_of(
        st.tuples(
            st.lists(st.sampled_from(COMMON_TERMS), max_size=4),
            st.lists(st.sampled_from(RARE_TERMS), max_size=4),
        ).map(lambda shape: shape[0] + shape[1]),
        st.sampled_from(list(docs.values())),
    )
    query = st.lists(
        st.sampled_from(COMMON_TERMS + RARE_TERMS[:8] + ["absent"]), min_size=1, max_size=5
    )
    operations = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), new_document),
                st.tuples(st.just("query"), query, st.integers(min_value=0, max_value=10**6)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return docs, operations


@st.composite
def long_write_runs(draw):
    """A corpus of 60-160 documents, then 50-150 writes -- new shapes,
    empty documents and copies of earlier documents, at least one of each
    -- and queries of two to five terms, one repeated, with a ``limit``
    from 1 to 12."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vocabulary = COMMON_TERMS * 4 + RARE_TERMS

    def shape() -> list[str]:
        return [rng.choice(vocabulary) for _ in range(rng.randint(1, 8))]

    docs = {doc_id: shape() for doc_id in range(1, draw(st.integers(60, 160)) + 1)}
    writes: list[list[str]] = [[], list(docs[rng.randint(1, len(docs))])]
    for _ in range(draw(st.integers(50, 150)) - len(writes)):
        kind = rng.random()
        written = list(docs.values()) + writes
        writes.append([] if kind < 0.15 else list(rng.choice(written)) if kind < 0.5 else shape())
    rng.shuffle(writes)
    queries = []
    for _ in range(draw(st.integers(3, 8))):
        query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 4))]
        queries.append((query + [rng.choice(query)], draw(st.integers(1, 12))))
    return docs, writes, queries


class TestTopKAcrossWrites:
    """A write frees no impact map; top-k after it prunes on each stale
    term's last exact build, rescores only the survivors and stays exact."""

    @settings(max_examples=100, deadline=None)
    @given(writes_between_queries())
    def test_top_k_after_writes_equals_a_fresh_full_sort(self, case):
        docs, operations = case
        docs = dict(docs)
        index = index_of(docs)
        for operation in operations:
            if operation[0] == "add":
                doc_id = len(docs) + 1
                docs[doc_id] = list(operation[1])
                index.add_document(doc_id, docs[doc_id])
                continue
            _kind, query, draw = operation
            full_sort = index_of(docs).score(query)
            limit = 1 + draw % (len(full_sort) + 1)
            assert index.score(query, limit=limit) == full_sort[:limit]
            idf_by_term = {term: index.idf(term) for term in query}
            top: dict[int, float] = {}
            full: dict[int, float] = {}
            index.accumulate(query, idf_by_term, index.average_length(), top, limit)
            index.accumulate(query, idf_by_term, index.average_length(), full)
            assert top.items() <= full.items()
            if limit <= len(full_sort):
                kth = full_sort[limit - 1][1]
                assert {doc_id for doc_id, score in full_sort if score >= kth} <= top.keys()

    def test_a_query_after_a_write_rebuilds_neither_terms_map(self):
        docs = {doc_id: ["book"] * (1 + doc_id % 3) for doc_id in range(1, 101)}
        for doc_id in (7, 40, 41, 93):
            docs[doc_id] = docs[doc_id] + ["zanzibar"]
        index = index_of(docs)
        query = ["book", "zanzibar"]
        assert index.score(query, limit=3) == naive_score(docs, query, 3)
        built = {term: index._impact_cache[term][1] for term in query}
        docs[101] = ["book", "book", "filler"]
        index.add_document(101, docs[101])
        assert index.score(query, limit=3) == naive_score(docs, query, 3)
        assert all(index._impact_cache[term][1] is built[term] for term in query)

    def test_a_post_write_query_recomputes_only_its_candidates(self, monkeypatch):
        """Both terms are walked; after a write, the impacts recomputed are
        at most the candidates' lookups, not the two posting lists."""
        docs = {
            doc_id: ["alpha"] * (1 + doc_id % 5) + ["beta"] * (1 + doc_id % 7)
            + ["x"] * (doc_id % 3)
            for doc_id in range(1, 201)
        }
        index = index_of(docs)
        query = ["alpha", "beta", "alpha"]
        assert index.score(query, limit=5) == naive_score(docs, query, 5)
        docs[201] = ["alpha", "beta", "beta", "x"]
        index.add_document(201, docs[201])
        recomputed: list[int] = []
        impact_map = index._impact_map

        def counting(postings, idf, average_length):
            impacts = impact_map(postings, idf, average_length)
            recomputed.append(len(impacts))
            return impacts

        monkeypatch.setattr(index, "_impact_map", counting)
        idf_by_term = {term: index.idf(term) for term in query}
        top: dict[int, float] = {}
        index.accumulate(query, idf_by_term, index.average_length(), top, 5)
        assert 0 < sum(recomputed) <= len(top) * len(set(query)) < len(docs)
        assert index.score(query, limit=5) == naive_score(docs, query, 5)

    def test_a_term_holds_one_map_its_last_build(self, monkeypatch):
        """A post-write query bounds from the very dict the term's last build
        made, not a copy, and a rebuild replaces that dict: nothing in the
        index holds the old one, or the old build's split by group, any
        more."""
        docs = {
            doc_id: ["book"] * (1 + doc_id % 3) + ["sale"] * (doc_id % 2) for doc_id in range(1, 61)
        }
        index = index_of(docs)
        query = ["book", "sale"]
        labels = [None] + ["even" if doc_id % 2 == 0 else "odd" for doc_id in range(1, 62)]
        index.score(query, limit=3)
        index.score(query, limit=3, group=labels.__getitem__)
        old = index._impact_cache["book"][1]
        old_split = index._impact_cache["book"][4][1]
        old_odd = old_split["odd"][1]
        assert all(old_odd[doc_id] is old[doc_id] for doc_id in old_odd)  # shared floats
        index.add_document(61, ["book", "sale", "sale"])
        bounded_from: list[dict[int, float]] = []
        accumulate_top = index._accumulate_top

        def spying(tokens, entries, *rest):
            bounded_from.append(entries["book"][1])
            accumulate_top(tokens, entries, *rest)

        monkeypatch.setattr(index, "_accumulate_top", spying)
        index.score(query, limit=3)
        assert bounded_from.pop() is old is index._impact_cache["book"][1]
        index.score(query)  # a full walk rebuilds every stale term
        assert index._impact_cache["book"][1] is not old
        assert len(index._impact_cache["book"][1]) == 61
        assert index._impact_cache["book"][4] == []  # no split until a grouped read
        assert sys.getrefcount(old) == 2  # ``old`` and the argument
        assert sys.getrefcount(old_split) == 2
        assert sys.getrefcount(old_odd) == 3  # ``old_odd``, ``old_split``'s entry, the argument
        del old_split
        assert sys.getrefcount(old_odd) == 2
        index.score(query, limit=3, group=labels.__getitem__)
        assert len(index._impact_cache["book"][4][1]["odd"][1]) == 31

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=40)
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.5, max_value=60.0),
        st.floats(min_value=0.5, max_value=60.0),
        st.floats(min_value=0.01, max_value=9.0),
        st.floats(min_value=0.01, max_value=9.0),
    )
    def test_anchor_bounds_hold_for_any_idf_and_average_length(
        self, shapes, appended, average0, average, idf0, idf
    ):
        """Per document ``(tf, filler)``: each impact of the last build,
        scaled by the ``(low, high)`` factors of the new ``(idf, average)``,
        bounds that document's new impact from below and above."""
        index = InvertedIndex()
        # Fewer appended postings than the build holds, so the build bounds.
        anchored = len(shapes) - min(appended, (len(shapes) - 1) // 2)
        for doc_id, (frequency, filler) in enumerate(shapes[:anchored], start=1):
            index.add_document(doc_id, ["t"] * frequency + ["filler"] * filler)
        build = index._impacts("t", idf0, average0)
        for doc_id, (frequency, filler) in enumerate(shapes[anchored:], start=anchored + 1):
            index.add_document(doc_id, ["t"] * frequency + ["filler"] * filler)
        stale: dict[str, tuple[float, float]] = {}
        assert index._impacts("t", idf, average, stale) is build
        low, high = stale.get("t", (1.0, 1.0))  # nothing moved: the build is current
        postings = index._postings["t"]
        current = index._impact_map(postings.items(), idf, average)
        margin = inverted_index._MARGIN
        for doc_id, impact in build[1].items():
            assert low * impact * margin <= current[doc_id] <= high * impact / margin

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(long_write_runs())
    def test_top_k_after_a_long_run_of_writes_equals_the_naive_sort(self, case):
        """Anchors built once, then 50-150 writes (empty documents move the
        average length down, copies tie at the k-th) before queries that may
        repeat a term, under every ``limit`` from 1 to 12."""
        docs, writes, queries = case
        docs = dict(docs)
        index = index_of(docs)
        index.score(COMMON_TERMS + RARE_TERMS)  # every term's map is built
        for tokens in writes:
            docs[len(docs) + 1] = tokens
            index.add_document(len(docs), tokens)
        for query, limit in queries:
            full_sort = naive_score(docs, query)
            assert index.score(query, limit=limit) == full_sort[:limit]
            idf_by_term = {term: index.idf(term) for term in query}
            top: dict[int, float] = {}
            full: dict[int, float] = {}
            index.accumulate(query, idf_by_term, index.average_length(), top, limit)
            index.accumulate(query, idf_by_term, index.average_length(), full)
            assert top.items() <= full.items()
            if limit <= len(full_sort):
                kth = full_sort[limit - 1][1]
                assert {doc_id for doc_id, score in full_sort if score >= kth} <= top.keys()


@st.composite
def source_lists(draw, count: int) -> list:
    """A group label per doc id 1..``count`` (slot 0 unused, as in the
    catalog's source list): one group, every document its own group, or
    two groups and a small one of at most two documents -- fewer matches
    than most limits."""
    kind = draw(st.sampled_from(["one", "singletons", "few"]))
    if kind == "one":
        return [None] + ["all"] * count
    if kind == "singletons":
        return [None] + list(range(1, count + 1))
    labels = draw(st.lists(st.sampled_from(["a", "b"]), min_size=count, max_size=count))
    for position in draw(st.sets(st.integers(0, count - 1), max_size=2)):
        labels[position] = "small"
    return [None] + labels


@st.composite
def grouped_corpora(draw):
    docs, query = draw(skewed_corpora())
    return docs, query, draw(source_lists(len(docs)))


@st.composite
def grouped_writes_between_queries(draw):
    """``writes_between_queries`` with a source list, and a label per
    operation for the document an add appends (``"own"``: a group of its
    own)."""
    docs, operations = draw(writes_between_queries())
    labels = draw(source_lists(len(docs)))
    appended = draw(
        st.lists(
            st.sampled_from(["a", "b", "small", "own"]),
            min_size=len(operations), max_size=len(operations),
        )
    )
    return docs, operations, labels, appended


class TestGroupedTopK:
    """A grouped top-``limit`` query runs MaxScore inside each group; its
    answer stays the brute-force grouped rank of the naive scores."""

    @settings(max_examples=150, deadline=None)
    @given(grouped_corpora())
    def test_every_limit_equals_the_brute_force_grouped_rank(self, case):
        docs, query, labels = case
        index = index_of(docs)
        naive = dict(naive_score(docs, query))
        for limit in [None, *range(0, len(naive) + 2)]:
            expected = brute_force_grouped(naive, limit, labels)
            assert index.score(query, limit, labels.__getitem__) == expected

    @settings(max_examples=100, deadline=None)
    @given(grouped_writes_between_queries())
    def test_grouped_top_k_across_writes_equals_the_brute_force_grouped_rank(self, case):
        """Adds between queries leave builds stale; plain top-k reads keep
        pruning on them, grouped reads rebuild them, in either order."""
        docs, operations, labels, appended = case
        docs = dict(docs)
        labels = list(labels)
        index = index_of(docs)
        for operation, label in zip(operations, appended):
            if operation[0] == "add":
                doc_id = len(docs) + 1
                docs[doc_id] = list(operation[1])
                labels.append(doc_id if label == "own" else label)
                index.add_document(doc_id, docs[doc_id])
                continue
            _kind, query, draw = operation
            full_sort = naive_score(docs, query)
            limit = 1 + draw % (len(full_sort) + 1)
            grouped = brute_force_grouped(dict(full_sort), limit, labels)
            reads = [
                lambda: index.score(query, limit) == full_sort[:limit],
                lambda: index.score(query, limit, labels.__getitem__) == grouped,
            ]
            for read in reads if draw % 2 else reads[::-1]:
                assert read()

    @settings(max_examples=100, deadline=None)
    @given(grouped_corpora(), st.data())
    def test_two_groupings_called_alternately(self, case, data):
        """A build's split is of the ``group`` it was made with: a read
        with another grouping must not be answered from it."""
        docs, query, first = case
        second = data.draw(source_lists(len(docs)))
        index = index_of(docs)
        naive = dict(naive_score(docs, query))
        for limit in range(1, len(naive) + 2):
            for labels in (first, second, first):
                expected = brute_force_grouped(naive, limit, labels)
                assert index.score(query, limit, labels.__getitem__) == expected

    def test_one_group_then_singletons_on_one_index(self):
        docs = {
            doc_id: ["book"] * (1 + doc_id % 4) + ["sale"] * (doc_id % 3) for doc_id in range(1, 13)
        }
        index = index_of(docs)
        query = ["book", "sale"]
        naive = dict(naive_score(docs, query))
        one = [None] + ["all"] * len(docs)
        singletons = [None] + list(docs)
        for labels, pairs in ((one, 1), (singletons, 12), (one, 1), (singletons, 12)):
            answer = index.score(query, 1, labels.__getitem__)
            assert answer == brute_force_grouped(naive, 1, labels)
            assert len(answer) == pairs

    def test_pruning_fires_inside_each_group(self, monkeypatch):
        """Two large groups: each ranks only the documents that can reach
        its own top 3, not every match."""
        docs = {doc_id: ["book"] * (1 + doc_id % 3) for doc_id in range(1, 201)}
        for doc_id in (7, 40, 41, 93, 150, 151, 188):
            docs[doc_id] = docs[doc_id] + ["zanzibar"]
        labels = [None] + ["even" if doc_id % 2 == 0 else "odd" for doc_id in docs]
        index = index_of(docs)
        query = ["book", "zanzibar"]
        ranked: list[int] = []
        accumulate_top = index._accumulate_top

        def counting(tokens, entries, limit, accumulator, *rest):
            accumulate_top(tokens, entries, limit, accumulator, *rest)
            ranked.append(len(accumulator))

        monkeypatch.setattr(index, "_accumulate_top", counting)
        answer = index.score(query, 3, labels.__getitem__)
        assert answer == brute_force_grouped(dict(naive_score(docs, query)), 3, labels)
        assert len(ranked) == 2
        assert sum(ranked) < len(docs) // 2


class TestConcurrentReaders:
    def test_threads_on_a_cold_index_agree_with_a_serial_reader(self):
        """Frontend workers fill the per-term impact entries and their
        ``limit``-th impact memo concurrently; no interleaving may change
        an answer."""
        rng = random.Random(41)
        vocabulary = ["book"] * 8 + ["sale"] * 4 + [f"term{i}" for i in range(60)]
        docs = {
            doc_id: [rng.choice(vocabulary) for _ in range(rng.randint(2, 30))]
            for doc_id in range(1, 301)
        }
        queries = [[rng.choice(vocabulary) for _ in range(rng.randint(2, 4))] for _ in range(150)]
        rng.shuffle(queries)
        serial = [index_of(docs).score(query, limit=10) for query in queries]
        shared = index_of(docs)
        answers: dict[int, list] = {}

        def reader(worker: int) -> None:
            answers[worker] = [shared.score(query, limit=10) for query in queries]

        threads = [threading.Thread(target=reader, args=(worker,)) for worker in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == {worker: serial for worker in range(8)}

    def test_a_writer_beside_three_readers_answers_at_some_prefix_of_the_writes(self):
        """One thread adds documents holding ``book`` while three score it,
        the third per group of a source list the writer appends to before
        each add (as the catalog does).  No read may raise, and each answer
        is the answer after some prefix of the writes: at least those done
        before the call, at most those begun before it returned."""
        rng = random.Random(43)
        vocabulary = ["book"] * 4 + [f"w{i}" for i in range(40)]
        docs = {
            doc_id: [rng.choice(vocabulary) for _ in range(rng.randint(2, 20))]
            for doc_id in range(1, 3001)
        }
        writes = [
            (3000 + i, ["book"] * (1 + i % 3) + [f"w{i % 9}"] * (i % 2)) for i in range(1, 201)
        ]
        sources = ("surface", "surfaced", "webtable", "vertical-source")
        labels = [None] + [rng.choice(sources) for _ in docs]
        every_label = labels + [sources[i % 4] for i in range(1, 201)]
        queries = [
            (["book", "w7"], 10, None), (["book"], 25, None), (["w7", "book", "w3"], 3, labels)
        ]
        reference = index_of(docs)

        def answers() -> list:
            return [
                reference.score(query)[:limit] if grouping is None
                else brute_force_grouped(dict(reference.score(query)), limit, every_label)
                for query, limit, grouping in queries
            ]

        expected = [answers()]
        for doc_id, tokens in writes:
            reference.add_document(doc_id, tokens)
            expected.append(answers())

        shared = index_of(docs)
        started = [0]
        completed = [0]
        done = threading.Event()
        errors: list[Exception] = []
        logs: list[list] = [[], [], []]

        def writer() -> None:
            try:
                for doc_id, tokens in writes:
                    started[0] += 1
                    labels.append(every_label[doc_id])
                    shared.add_document(doc_id, tokens)
                    completed[0] += 1
            except Exception as error:  # reported by the main thread below
                errors.append(error)
            finally:
                done.set()

        def reader(which: int) -> None:
            query, limit, grouping = queries[which]
            group = None if grouping is None else grouping.__getitem__
            try:
                while True:
                    finished = done.is_set()
                    low = completed[0]
                    answer = shared.score(query, limit=limit, group=group)
                    logs[which].append((low, started[0], answer))
                    if finished:
                        return
            except Exception as error:  # reported by the main thread below
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(which,)) for which in range(len(queries))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for which, log in enumerate(logs):
            assert log
            for low, high, answer in log:
                assert any(expected[count][which] == answer for count in range(low, high + 1))


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
            assert accumulator == naive_accumulate(docs, query, idf_by_term, average_length)

    def test_duplicated_term_contributes_twice_into_a_shared_accumulator(self, indexed_corpus):
        index, docs, vocabulary = indexed_corpus
        term = vocabulary[2]
        idf_by_term = {term: 0.9}
        accumulator = {-1: 4.0}  # another shard's document, already merged
        index.accumulate([term, term], idf_by_term, 20.0, accumulator)
        expected = naive_accumulate(docs, [term, term], idf_by_term, 20.0)
        expected[-1] = 4.0
        assert accumulator == expected
        once: dict[int, float] = {}
        index.accumulate([term], idf_by_term, 20.0, once)
        assert all(accumulator[doc_id] == once[doc_id] + once[doc_id] for doc_id in once)
