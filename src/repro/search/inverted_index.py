"""A BM25 inverted index.

Scoring is one code path: :meth:`InvertedIndex.accumulate` adds one cached
``idf * tf_component`` per posting, :func:`rank_accumulator` orders the sums.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter, defaultdict
from typing import Callable, Hashable, Iterable, Mapping, Sequence


def rank_accumulator(
    accumulator: Mapping[int, float],
    limit: int | None = None,
    group: Callable[[int], Hashable] | None = None,
) -> list[tuple[int, float]]:
    """Order a score accumulator: descending score, ascending doc id.

    The single definition of ranking order, shared by the global index
    and the cluster store's merge so their orderings can never drift
    apart.  The top-k path finds the k-th best score over the bare floats,
    keeps the entries at or above it (every tie included) and sorts only
    those -- the same list a full sort would be cut to.

    With ``group``, ``limit`` applies inside each group instead of
    globally: an entry is kept while fewer than ``limit`` entries of its
    own group rank before it, so the result is every entry among the
    ``limit`` best of its group, still in global rank order, with the
    global top-``limit`` as its prefix.  Any entry may be the only one of
    its group, so every entry is visited; the walk therefore orders the
    ids with two stable C-level sorts (ascending id, then descending
    score -- the order the key below spells out) instead of one Python
    key call per entry.
    """
    items: Iterable[tuple[int, float]] = accumulator.items()
    if limit is not None and limit < len(accumulator):
        if limit <= 0:
            return []
        if group is not None:
            kept: list[tuple[int, float]] = []
            taken: dict[Hashable, int] = {}
            score_of = accumulator.__getitem__
            for doc_id in sorted(sorted(accumulator), key=score_of, reverse=True):
                key = group(doc_id)
                count = taken.get(key, 0)
                if count < limit:
                    taken[key] = count + 1
                    kept.append((doc_id, score_of(doc_id)))
            return kept
        threshold = heapq.nlargest(limit, accumulator.values())[-1]
        items = [item for item in items if item[1] >= threshold]
    ranked = sorted(items, key=lambda item: (-item[1], item[0]))
    return ranked if limit is None else ranked[:limit]


def bm25_idf(document_count: int, document_frequency: int) -> float:
    """The BM25 idf formula with the non-negative floor.

    Shared by the per-index cached path (:meth:`InvertedIndex.idf`) and by
    sharded stores, which compute idf from corpus-wide document counts so
    that fan-out scoring matches a single global index bit for bit.
    """
    if document_count == 0 or document_frequency == 0:
        return 0.0
    return max(
        0.01,
        math.log(
            (document_count - document_frequency + 0.5) / (document_frequency + 0.5) + 1.0
        ),
    )


class InvertedIndex:
    """Term -> postings index with BM25 scoring.

    Documents are integer ids managed by the caller.  The index stores term
    frequencies per document and document lengths; scoring uses the standard
    Okapi BM25 formula with a non-negative idf floor (so very common terms do
    not produce negative contributions on a small corpus).

    Scoring ingredients that depend only on the corpus are precomputed and
    cached per queried term: its idf, and its *impacts* -- an ``array('d')``
    of ``idf * tf_component``, one C double per posting, in the posting
    dict's order.  Each entry carries what it was computed from and is
    checked on every read: an idf the document count, an impact array the
    ``(idf, average_length, len(postings))`` triple.  A shard is handed
    corpus-global idf and average length that move when *another* shard is
    written, so ``add_document`` clearing the caches (which only bounds
    their size) cannot be what keeps them correct.  The first matching
    term of a query is copied into the empty accumulator in one C-level
    ``update`` -- ``0.0 + x`` is ``x`` bit for bit -- and later terms add
    in query-token order, so scores equal the textbook loop's exactly.
    """

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        self._doc_lengths: dict[int, int] = {}
        self._total_length = 0
        # term -> (document count, idf)
        self._idf_cache: dict[str, tuple[int, float]] = {}
        # term -> ((idf, average_length, len(postings)), impacts)
        self._impact_cache: dict[str, tuple[tuple[float, float, int], array]] = {}

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._doc_lengths

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def document_count(self) -> int:
        return len(self._doc_lengths)

    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    # -- construction -------------------------------------------------------

    def add_document(self, doc_id: int, tokens: Sequence[str]) -> None:
        """Index a document given its token list (re-adding an id is an error)."""
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id} is already indexed")
        counts = Counter(tokens)
        postings = self._postings
        for term, frequency in counts.items():
            postings[term][doc_id] = frequency
        self._doc_lengths[doc_id] = len(tokens)
        self._total_length += len(tokens)
        # Entries validate themselves; clearing only drops the stale ones.
        self._idf_cache.clear()
        self._impact_cache.clear()

    def document_terms(self) -> dict[int, list[str]]:
        """Each document's token stream, terms sorted, each term repeated
        ``frequency`` times -- built in one pass over the sorted postings.

        The index stores token *counts*, not token order; a term-sorted
        stream re-indexes to bit-identical state -- :meth:`add_document`
        only reads the ``Counter`` and the stream length.  This is the
        export seam persistence snapshots serialize the corpus through;
        every id of the index has an entry (an empty document an empty
        list), and each list is new, so a caller may keep it as a record's
        tokens.
        """
        streams: dict[int, list[str]] = {doc_id: [] for doc_id in self._doc_lengths}
        postings = self._postings
        for term in sorted(postings):
            for doc_id, frequency in postings[term].items():
                if frequency == 1:
                    streams[doc_id].append(term)
                else:
                    streams[doc_id] += [term] * frequency
        return streams

    # -- querying -----------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def idf(self, term: str) -> float:
        """BM25 idf with a small floor to keep scores non-negative."""
        document_count = len(self._doc_lengths)
        cached = self._idf_cache.get(term)
        # df only changes when N does, so N stamps the entry: a write that
        # lands between the compute and the store below cannot go unnoticed.
        if cached is not None and cached[0] == document_count:
            return cached[1]
        value = bm25_idf(document_count, len(self._postings.get(term, ())))
        self._idf_cache[term] = (document_count, value)
        return value

    def _impacts(
        self, term: str, postings: dict[int, int], idf: float, average_length: float
    ) -> array:
        """``idf * tf_component`` per posting of ``term``, in posting order."""
        key = (idf, average_length, len(postings))
        cached = self._impact_cache.get(term)
        if cached is not None and cached[0] == key:
            return cached[1]
        k1 = self.k1
        k1_plus_1 = k1 + 1
        b = self.b
        one_minus_b = 1 - b
        lengths = self._doc_lengths
        # A zero average length (only empty documents) norms every length as average.
        impacts = array("d", [
            idf * ((frequency * k1_plus_1) / (frequency + k1 * (one_minus_b + b * (
                lengths[doc_id] / average_length if average_length else 1.0))))
            for doc_id, frequency in postings.items()
        ])
        self._impact_cache[term] = (key, impacts)
        return impacts

    def accumulate(
        self,
        query_tokens: Sequence[str],
        idf_by_term: Mapping[str, float],
        average_length: float,
        accumulator: dict[int, float],
    ) -> None:
        """Add this index's BM25 contributions into ``accumulator``.

        idf values and the average document length are supplied by the
        caller (computed over the whole corpus), so several shard indexes
        accumulating into one dict reproduce a single global index's
        scores exactly: a document lives in one shard, and its per-term
        contributions are added in query-token order.
        """
        for term in query_tokens:
            postings = self._postings.get(term)
            if not postings:
                continue
            impacts = self._impacts(term, postings, idf_by_term[term], average_length)
            if not accumulator:
                accumulator.update(zip(postings, impacts))
                continue
            get = accumulator.get
            for doc_id, impact in zip(postings, impacts):
                accumulator[doc_id] = get(doc_id, 0.0) + impact

    def score(
        self,
        query_tokens: Iterable[str],
        limit: int | None = None,
        group: Callable[[int], Hashable] | None = None,
    ) -> list[tuple[int, float]]:
        """BM25 scores for all documents matching at least one query term.

        Returns (doc_id, score) pairs sorted by descending score then
        ascending doc id (for determinism).  ``limit`` truncates the list
        (via :func:`rank_accumulator`'s top-k selection, which produces
        exactly the same ordering as the full sort) -- per ``group`` of
        documents when one is given.
        """
        tokens = list(query_tokens)
        idf_by_term = {term: self.idf(term) for term in tokens if term in self._postings}
        accumulator: dict[int, float] = {}
        self.accumulate(tokens, idf_by_term, self.average_length(), accumulator)
        return rank_accumulator(accumulator, limit, group)

    def matching_documents(self, query_tokens: Iterable[str], require_all: bool = False) -> set[int]:
        """Doc ids containing any (or all) of the query terms.

        Postings are combined lazily: unions accumulate over the posting
        dicts directly, and intersections start from the smallest postings
        list (ascending document frequency) with an empty-result early exit
        -- no per-term key sets are materialized.
        """
        postings_list: list[dict[int, int]] = []
        for term in query_tokens:
            postings = self._postings.get(term)
            if postings is None:
                if require_all:
                    return set()
                continue
            postings_list.append(postings)
        if not postings_list:
            return set()
        if require_all:
            postings_list.sort(key=len)
            result = set(postings_list[0])
            for postings in postings_list[1:]:
                result.intersection_update(postings)
                if not result:
                    break
            return result
        result = set()
        for postings in postings_list:
            result.update(postings)
        return result
