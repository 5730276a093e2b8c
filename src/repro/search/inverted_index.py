"""A BM25 inverted index.

A score is the float sum, in query-token order, of one cached ``idf *
tf_component`` impact per token, and :func:`rank_accumulator` orders the
sums.  A top-``limit`` query walks only the postings of the terms that can
change its answer (MaxScore: Turtle & Flood, IP&M 1995) -- inside each
group when the ``limit`` applies per group; after a write it prunes on each
term's last exact impact map and rescores only the survivors.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import Counter, defaultdict
from itertools import islice
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

#: Pruning compares with ``theta * _MARGIN``: a bound is a float sum, which
#: rounding may leave a few ulps off the value it bounds.
_MARGIN = 1.0 - 1e-9

#: ``((idf, avgdl, len(postings)), impacts, max impact, {limit: limit-th impact})``
_TermImpacts = tuple[tuple[float, float, int], dict[int, float], float, dict[int, float]]

#: A term's cached build: its ``_TermImpacts`` plus the build's split by
#: group -- empty until the build's first grouped read, then ``[group,
#: {group key: _TermImpacts over that group's postings}]``.
_TermEntry = tuple[tuple[float, float, int], dict[int, float], float, dict[int, float], list]


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
    key call per entry.  Only the cluster's merge ranks by group here: a
    single index prunes inside each group instead
    (:meth:`InvertedIndex.score`) and ranks each group's survivors alone.
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


def _add_impacts(impact_maps: Iterable[dict[int, float]], accumulator: dict[int, float]) -> None:
    """Add each ``doc_id -> impact`` map into ``accumulator``, in order."""
    for impacts in impact_maps:
        if not accumulator:
            # ``0.0 + x`` is ``x`` bit for bit: copy in one C-level update.
            accumulator.update(impacts)
            continue
        get = accumulator.get
        for doc_id, impact in impacts.items():
            accumulator[doc_id] = get(doc_id, 0.0) + impact


class InvertedIndex:
    """Term -> postings index with BM25 scoring.

    Documents are integer ids managed by the caller.  The index stores term
    frequencies per document and document lengths; scoring uses the standard
    Okapi BM25 formula with a non-negative idf floor (so very common terms do
    not produce negative contributions on a small corpus).

    Scoring ingredients that depend only on the corpus are precomputed and
    cached per queried term: its idf, and its *impacts* -- a ``doc_id ->
    idf * tf_component`` dict in posting order -- with the largest impact
    and a memo of the ``limit``-th largest, filled on first use.  Each
    entry carries what it was computed from and is checked on every read:
    an idf the document count, impacts the ``(idf, average_length,
    len(postings))`` triple.  A shard is handed corpus-global idf and
    average length that move when *another* shard is written, so a check
    on read, not a clear on write, is what keeps them correct.

    A score sums a document's impacts in query-token order, exactly as the
    textbook loop does.  A top-``limit`` query with two or more matching
    terms prunes (MaxScore): any one term's ``limit``-th impact bounds the
    ``limit``-th score from below, tokens whose summed max impact stays
    under the bound are only looked up, and documents that cannot reach it
    are dropped before they are rescored exactly.  With a ``group``, the
    same pass runs once per group over the build's split by group (made on
    the build's first grouped read, sharing its floats, freed with it); a
    group whose maps are all shorter than ``limit`` has no bound and is
    walked whole.  A split is kept while reads pass an equal ``group``
    callable, so a document's group must never change.

    A write frees no impact map: each term keeps the entry of its last
    exact build, which a read with other ingredients finds stale.  An
    impact ``idf * w(tf, dl; a)`` moves with the idf in proportion and
    with the average length ``a`` by a factor within ``[min(1, a/a0),
    max(1, a/a0)]``, and postings are only appended.  So a top-k query
    that finds a term stale runs MaxScore over the old maps, keeps every
    document within the factors' spread of the old ``limit``-th score
    plus every document appended to a stale term since its build, and
    rescores those exactly; a term whose postings doubled since its
    build is rebuilt instead.  Queries that walk every posting rebuild
    what they find stale, and so do grouped reads.  Shards do not prune: a
    shard holds a slice of every posting list, so the bound's fixed cost
    outweighed its saving (measured).  One re-entrant
    lock serializes writes, scoring and the export, so each answer is the
    answer after some prefix of the writes.
    """

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        self.k1 = k1
        self.b = b
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        self._doc_lengths: dict[int, int] = {}
        self._total_length = 0
        # term -> (document count, idf)
        self._idf_cache: dict[str, tuple[int, float]] = {}
        # term -> its last exact build, current while its triple is the read's
        self._impact_cache: dict[str, _TermEntry] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    # -- construction -------------------------------------------------------

    def add_document(self, doc_id: int, tokens: Sequence[str]) -> None:
        """Index a document given its token list (re-adding an id is an error)."""
        with self._lock:
            if doc_id in self._doc_lengths:
                raise ValueError(f"document {doc_id} is already indexed")
            counts = Counter(tokens)
            postings = self._postings
            for term, frequency in counts.items():
                postings[term][doc_id] = frequency
            self._doc_lengths[doc_id] = len(tokens)
            self._total_length += len(tokens)
            # Entries validate themselves; a stale impact entry still bounds.
            self._idf_cache.clear()

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
        with self._lock:
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

    def _impact_map(
        self, postings: Iterable[tuple[int, int]], idf: float, average_length: float
    ) -> dict[int, float]:
        """``doc_id -> idf * tf_component`` over ``(doc_id, frequency)``
        pairs: the one impact expression, for posting lists and lookups."""
        k1 = self.k1
        k1_plus_1 = k1 + 1
        b = self.b
        one_minus_b = 1 - b
        lengths = self._doc_lengths
        # A zero average length (only empty documents) norms every length as average.
        return {
            doc_id: idf * ((frequency * k1_plus_1) / (frequency + k1 * (one_minus_b + b * (
                lengths[doc_id] / average_length if average_length else 1.0))))
            for doc_id, frequency in postings
        }

    def _impacts(
        self, term: str, idf: float, average_length: float,
        stale: dict[str, tuple[float, float]] | None = None,
    ) -> _TermEntry:
        """The last exact build of ``term``, rebuilt if stale -- unless
        ``stale`` is given and the build can bound it: then the build is
        returned and ``stale[term]`` is ``(low, high)``, the factors each of
        its impacts has moved by at least and at most since."""
        postings = self._postings[term]
        key = (idf, average_length, len(postings))
        cached = self._impact_cache.get(term)
        if cached is not None:
            if cached[0] == key:
                return cached
            idf0, average0, count = cached[0]
            # Appended documents are rescored on every query: past as many
            # as the build holds, one rebuild costs less.
            if stale is not None and average_length and average0 and len(postings) < 2 * count:
                scale = idf / idf0
                ratio = average_length / average0
                stale[term] = (scale * min(1.0, ratio), scale * max(1.0, ratio))
                return cached
        impacts = self._impact_map(postings.items(), idf, average_length)
        entry = (key, impacts, max(impacts.values()), {}, [])
        self._impact_cache[term] = entry
        return entry

    @staticmethod
    def _split(
        entry: _TermEntry, group: Callable[[int], Hashable]
    ) -> dict[Hashable, _TermImpacts]:
        """``entry``'s build split by ``group``: per group key, the impacts
        of that group's documents (the build's own float objects, in posting
        order), their max and a fresh ``limit``-th memo.  Made once per build
        and ``group``; a read with an unequal callable makes it again."""
        split = entry[4]
        if split and split[0] == group:
            return split[1]
        by_group: dict[Hashable, dict[int, float]] = {}
        for doc_id, impact in entry[1].items():
            key = group(doc_id)
            impacts = by_group.get(key)
            if impacts is None:
                impacts = by_group[key] = {}
            impacts[doc_id] = impact
        idf, average_length, _count = entry[0]
        split[:] = group, {
            key: ((idf, average_length, len(impacts)), impacts, max(impacts.values()), {})
            for key, impacts in by_group.items()
        }
        return split[1]

    def accumulate(
        self,
        query_tokens: Sequence[str],
        idf_by_term: Mapping[str, float],
        average_length: float,
        accumulator: dict[int, float],
        limit: int | None = None,
    ) -> None:
        """Add this index's BM25 contributions into ``accumulator``.

        idf values and the average document length are supplied by the
        caller (computed over the whole corpus), so several shard indexes
        accumulating into one dict reproduce a single global index's
        scores exactly: a document lives in one shard, and its per-term
        contributions are added in query-token order.

        Given a positive ``limit`` and an empty ``accumulator``, only
        documents that can rank among the ``limit`` best (ties included)
        are added, each with its exact score.
        """
        with self._lock:
            postings = self._postings
            tokens = [term for term in query_tokens if postings.get(term)]
            terms = dict.fromkeys(tokens)
            if limit is None or limit <= 0 or accumulator or len(terms) < 2:
                limit = None
            stale: dict[str, tuple[float, float]] | None = None if limit is None else {}
            entries = {
                term: self._impacts(term, idf_by_term[term], average_length, stale)
                for term in terms
            }
            if limit is None:
                _add_impacts((entries[term][1] for term in tokens), accumulator)
            elif not stale:
                self._accumulate_top(tokens, entries, limit, accumulator)
            else:
                self._accumulate_stale(
                    tokens, entries, stale, idf_by_term, average_length, limit, accumulator
                )

    def _accumulate_stale(
        self, tokens: list[str], entries: dict[str, _TermImpacts],
        stale: dict[str, tuple[float, float]], idf_by_term: Mapping[str, float],
        average_length: float, limit: int, accumulator: dict[int, float],
    ) -> None:
        """Top-k when the ``stale`` terms' ``entries`` are builds from before
        some writes.  A document held by every build it appears in scores
        between ``low`` and ``high`` times its build-time score, so the
        ``limit`` best build-time scores put the ``limit``-th score at or
        above ``low`` times the build-time ``limit``-th, and a document
        below ``low / high`` times that cannot reach it.  The rest, and
        every document appended to a stale term since its build, are
        rescored exactly, in token order.
        """
        low = min(factors[0] for factors in stale.values())
        high = max(factors[1] for factors in stale.values())
        if len(stale) < len(entries):  # a fresh term moves by a factor of 1
            low, high = min(low, 1.0), max(high, 1.0)
        slack = low / high
        built: dict[int, float] = {}
        self._accumulate_top(tokens, entries, limit, built, slack)
        floor = heapq.nlargest(limit, built.values())[-1] * _MARGIN * slack
        candidates = {doc_id for doc_id, score in built.items() if score >= floor}
        postings = self._postings
        for term in stale:
            appended = len(postings[term]) - entries[term][0][2]
            candidates.update(islice(reversed(postings[term]), appended))
        impact_maps = {
            term: self._impact_map(
                ((doc_id, postings[term][doc_id]) for doc_id in candidates
                 if doc_id in postings[term]),
                idf_by_term[term], average_length,
            )
            for term in entries
        }
        for doc_id in candidates:
            score = 0.0
            for term in tokens:
                score += impact_maps[term].get(doc_id, 0.0)
            accumulator[doc_id] = score

    def _accumulate_top(
        self, tokens: list[str], entries: dict[str, _TermImpacts], limit: int,
        accumulator: dict[int, float], slack: float = 1.0,
    ) -> None:
        """MaxScore: put in the empty ``accumulator`` every document that can
        rank among the ``limit`` best, with its exact score, given one cache
        entry per distinct term in ``entries``.  With ``slack`` below 1, every
        document that reaches ``slack`` times the ``limit``-th score.

        ``theta`` is a score at least ``limit`` documents reach: impacts are
        positive, so a document scores at least any one of its impacts and any
        token-order partial sum of them (other orders are off by ulps, which
        ``_MARGIN`` absorbs).  Survivors are rescored in token order.
        """
        margin = _MARGIN * slack
        theta = 0.0
        for entry in sorted(entries.values(), key=itemgetter(2), reverse=True):
            if entry[2] <= theta:
                break
            if entry[0][2] >= limit:
                kth_by_limit = entry[3]
                kth = kth_by_limit.get(limit)
                if kth is None:
                    kth = kth_by_limit[limit] = heapq.nlargest(limit, entry[1].values())[-1]
                theta = max(theta, kth)
        # The longest ascending-max prefix of tokens whose summed max stays
        # below theta cannot rank a document alone: it is never walked.
        floor = theta * margin
        walk = [entries[term] for term in tokens]
        skipped: list[int] = []
        unfolded = [0.0]  # unfolded[j]: the summed max of skipped[:j]
        for position in sorted(range(len(walk)), key=lambda i: walk[i][2]):
            bound = unfolded[-1] + walk[position][2]
            if bound >= floor:
                break
            skipped.append(position)
            unfolded.append(bound)
        impact_maps = [entry[1] for entry in walk]
        if not skipped:
            _add_impacts(impact_maps, accumulator)
            return
        partial: dict[int, float] = {}
        _add_impacts((m for i, m in enumerate(impact_maps) if i not in skipped), partial)
        if len(partial) >= limit:
            floor = max(theta, heapq.nlargest(limit, partial.values())[-1]) * margin
        # A document stays while its partial score plus the max impacts still
        # to fold in can reach the floor; the largest max is folded in first.
        cut = floor - unfolded.pop()
        candidates = {d: p for d, p in partial.items() if p >= cut}
        for position in reversed(skipped):
            cut = floor - unfolded.pop()
            get = impact_maps[position].get
            candidates = {d: q for d, p in candidates.items() if (q := p + get(d, 0.0)) >= cut}
        if len(candidates) > limit:
            floor = max(floor, heapq.nlargest(limit, candidates.values())[-1] * margin)
            candidates = {d: p for d, p in candidates.items() if p >= floor}
        for doc_id in candidates:
            score = 0.0
            for impacts in impact_maps:
                score += impacts.get(doc_id, 0.0)
            accumulator[doc_id] = score

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
        documents when one is given, and then only the postings that can
        change a group's top ``limit`` are walked, group by group.  A
        document's ``group`` must never change (see the class docstring).
        """
        tokens = list(query_tokens)
        grouped = group is not None and limit is not None and limit > 0
        with self._lock:
            idf_by_term = {term: self.idf(term) for term in tokens if term in self._postings}
            average_length = self.average_length()
            if grouped:
                tops = self._accumulate_groups(tokens, idf_by_term, average_length, limit, group)
            else:
                accumulator: dict[int, float] = {}
                self.accumulate(tokens, idf_by_term, average_length, accumulator, limit)
        if not grouped:
            # No positive limit, or no group: a group would change nothing.
            return rank_accumulator(accumulator, limit)
        # Ranked outside the lock, as an ungrouped read is: a reader that
        # takes the lock again at once starved a waiting writer (measured).
        # Each group's best, merged by (-score, doc_id), is the grouped rank.
        ranked = [pair for top in tops for pair in rank_accumulator(top, limit)]
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked

    def _accumulate_groups(
        self, tokens: list[str], idf_by_term: Mapping[str, float], average_length: float,
        limit: int, group: Callable[[int], Hashable],
    ) -> list[dict[int, float]]:
        """Per group with postings for a query term, the documents that can
        rank among the group's ``limit`` best, with their exact scores:
        MaxScore over that group's split of each term's build.  Stale terms
        are rebuilt first, as a full walk would: a split is always of an
        exact build."""
        splits = {
            term: self._split(self._impacts(term, idf, average_length), group)
            for term, idf in idf_by_term.items()
        }
        tops = []
        for key in dict.fromkeys(key for split in splits.values() for key in split):
            entries = {term: split[key] for term, split in splits.items() if key in split}
            top: dict[int, float] = {}
            self._accumulate_top([term for term in tokens if term in entries], entries, limit, top)
            tops.append(top)
        return tops
