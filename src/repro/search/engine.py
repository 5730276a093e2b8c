"""The search engine: a ranking facade over the unified content store.

Surfaced deep-web pages are added to the very same index as crawled surface
pages and "appear in answers to web-search queries" like any other page --
the essence of the surfacing approach.  Documents carry a ``source`` tag
(surface crawl, deep-web crawl, surfaced, and now vertical-integration
sources and webtables) so experiments can attribute results, and optional
semantic annotations (Section 5.1 of the paper), indexed as extra tokens.

Storage lives behind a :class:`~repro.store.backend.StorageBackend` (the
in-memory default reproduces the engine's historical behavior byte for
byte; the cluster backend scatters searches over shard replicas and
merges identical top-k lists back), and every write flows through one
:class:`~repro.store.ingest.Ingestor`, which the crawler, the surfacing
pipeline, the virtual-integration registry and the table corpus share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.informativeness import SignatureCache
from repro.store.backend import StorageBackend, StoreStats
from repro.store.ingest import Ingestor
from repro.store.records import (  # noqa: F401  (re-exported, historical home)
    DEEP_WEB_SOURCES,
    SOURCE_DEEP_CRAWLED,
    SOURCE_SURFACE,
    SOURCE_SURFACED,
    SOURCE_VERTICAL,
    SOURCE_WEBTABLE,
    Document,
    IngestRecord,
)
from repro.util.text import tokenize
from repro.webspace.page import WebPage


@dataclass(frozen=True)
class SearchResult:
    """One entry in a result listing."""

    doc_id: int
    url: str
    host: str
    title: str
    score: float
    source: str


class SearchEngine:
    """An IR-style keyword search engine over the content store."""

    def __init__(
        self,
        signature_cache: SignatureCache | None = None,
        backend: StorageBackend | None = None,
    ) -> None:
        if backend is None:
            # Imported lazily: the backend modules import the inverted
            # index through the ``repro.search`` package, whose __init__
            # is mid-execution whenever this module loads first.
            from repro.store.memory import InMemoryBackend

            backend = InMemoryBackend()
        self._backend = backend
        self._ingestor = Ingestor(backend, signature_cache=signature_cache)
        self._ingestor.add_listener(self._on_ingest)
        # host -> term counts, invalidated per host on ingestion; keyword
        # seeding asks for the same host's frequencies once per form, which
        # made this an O(pages x tokens) hot spot.
        self._host_terms: dict[tuple[str, bool], dict[str, int]] = {}

    @property
    def backend(self) -> StorageBackend:
        """The storage backend every read goes through."""
        return self._backend

    @property
    def ingestor(self) -> Ingestor:
        """The shared write path; other content layers (crawler, corpus,
        vertical registry) produce through this same seam."""
        return self._ingestor

    @property
    def signature_cache(self) -> SignatureCache:
        """The analysis cache ``add_page`` reads (the ingestor's): this
        engine's own unless one was injected, and the one its crawler and
        its pipeline's prober analyze through."""
        return self._ingestor.signature_cache

    def __len__(self) -> int:
        return len(self._backend)

    # -- ingestion ----------------------------------------------------------

    def _on_ingest(self, record: IngestRecord, doc_id: int) -> None:
        """Invalidate per-host read caches on every new write, no matter
        which content layer produced it."""
        self._host_terms.pop((record.host, True), None)
        self._host_terms.pop((record.host, False), None)

    def add_page(
        self,
        page: WebPage,
        source: str = SOURCE_SURFACE,
        annotations: Mapping[str, str] | None = None,
    ) -> int | None:
        """Index one fetched page.

        Non-200 pages and already-indexed URLs are skipped (returns None
        or the existing doc id respectively).
        """
        return self._ingestor.ingest_page(page, source=source, annotations=annotations)

    def ingest_records(self, records: Iterable[IngestRecord]) -> list[int]:
        """Write prepared records in order; returns their doc ids."""
        ingest = self._ingestor.ingest
        return [ingest(record) for record in records]

    # -- lookup ---------------------------------------------------------------

    def documents(self, source: str | None = None) -> list[Document]:
        return self._backend.documents(source=source)

    def store_stats(self) -> StoreStats:
        """The backend's aggregate stats: doc counts in total, per source
        tag (sorted by source) and per shard."""
        return self._backend.stats()

    # -- querying ---------------------------------------------------------------

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Rank documents for a keyword query (BM25).

        Empty and whitespace-only queries (anything that tokenizes to
        nothing) and a non-positive ``k`` return ``[]`` without touching
        the backend -- the one empty-request contract shared by
        ``service.query``, the planner and the serving frontend.
        """
        return self.materialize(self.rank(query, k))

    def rank(
        self, query: str, k: int = 10, per_source: bool = False
    ) -> list[tuple[int, float]]:
        """:meth:`search` before materialisation: ``(doc_id, score)`` pairs.

        ``per_source`` asks the backend for the ``k`` best of every source
        tag instead of the ``k`` best overall (see
        :meth:`~repro.store.backend.StorageBackend.search`); the federated
        executor ranks ids this way and materialises only what it returns.
        """
        if k <= 0:
            return []
        tokens = tokenize(query)
        if not tokens:
            return []
        return self._backend.search(tokens, limit=k, per_source=per_source)

    def materialize(self, ranked: Iterable[tuple[int, float]]) -> list[SearchResult]:
        """Result rows for ranked ``(doc_id, score)`` pairs, in their order."""
        get = self._backend.get
        results = []
        for doc_id, score in ranked:
            doc = get(doc_id)
            results.append(
                SearchResult(
                    doc_id=doc_id,
                    url=doc.url,
                    host=doc.host,
                    title=doc.title,
                    score=score,
                    source=doc.source,
                )
            )
        return results

    def site_term_frequencies(self, host: str, drop_stopwords: bool = True) -> dict[str, int]:
        """Term counts over all indexed pages of one host.

        The iterative-probing keyword selector seeds itself with the most
        characteristic words of the pages already indexed from a form site,
        which is exactly what this provides.  Counts are cached per host and
        invalidated when a page for that host is ingested; callers receive a
        copy and may mutate it freely.
        """
        cache_key = (host, drop_stopwords)
        cached = self._host_terms.get(cache_key)
        if cached is None:
            cached = {}
            for doc in self._backend.documents_for_host(host):
                for token in tokenize(doc.text, drop_stopwords=drop_stopwords):
                    cached[token] = cached.get(token, 0) + 1
            self._host_terms[cache_key] = cached
        return dict(cached)
