"""The write-path seam of the unified content store.

Every content layer produces through an :class:`Ingestor`:

* the :class:`~repro.search.engine.SearchEngine` (``add_page`` /
  ``ingest_records``) and the :class:`~repro.search.crawler.Crawler`;
* the surfacing pipeline's indexing stage, and the snapshot restore,
  which replays the stored corpus through :meth:`Ingestor.ingest_batch`;
* the virtual-integration registry and the WebTables corpus, which emit
  :class:`~repro.store.records.IngestRecord` objects directly.

The ingestor owns deduplication ordering (URL check *before* any page
analysis, preserving the engine's historical cache behavior), page
preparation (single-pass analysis via its
:class:`~repro.core.informativeness.SignatureCache`, annotation tokens
folded into the token stream), and an observer hook so read-side caches
(e.g. per-host term frequencies) can invalidate on every new write no
matter which layer produced it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.informativeness import SignatureCache
from repro.store.backend import StorageBackend
from repro.store.records import SOURCE_SURFACE, IngestRecord
from repro.util.text import tokenize
from repro.webspace.page import WebPage
from repro.webspace.url import Url

#: Called after every *new* document lands in the backend.
IngestListener = Callable[[IngestRecord, int], None]


class Ingestor:
    """Prepares and writes :class:`IngestRecord` streams into a backend."""

    def __init__(
        self,
        backend: StorageBackend,
        signature_cache: SignatureCache | None = None,
    ) -> None:
        self.backend = backend
        #: The analysis cache page preparation reads.  Whatever fetches
        #: pages for this store (crawler, prober, vertical registry)
        #: analyzes them through it, so ingestion never re-parses them.
        self.signature_cache = (  # ``is None``: an empty cache is falsy
            signature_cache if signature_cache is not None else SignatureCache()
        )
        self._listeners: list[IngestListener] = []

    def add_listener(self, listener: IngestListener) -> None:
        """Subscribe to successful new-document ingests (cache invalidation)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: IngestListener) -> None:
        """Unsubscribe (no-op when not subscribed): read-side caches that
        are torn down must not be kept alive -- and invoked on every
        write -- by the ingestor."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # -- writes --------------------------------------------------------------

    def ingest(self, record: IngestRecord) -> int:
        """Write one prepared record; returns its (possibly existing) doc id."""
        existing = self.backend.doc_id_for_url(record.url)
        if existing is not None:
            return existing
        doc_id = self.backend.add(record)
        for listener in self._listeners:
            listener(record, doc_id)
        return doc_id

    def ingest_batch(self, records: Iterable[IngestRecord]) -> list[int]:
        """Write a batch in order (the snapshot replay path)."""
        return [self.ingest(record) for record in records]

    def ingest_page(
        self,
        page: WebPage,
        source: str = SOURCE_SURFACE,
        annotations: Mapping[str, str] | None = None,
    ) -> int | None:
        """Prepare and write one fetched page.

        Non-200 pages are skipped (returns ``None``); already-stored URLs
        return their existing doc id without re-analyzing the page.
        """
        if not page.ok:
            return None
        existing = self.backend.doc_id_for_url(page.url)
        if existing is not None:
            return existing
        return self.ingest(self.prepare_page(page, source=source, annotations=annotations))

    # -- preparation ---------------------------------------------------------

    def prepare_page(
        self,
        page: WebPage,
        source: str = SOURCE_SURFACE,
        annotations: Mapping[str, str] | None = None,
    ) -> IngestRecord:
        """Analyze one page into a ready-to-store record.

        The single-pass analysis is usually already cached from the probe
        or crawl fetch that produced the page, so no re-parse happens
        here.  Annotations are indexed as additional tokens, which is how
        a production index would exploit structured hints without a new
        retrieval model.
        """
        analysis = self.signature_cache.analyze(page.html)
        tokens = tokenize(analysis.text)
        if annotations:
            for key, value in annotations.items():
                tokens.extend(tokenize(f"{key} {value}"))
        return IngestRecord(
            url=page.url,
            host=Url.parse(page.url).host,
            title=analysis.title,
            text=analysis.text,
            tokens=tokens,
            source=source,
            annotations=dict(annotations or {}),
        )
