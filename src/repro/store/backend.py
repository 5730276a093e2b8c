"""The storage seam: what every content-store backend must provide.

A backend owns document storage *and* the posting lists over the token
streams it was given; the :class:`~repro.search.engine.SearchEngine`,
the surfacing pipeline, the virtual-integration registry and the table
corpus all write through an :class:`~repro.store.ingest.Ingestor` and
read through these methods, so swapping the backend (in-memory, sqlite,
or the replicated cluster) never touches a content layer.

:class:`DocumentCatalog` is the part of that protocol every backend in
this tree shares -- where documents and the URL -> doc-id map live and
how ids are assigned -- so a backend only says how it indexes and
searches token streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.store.records import Document, IngestRecord


@dataclass(frozen=True)
class StoreStats:
    """Aggregate facts about what a backend holds.

    ``by_source`` is ordered by source tag (sorted), so renderings built
    from it are deterministic regardless of ingestion interleaving.
    ``shard_documents`` is empty for unsharded backends.
    """

    backend: str
    documents: int
    by_source: dict[str, int] = field(default_factory=dict)
    shard_documents: tuple[int, ...] = ()


@runtime_checkable
class StorageBackend(Protocol):
    """Document + postings storage behind the unified content store."""

    def __len__(self) -> int:
        """Number of stored documents."""
        ...

    def __contains__(self, url: str) -> bool:
        """Whether a document with this URL is stored."""
        ...

    def add(self, record: IngestRecord) -> int:
        """Store a record, assign and return its doc id.

        Re-adding a URL returns the existing doc id (no duplicate doc).
        """
        ...

    def doc_id_for_url(self, url: str) -> int | None:
        ...

    def get(self, doc_id: int) -> Document:
        """The stored document (raises ``KeyError`` for unknown ids)."""
        ...

    def document_for_url(self, url: str) -> Document | None:
        ...

    def documents(self, source: str | None = None) -> list[Document]:
        """All documents (optionally one source), ascending doc id."""
        ...

    def documents_for_host(self, host: str) -> list[Document]:
        """Documents of one host, ascending doc id."""
        ...

    def export_records(self) -> list[IngestRecord]:
        """The stored corpus as re-ingestable records, ascending doc id.

        Re-adding the exported records to an empty backend must reproduce
        doc ids, rankings and scores exactly.  Token order within a
        record need not match the original stream -- indexing is count-
        based -- so the index-backed stores hand out the term-sorted
        streams :meth:`~repro.search.inverted_index.InvertedIndex.document_terms`
        builds from their postings in one pass (sqlite returns its stored
        rows verbatim).  This is the seam whole-service snapshots
        serialize through.
        """
        ...

    def search(
        self,
        query_tokens: Sequence[str],
        limit: int | None = None,
        per_source: bool = False,
    ) -> list[tuple[int, float]]:
        """BM25-ranked ``(doc_id, score)`` pairs (desc score, asc id).

        ``limit`` keeps the best ``limit`` matches; with ``per_source`` it
        keeps every match that is among the ``limit`` best of its own
        source tag, still in global rank order (a superset of the plain
        top-``limit``, which is its prefix) -- what the federated read
        path needs to apply per-source floors without ranking every match.
        """
        ...

    def stats(self) -> StoreStats:
        ...


class DocumentCatalog:
    """Documents, the URL -> doc-id map and id assignment, in one place.

    Doc ids are sequential from 1 in ingestion order and a URL is stored
    once.  A subclass provides ``kind``, ``_index`` (put one new
    document's token stream wherever its postings live; called after the
    document is stored, so every id a search ranks resolves), ``search``
    and ``export_records``.
    """

    #: Searches served from part of the corpus so far.  Only a backend that
    #: can lose a shard (the cluster) ever moves it; readers compare it
    #: around a search.
    degraded_searches = 0

    def __init__(self) -> None:
        self._documents: dict[int, Document] = {}
        self._url_to_doc: dict[str, int] = {}
        #: Each document's source tag by doc id (slot 0 unused): its
        #: ``__getitem__`` is the C-level ``group`` a ``per_source`` search
        #: hands the index, which prunes inside each source, or the
        #: cluster's merge (``rank_accumulator``).  Append-only, so a
        #: document's group never changes -- the index keeps each term's
        #: split by source while reads pass this list's ``__getitem__``.
        self._sources: list[str] = [""]

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, url: str) -> bool:
        return url in self._url_to_doc

    # -- writes --------------------------------------------------------------

    def add(self, record: IngestRecord) -> int:
        existing = self._url_to_doc.get(record.url)
        if existing is not None:
            return existing
        doc_id = len(self._documents) + 1
        # Stored before its postings become searchable, so a search running
        # beside this write never ranks an id ``get()`` or ``_sources``
        # cannot resolve.
        self._documents[doc_id] = record.as_document(doc_id)
        self._sources.append(record.source)
        self._index(doc_id, record)
        self._url_to_doc[record.url] = doc_id
        return doc_id

    def _index(self, doc_id: int, record: IngestRecord) -> None:
        raise NotImplementedError

    # -- reads ---------------------------------------------------------------

    def doc_id_for_url(self, url: str) -> int | None:
        return self._url_to_doc.get(url)

    def get(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    def document_for_url(self, url: str) -> Document | None:
        doc_id = self._url_to_doc.get(url)
        return self._documents.get(doc_id) if doc_id is not None else None

    def documents(self, source: str | None = None) -> list[Document]:
        # Insertion order is ascending doc id (ids are sequential).
        docs = list(self._documents.values())
        if source is not None:
            docs = [doc for doc in docs if doc.source == source]
        return docs

    def documents_for_host(self, host: str) -> list[Document]:
        return [doc for doc in self._documents.values() if doc.host == host]

    def _records_from_terms(self, streams: Mapping[int, list[str]]) -> list[IngestRecord]:
        """Re-ingestable records from per-document token streams.

        ``streams`` is :meth:`InvertedIndex.document_terms` output (merged
        across shards): token *order* is not retained (an index keeps
        per-term counts), so each record takes its document's term-sorted
        stream as is; re-adding the records to an empty backend reproduces
        doc ids, postings and therefore rankings and scores bit for bit
        (indexing is order-insensitive by construction).
        """
        return [
            IngestRecord(
                url=doc.url,
                host=doc.host,
                title=doc.title,
                text=doc.text,
                tokens=streams[doc_id],
                source=doc.source,
                annotations=dict(doc.annotations),
            )
            for doc_id, doc in self._documents.items()
        ]

    # -- stats ---------------------------------------------------------------

    def stats(self) -> StoreStats:
        counts: dict[str, int] = {}
        for doc in self._documents.values():
            counts[doc.source] = counts.get(doc.source, 0) + 1
        return StoreStats(
            backend=self.kind,
            documents=len(self._documents),
            by_source=dict(sorted(counts.items())),
        )
