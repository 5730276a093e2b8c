"""The storage seam: the one base class every content-store backend subclasses.

A backend owns document storage *and* the posting lists over the token
streams it was given; the :class:`~repro.search.engine.SearchEngine`,
the surfacing pipeline, the virtual-integration registry and the table
corpus all write through an :class:`~repro.store.ingest.Ingestor` and
read through :class:`StorageBackend`'s methods, so swapping the backend
(in-memory, sqlite, or the replicated cluster) never touches a content
layer.  The base class keeps the documents, the URL -> doc-id map and
id assignment; a backend only says how it indexes and searches token
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.store.records import Document, IngestRecord


def records_from_terms(
    documents: Iterable[Document], streams: dict[int, list[str]]
) -> list[IngestRecord]:
    """Re-ingestable records of ``documents``, each with its term-sorted
    stream from ``streams`` (:meth:`InvertedIndex.document_terms` output,
    merged across shards).  Indexing reads only term counts and stream
    lengths, so re-adding the records to an empty backend reproduces doc
    ids, postings, rankings and scores bit for bit."""
    return [
        IngestRecord(doc.url, doc.host, doc.title, doc.text, streams[doc.doc_id], doc.source,
                     dict(doc.annotations))
        for doc in documents
    ]


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


class StorageBackend:
    """Document + postings storage behind the unified content store.

    This class holds the documents, the URL -> doc-id map and id
    assignment: ids run from 1 in ingestion order, and re-adding a URL
    returns its existing id.  A subclass provides ``kind``, and:

    * ``_index(doc_id, record)``: index one new document's tokens (called
      after the document is stored, so every id a search ranks resolves);
    * ``search(query_tokens, limit=None, per_source=False)``: BM25-ranked
      ``(doc_id, score)`` pairs, descending score then ascending id, the
      best ``limit`` -- or, with ``per_source``, every match among the
      ``limit`` best of its source tag, in global rank order, so the
      federated read applies per-source floors without ranking every match;
    * ``export_records()``: the corpus as re-ingestable records, ascending
      doc id, with term-sorted token streams (:func:`records_from_terms`);
    * ``dump_index()``: the postings as a snapshot stores them (each
      document's length, ascending doc id, and per term its doc ids and
      frequencies: :meth:`~repro.search.inverted_index.InvertedIndex.dump`).
      Loading it (:meth:`~repro.store.memory.InMemoryBackend.load`) and
      re-adding ``export_records()`` build the same index.
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

    def documents(self, source: str | None = None) -> list[Document]:
        # Insertion order is ascending doc id (ids are sequential).
        docs = list(self._documents.values())
        if source is not None:
            docs = [doc for doc in docs if doc.source == source]
        return docs

    def documents_for_host(self, host: str) -> list[Document]:
        return [doc for doc in self._documents.values() if doc.host == host]

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
