"""The single-process backend: one inverted index over the shared catalog.

Sequential doc ids starting at 1 and URL-keyed deduplication come from
:class:`~repro.store.backend.StorageBackend`; this class adds one
:class:`~repro.search.inverted_index.InvertedIndex` over every token
stream, so seeded runs produce byte-identical doc ids, rankings and
report renderings to the pre-store code
(``tests/store/test_store_equivalence.py`` pins this).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.search.inverted_index import InvertedIndex
from repro.store.backend import StorageBackend, records_from_terms
from repro.store.records import Document, IngestRecord


class InMemoryBackend(StorageBackend):
    """Default storage: everything in dicts, scored by one global index."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self.index = InvertedIndex()

    def _index(self, doc_id: int, record: IngestRecord) -> None:
        self.index.add_document(doc_id, record.tokens)

    def export_records(self) -> list[IngestRecord]:
        """The stored corpus as re-ingestable records, term-sorted streams."""
        return records_from_terms(self._documents.values(), self.index.document_terms())

    def dump_index(self) -> tuple[list[int], list[tuple[str, bytes, bytes]]]:
        lengths, postings = self.index.dump()
        return list(lengths.values()), postings

    def load(
        self,
        documents: Sequence[Document],
        lengths: Sequence[int],
        postings: Iterable[tuple[str, bytes, bytes]],
    ) -> None:
        """Fill this empty backend with a dump, without re-indexing:
        ``documents`` with doc ids 1..N in order (the caller checks them;
        a snapshot restore reads them so), their ``lengths`` and each
        term's postings (:meth:`dump_index`).  The catalog keys, the URL
        map and the index share each document's ``doc_id`` int object, as
        :meth:`add` leaves them.  A repeated URL, or postings the index
        refuses (:meth:`~repro.search.inverted_index.InvertedIndex.load`),
        is a ``ValueError`` before anything is stored.  No ingest listener
        hears of the documents."""
        if self._documents:
            raise ValueError("only an empty backend can be loaded")
        doc_ids = [document.doc_id for document in documents]
        url_to_doc = {document.url: document.doc_id for document in documents}
        if len(url_to_doc) != len(documents):
            raise ValueError(f"{len(documents) - len(url_to_doc)} stored URLs repeat")
        self.index.load(doc_ids, lengths, postings)
        self._documents.update(zip(doc_ids, documents))
        self._sources.extend(document.source for document in documents)
        self._url_to_doc.update(url_to_doc)

    def search(
        self,
        query_tokens: Sequence[str],
        limit: int | None = None,
        per_source: bool = False,
    ) -> list[tuple[int, float]]:
        return self.index.score(
            query_tokens, limit=limit, group=self._sources.__getitem__ if per_source else None
        )
