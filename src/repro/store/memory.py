"""The single-process backend: one inverted index over the shared catalog.

Sequential doc ids starting at 1 and URL-keyed deduplication come from
:class:`~repro.store.backend.DocumentCatalog`; this class adds one
:class:`~repro.search.inverted_index.InvertedIndex` over every token
stream, so seeded runs produce byte-identical doc ids, rankings and
report renderings to the pre-store code
(``tests/store/test_store_equivalence.py`` pins this).
"""

from __future__ import annotations

from typing import Sequence

from repro.search.inverted_index import InvertedIndex
from repro.store.backend import DocumentCatalog
from repro.store.records import IngestRecord


class InMemoryBackend(DocumentCatalog):
    """Default storage: everything in dicts, scored by one global index."""

    kind = "memory"

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        super().__init__()
        self.k1 = k1
        self.b = b
        self.index = InvertedIndex(k1=k1, b=b)

    def _index(self, doc_id: int, record: IngestRecord) -> None:
        self.index.add_document(doc_id, record.tokens)

    def export_records(self) -> list[IngestRecord]:
        """The stored corpus as re-ingestable records, term-sorted streams."""
        return self._records_from_terms(self.index.document_terms())

    def search(
        self,
        query_tokens: Sequence[str],
        limit: int | None = None,
        per_source: bool = False,
    ) -> list[tuple[int, float]]:
        return self.index.score(
            query_tokens, limit=limit, group=self._source_of if per_source else None
        )
