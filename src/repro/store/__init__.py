"""The unified content store: one ingestion + storage layer.

The paper frames surfacing, virtual integration and WebTables as
complementary routes into *one* searchable index.  This package is that
index's storage layer:

* :mod:`repro.store.records` -- the :class:`IngestRecord` write model,
  the stored :class:`Document`, and the canonical ``source`` tags;
* :mod:`repro.store.ingest` -- the :class:`Ingestor` write-path seam all
  content layers produce through;
* :mod:`repro.store.backend` -- :class:`StorageBackend`, the base class
  every backend subclasses (documents, URL dedup, doc ids);
* :mod:`repro.store.memory` -- :class:`InMemoryBackend`, byte-identical
  to the storage that used to live inside ``SearchEngine``.

The hash-partitioned, replicated backend is
:class:`repro.cluster.ClusterBackend`; it reproduces the global ranking
exactly.
"""

from repro.store.backend import StorageBackend, StoreStats
from repro.store.ingest import IngestListener, Ingestor
from repro.store.memory import InMemoryBackend
from repro.store.records import (
    DEEP_WEB_SOURCES,
    SOURCE_DEEP_CRAWLED,
    SOURCE_SURFACE,
    SOURCE_SURFACED,
    SOURCE_VERTICAL,
    SOURCE_WEBTABLE,
    Document,
    IngestRecord,
)

__all__ = [
    "Document",
    "IngestRecord",
    "Ingestor",
    "IngestListener",
    "StorageBackend",
    "StoreStats",
    "InMemoryBackend",
    "SOURCE_SURFACE",
    "SOURCE_DEEP_CRAWLED",
    "SOURCE_SURFACED",
    "SOURCE_VERTICAL",
    "SOURCE_WEBTABLE",
    "DEEP_WEB_SOURCES",
]
