"""The durable persistence tier: on-disk storage, snapshots, and resume.

Everything the reproduction builds -- the surfaced index, the WebTables
corpus (and therefore the AcsDb), crawl output -- used to live in RAM and
die with the process.  This package gives the service a lifecycle:

* :mod:`repro.persist.sqlite` -- :class:`SqliteBackend`, an on-disk
  :class:`~repro.store.backend.StorageBackend` whose rankings, scores
  and doc ids are bit-identical to the in-memory default (write-through:
  sqlite rows for durability, the inherited inverted index for reads).
  The same file is the surfacing resume record: under ``persist()``
  each site is surfaced straight into the store inside one transaction
  that also writes its row, so an interrupted ``surface_many`` continues
  where it stopped and still produces the same final output as an
  uninterrupted run.  An exception anywhere inside a site rolls that
  site off disk and retires the store until the file is reopened;
* :mod:`repro.persist.snapshot` -- whole-service snapshot/restore, so a
  warm restart serves queries immediately with zero re-surfacing.

Snapshot and store share one internal, type-driven codec
(:mod:`repro.persist.codec`): the persisted dataclasses are the on-disk
layout, and ``tests/persist/test_layout_guard.py`` ties that layout to
the two format numbers.

The facade wires both through ``DeepWebService.build().persist(dir)``
(``store.sqlite3`` plus the default ``snapshot.json`` under one
directory), plus ``service.snapshot()`` / ``DeepWebService.restore(path)``.
"""

from repro.persist.snapshot import SnapshotError, restore_service, snapshot_service
from repro.persist.sqlite import SqliteBackend, SqliteStoreError

__all__ = [
    "SqliteBackend",
    "SqliteStoreError",
    "SnapshotError",
    "snapshot_service",
    "restore_service",
]
