"""The one file of a persisted service: its documents and its resume record.

:class:`SqliteBackend` is a write-through durable backend: every accepted
record is appended to a sqlite ``documents`` table (stdlib ``sqlite3``,
no new dependency) *and* indexed by the inherited
:class:`~repro.store.memory.InMemoryBackend` machinery, which keeps
serving every read.  Rankings, scores and doc ids are therefore
bit-identical to the in-memory default by construction -- the inverted
index is literally the same object
(``tests/store/test_property_equivalence.py`` pins this op for op).

Reopening the file replays the stored rows, in doc-id order, through the
in-memory ``add`` path; the stored ids must come back out of the
sequential assigner unchanged (ids are contiguous from 1), otherwise the
file is corrupt and opening raises :class:`SqliteStoreError` instead of
silently renumbering a corpus.

The same file is the surfacing resume record.  A ``sites`` table holds
one row per completed site, in completion order: its host and its
:class:`~repro.core.surfacer.SiteSurfacingResult`, written by
:mod:`repro.persist.codec`.  :meth:`SqliteBackend.commit_site` commits a
site's documents and its row in one transaction, so the file holds
either both or neither, and :meth:`SqliteBackend.bind_config` pins the
surfacing configuration the rows were produced under.

Writes commit at the end of each site and on :meth:`~SqliteBackend.flush`
/ :meth:`~SqliteBackend.close`; outside ``persist()``'s per-site commits
(a store passed through ``.store(...)``, direct use) durability is at
``flush()`` / ``close()`` only.  A write that fails rolls back what is
pending and retires the backend: the in-memory index may then hold
documents the file does not, so every later write, flush and resume
lookup raises :class:`SqliteStoreError` until the file is reopened.
The format and the BM25 parameters are
pinned in a ``meta`` table so a file cannot be reopened by a build that
lays it out differently, or under scoring parameters different from the
ones its corpus was built with.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.persist.codec import decode, encode
from repro.store.memory import InMemoryBackend
from repro.store.records import IngestRecord

#: Bumped when the on-disk layout changes incompatibly (a renamed or
#: retyped field under :class:`SiteSurfacingResult` does;
#: ``tests/persist/test_layout_guard.py`` notices).
SQLITE_FORMAT = 2
#: The ``documents`` columns of a record, in :class:`IngestRecord` field order.
_RECORD_COLUMNS = "url, host, title, text, tokens, source, annotations"


class SqliteStoreError(RuntimeError):
    """A sqlite store file that cannot be (re)opened or resumed safely."""


def _record_from_row(url, host, title, text, tokens, source, annotations) -> IngestRecord:
    """One ``documents`` row, selected as :data:`_RECORD_COLUMNS`, as a record."""
    return IngestRecord(url, host, title, text, json.loads(tokens), source, json.loads(annotations))


class SqliteBackend(InMemoryBackend):
    """Durable :class:`~repro.store.backend.StorageBackend` over one sqlite file."""

    kind = "sqlite"

    def __init__(self, path: str | Path, k1: float = 1.5, b: float = 0.75) -> None:
        super().__init__(k1=k1, b=b)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One lock around the connection; index reads stay lock-free on the
        # in-memory state (same thread-safety contract as InMemoryBackend).
        self._lock = threading.Lock()
        self._failed = False
        self._connection = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            self._init_schema()
            self._load()
        except BaseException:
            self._connection.close()
            raise

    # -- file lifecycle ------------------------------------------------------

    def _init_schema(self) -> None:
        with self._connection:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
        expected = {
            "format": str(SQLITE_FORMAT),
            "k1": repr(float(self.k1)),
            "b": repr(float(self.b)),
        }
        stored = dict(self._connection.execute("SELECT key, value FROM meta"))
        mismatched = [
            f"{key}: file has {stored.get(key)!r}, caller wants {value!r}"
            for key, value in expected.items()
            if stored and stored.get(key) != value
        ]
        if mismatched:
            raise SqliteStoreError(
                f"{self.path}: incompatible store file ({'; '.join(mismatched)})"
            )
        with self._connection:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS documents ("
                "doc_id INTEGER PRIMARY KEY, url TEXT NOT NULL UNIQUE, "
                "host TEXT NOT NULL, title TEXT NOT NULL, text TEXT NOT NULL, "
                "tokens TEXT NOT NULL, source TEXT NOT NULL, "
                "annotations TEXT NOT NULL)"
            )
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS sites ("
                "seq INTEGER PRIMARY KEY, host TEXT NOT NULL UNIQUE, "
                "result TEXT NOT NULL)"
            )
            if not stored:
                self._connection.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    sorted(expected.items()),
                )

    def _load(self) -> None:
        """Replay stored rows through the in-memory add path, id-checked."""
        rows = self._connection.execute(
            f"SELECT doc_id, {_RECORD_COLUMNS} FROM documents ORDER BY doc_id"
        )
        for doc_id, *row in rows:
            assigned = super().add(_record_from_row(*row))
            if assigned != doc_id:
                raise SqliteStoreError(
                    f"{self.path}: stored doc ids are not contiguous "
                    f"(row {doc_id} replayed as {assigned})"
                )

    # -- writes --------------------------------------------------------------

    @contextmanager
    def _guarded(self) -> Iterator[sqlite3.Connection]:
        """Hold the lock for one use of the file: refused once the backend
        is retired, and retiring it if the use raises."""
        with self._lock:
            if self._failed:
                raise SqliteStoreError(
                    f"{self.path}: an earlier write failed and was rolled back; "
                    "reopen the file to resume"
                )
            try:
                yield self._connection
            except BaseException:
                self._retire()
                raise

    def _retire(self) -> None:
        """Roll back pending writes and refuse every later use (lock held)."""
        self._failed = True
        self._connection.rollback()

    def add(self, record: IngestRecord) -> int:
        with self._guarded() as connection:
            existing = self._url_to_doc.get(record.url)
            if existing is not None:
                return existing
            doc_id = super().add(record)
            connection.execute(
                f"INSERT INTO documents (doc_id, {_RECORD_COLUMNS}) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    doc_id,
                    record.url,
                    record.host,
                    record.title,
                    record.text,
                    json.dumps(list(record.tokens)),
                    record.source,
                    json.dumps(dict(record.annotations), sort_keys=True),
                ),
            )
            return doc_id

    def export_records(self) -> list[IngestRecord]:
        """Exact stored token streams, ascending doc id.

        Overrides the index-reconstruction in the base class: the sqlite
        rows keep the original order, so exports round-trip verbatim.
        """
        self.flush()
        rows = self._connection.execute(
            f"SELECT {_RECORD_COLUMNS} FROM documents ORDER BY doc_id"
        )
        return [_record_from_row(*row) for row in rows]

    def flush(self) -> None:
        """Commit pending writes to disk."""
        with self._guarded() as connection:
            connection.commit()

    def close(self) -> None:
        """Flush and release the file handle (the backend is unusable after)."""
        with self._lock:
            self._connection.commit()
            self._connection.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the resume record ---------------------------------------------------

    def bind_config(self, config: SurfacingConfig) -> None:
        """Bind the completed sites to one surfacing configuration.

        The first call on a fresh file records it; later calls (and
        reopened files) must present the same configuration, or the
        stored sites would not be what a clean run under it produces.
        """
        encoded = json.dumps(encode(SurfacingConfig, config), sort_keys=True)
        with self._guarded() as connection:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'surfacing_config'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('surfacing_config', ?)",
                    (encoded,),
                )
                connection.commit()
        # Refused outside the guard: a drifted config is the caller's
        # mistake, not a failed write, and must not retire the store.
        if row is not None and row[0] != encoded:
            raise SqliteStoreError(
                f"{self.path}: sites were surfaced under a different "
                "surfacing configuration; resume with the original config "
                "or start from a fresh directory"
            )

    @property
    def completed_sites(self) -> int:
        """How many sites have a stored (completed) surfacing result."""
        with self._lock:
            return self._connection.execute("SELECT COUNT(*) FROM sites").fetchone()[0]

    def site_result(self, host: str) -> SiteSurfacingResult | None:
        """The stored result of a completed site, or ``None``."""
        with self._guarded() as connection:
            row = connection.execute(
                "SELECT result FROM sites WHERE host = ?", (host,)
            ).fetchone()
        if row is None:
            return None
        try:
            return decode(SiteSurfacingResult, json.loads(row[0]))
        except (TypeError, ValueError) as error:
            raise SqliteStoreError(
                f"{self.path}: site {host!r} does not match this build's "
                f"result layout ({error})"
            ) from error

    @contextmanager
    def commit_site(self, host: str, result: SiteSurfacingResult) -> Iterator[None]:
        """Write one completed site in one transaction.

        Commits what is pending, runs the body (which ingests the site's
        documents), then inserts the site's row and commits the two
        together.  If anything in between raises, the transaction rolls
        back and the file holds nothing of the site.  The in-memory index
        keeps what the body added, so the backend retires: every later
        write, flush and resume lookup raises until the file is reopened.
        """
        self.flush()
        try:
            yield
            payload = json.dumps(encode(SiteSurfacingResult, result), sort_keys=True)
            with self._guarded() as connection:
                connection.execute(
                    "INSERT INTO sites (host, result) VALUES (?, ?)", (host, payload)
                )
                connection.commit()
        except BaseException:
            with self._lock:
                self._retire()
            raise
