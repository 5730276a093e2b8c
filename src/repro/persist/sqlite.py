"""The on-disk content store: sqlite-backed, ranking-identical to memory.

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

Durability is batched: inserts commit every :data:`COMMIT_EVERY` documents
and on :meth:`flush` / :meth:`close` (the resume-aware surfacing
scheduler flushes after every journaled site).  BM25 parameters are
pinned in a ``meta`` table so a file cannot be reopened under scoring
parameters different from the ones its corpus was built with.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path

from repro.store.memory import InMemoryBackend
from repro.store.records import IngestRecord

#: Bumped when the on-disk layout changes incompatibly.
SQLITE_FORMAT = 1
#: Inserts buffered between commits (flush/close commit the remainder).
COMMIT_EVERY = 256
#: The ``documents`` columns of a record, in :class:`IngestRecord` field order.
_RECORD_COLUMNS = "url, host, title, text, tokens, source, annotations"


class SqliteStoreError(RuntimeError):
    """A sqlite store file that cannot be (re)opened safely."""


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
        # One writer lock; reads stay lock-free on the in-memory state
        # (same thread-safety contract as InMemoryBackend serving).
        self._write_lock = threading.Lock()
        self._pending = 0
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
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS documents ("
                "doc_id INTEGER PRIMARY KEY, url TEXT NOT NULL UNIQUE, "
                "host TEXT NOT NULL, title TEXT NOT NULL, text TEXT NOT NULL, "
                "tokens TEXT NOT NULL, source TEXT NOT NULL, "
                "annotations TEXT NOT NULL)"
            )
        expected = {
            "format": str(SQLITE_FORMAT),
            "k1": repr(float(self.k1)),
            "b": repr(float(self.b)),
        }
        stored = dict(self._connection.execute("SELECT key, value FROM meta"))
        if not stored:
            with self._connection:
                self._connection.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    sorted(expected.items()),
                )
            return
        mismatched = [
            f"{key}: file has {stored.get(key)!r}, caller wants {value!r}"
            for key, value in expected.items()
            if stored.get(key) != value
        ]
        if mismatched:
            raise SqliteStoreError(
                f"{self.path}: incompatible store file ({'; '.join(mismatched)})"
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

    def add(self, record: IngestRecord) -> int:
        with self._write_lock:
            existing = self._url_to_doc.get(record.url)
            if existing is not None:
                return existing
            doc_id = super().add(record)
            self._connection.execute(
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
            self._pending += 1
            if self._pending >= COMMIT_EVERY:
                self._connection.commit()
                self._pending = 0
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
        """Commit buffered inserts to disk."""
        with self._write_lock:
            if self._pending:
                self._connection.commit()
                self._pending = 0

    def close(self) -> None:
        """Flush and release the file handle (the backend is unusable after)."""
        with self._write_lock:
            if self._pending:
                self._connection.commit()
                self._pending = 0
            self._connection.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
