"""The durable tier's one container: a sqlite file and what reads and writes it.

Every file the tier writes -- the ``persist()`` store and a service
snapshot -- has the same three tables: ``meta`` (key/value rows),
``documents`` (one row per stored document, keyed by doc id) and
``sites`` (one :class:`~repro.core.surfacer.SiteSurfacingResult` per
completed site, in completion order, written by
:mod:`repro.persist.codec`).  Four ``meta`` rows pin what the file is:
its ``kind`` (``store`` or ``snapshot``, and each opener refuses the
other's), the format, and the BM25 ``k1`` / ``b`` its corpus was scored
under.  :func:`record_row` / :func:`read_records` are the one document
row encoding: a document's tokens are stored as *one* space-joined
string.  Every token in the tree comes from ``tokenize`` (``[a-z0-9]+``);
an empty token or one holding a space, which would split back
differently, is refused.

:class:`SqliteBackend` is a write-through durable backend: every accepted
record is appended to ``documents`` *and* indexed by the inherited
:class:`~repro.store.memory.InMemoryBackend` machinery, which keeps
serving every read.  Rankings, scores and doc ids are therefore
bit-identical to the in-memory default by construction -- the inverted
index is literally the same object
(``tests/store/test_property_equivalence.py`` pins this op for op).
Reopening the file replays the stored rows, in doc-id order, through the
in-memory ``add`` path; the stored ids must run 1..N, otherwise the file
is corrupt and opening raises :class:`SqliteStoreError` instead of
silently renumbering a corpus.

The same file is the surfacing resume record.
:meth:`SqliteBackend.commit_site` runs a site's surfacing -- which
writes its documents straight into this store -- and inserts its
``sites`` row in one transaction, so the file holds either both or
neither, and :meth:`SqliteBackend.bind_config` pins the surfacing
configuration the rows were produced under.  Nothing commits inside that
transaction: :meth:`~SqliteBackend.export_records` reads the pending
rows through the same connection instead of flushing them.

Writes commit at the end of each site and on :meth:`~SqliteBackend.flush`
/ :meth:`~SqliteBackend.close`; outside ``persist()``'s per-site commits
(a store passed through ``.store(...)``, direct use) durability is at
``flush()`` / ``close()`` only.  A write that fails, or an exception
anywhere inside a site's transaction, rolls back what is pending and
retires the backend: the in-memory index may then hold documents the
file does not, so every later write, flush and resume lookup raises
:class:`SqliteStoreError` until the file is reopened.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.persist.codec import decode, encode
from repro.store.memory import InMemoryBackend
from repro.store.records import IngestRecord

#: Bumped when the file layout changes incompatibly: the tables, the
#: document row encoding, or a renamed or retyped field of a persisted
#: dataclass (``tests/persist/test_layout_guard.py`` notices; format 3
#: made the snapshot a file of this layout and joined tokens by spaces).
SQLITE_FORMAT = 3
_SCHEMA = (
    "CREATE TABLE documents (doc_id INTEGER PRIMARY KEY, url TEXT NOT NULL UNIQUE, "
    "host TEXT NOT NULL, title TEXT NOT NULL, text TEXT NOT NULL, tokens TEXT NOT NULL, "
    "source TEXT NOT NULL, annotations TEXT NOT NULL)",
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE sites (seq INTEGER PRIMARY KEY, host TEXT NOT NULL, result TEXT NOT NULL)",
)
INSERT_DOCUMENT = "INSERT INTO documents VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
INSERT_META = "INSERT INTO meta (key, value) VALUES (?, ?)"
INSERT_SITE = "INSERT INTO sites (host, result) VALUES (?, ?)"


class SqliteStoreError(RuntimeError):
    """A sqlite store file that cannot be (re)opened or resumed safely."""


def pins(kind: str, k1: float, b: float) -> dict[str, str]:
    """The ``meta`` rows that say what a file is, as a ``kind`` file scored
    under ``k1`` / ``b`` must carry them."""
    return {"kind": kind, "format": str(SQLITE_FORMAT), "k1": repr(float(k1)), "b": repr(float(b))}


def create_schema(connection: sqlite3.Connection, pinned: dict[str, str]) -> None:
    for statement in _SCHEMA:
        connection.execute(statement)
    connection.executemany(INSERT_META, sorted(pinned.items()))


def mismatches(connection: sqlite3.Connection, pinned: dict[str, str]) -> list[str]:
    """How the file differs from ``pinned`` and from this build's tables."""
    stored = dict(connection.execute("SELECT key, value FROM meta"))
    found = [
        f"{key}: file has {stored.get(key)!r}, caller wants {value!r}"
        for key, value in pinned.items()
        if stored.get(key) != value
    ]
    tables = connection.execute("SELECT sql FROM sqlite_master WHERE type = 'table' ORDER BY name")
    if [sql for (sql,) in tables] != list(_SCHEMA):
        found.append("tables: not the ones this build writes")
    return found


def record_row(record: IngestRecord) -> tuple:
    """``record`` as its ``documents`` columns after ``doc_id``; a token
    that would not split back out of the joined string is a ``ValueError``."""
    tokens = record.tokens
    joined = " ".join(tokens)
    # n tokens joined by n - 1 spaces: any other count means one held a space.
    if tokens and (joined.count(" ") != len(tokens) - 1 or "" in tokens):
        raise ValueError(
            f"{record.url}: a token is empty or holds a space, so the "
            "document's tokens cannot be stored as one space-joined string"
        )
    annotations = json.dumps(dict(record.annotations), sort_keys=True)
    return record.url, record.host, record.title, record.text, joined, record.source, annotations


def read_records(connection: sqlite3.Connection) -> Iterator[IngestRecord]:
    """The ``documents`` rows in doc-id order, decoded one at a time as the
    caller pulls them; a row of another layout, or doc ids that do not run
    1..N, raise ``ValueError`` / ``TypeError``."""
    rows = connection.execute("SELECT * FROM documents ORDER BY doc_id")
    for expected, (doc_id, url, host, title, text, tokens, source, annotations) in enumerate(rows, 1):
        if doc_id != expected:
            raise ValueError(f"stored doc ids are not contiguous (row {doc_id} is number {expected})")
        if not isinstance(tokens, str):
            raise ValueError(f"tokens must be one space-joined string, got {type(tokens).__name__}")
        tokens = tokens.split(" ") if tokens else []
        yield IngestRecord(url, host, title, text, tokens, source, dict(json.loads(annotations)))


def site_payload(result: SiteSurfacingResult) -> str:
    """A ``sites`` row's ``result`` column."""
    return json.dumps(encode(SiteSurfacingResult, result), sort_keys=True)


def read_site(payload: str) -> SiteSurfacingResult:
    """The inverse of :func:`site_payload`; a payload of another layout
    raises ``ValueError`` / ``TypeError``."""
    return decode(SiteSurfacingResult, json.loads(payload))


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
            pinned = pins("store", k1, b)
            with self._connection:
                if not self._connection.execute("SELECT 1 FROM sqlite_master").fetchone():
                    create_schema(self._connection, pinned)
            mismatched = mismatches(self._connection, pinned)
            if mismatched:
                raise SqliteStoreError(
                    f"{self.path}: incompatible store file ({'; '.join(mismatched)})"
                )
            try:
                for record in read_records(self._connection):
                    super().add(record)
            except (TypeError, ValueError) as error:
                raise SqliteStoreError(f"{self.path}: unreadable document row ({error})") from error
        except BaseException as error:
            self._connection.close()
            if isinstance(error, sqlite3.DatabaseError):
                raise SqliteStoreError(f"{self.path}: unreadable store file ({error})") from error
            raise

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
        # Encoded first: a token the row cannot hold is refused before the
        # record reaches the index, and does not retire the store.
        row = record_row(record)
        with self._guarded() as connection:
            existing = self._url_to_doc.get(record.url)
            if existing is not None:
                return existing
            doc_id = super().add(record)
            connection.execute(INSERT_DOCUMENT, (doc_id, *row))
            return doc_id

    def export_records(self) -> list[IngestRecord]:
        """Exact stored token streams, ascending doc id.

        Overrides the index-reconstruction in the base class: the sqlite
        rows keep the original order, so exports round-trip verbatim.
        The read goes through the writing connection, so it sees pending
        writes without committing them (it may run inside a site's
        transaction).
        """
        with self._guarded() as connection:
            return list(read_records(connection))

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
                connection.execute(INSERT_META, ("surfacing_config", encoded))
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
            return read_site(row[0])
        except (TypeError, ValueError) as error:
            raise SqliteStoreError(
                f"{self.path}: site {host!r} does not match this build's "
                f"result layout ({error})"
            ) from error

    def commit_site(
        self, host: str, surface: Callable[[], SiteSurfacingResult]
    ) -> SiteSurfacingResult:
        """Surface one site and write it in one transaction.

        Commits what is pending, calls ``surface`` (which indexes the
        site's documents straight into this store), then inserts the
        site's row and commits the two together.  If anything in between
        raises, the transaction rolls back and the file holds nothing of
        the site.  The in-memory index keeps what ``surface`` added, so
        the backend retires: every later write, flush and resume lookup
        raises until the file is reopened.
        """
        self.flush()
        try:
            result = surface()
            payload = site_payload(result)
            with self._guarded() as connection:
                connection.execute(INSERT_SITE, (host, payload))
                connection.commit()
        except BaseException:
            with self._lock:
                self._retire()
            raise
        return result
