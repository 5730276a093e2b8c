"""Whole-service snapshot/restore: warm restarts with zero re-surfacing.

A snapshot is one JSON document capturing everything a
:class:`~repro.api.DeepWebService` accumulated that is expensive to
recompute; :class:`ServiceSnapshot` lists it, field for field, and
:mod:`repro.persist.codec` writes and reads it from the dataclass
definitions -- a field added to a result object round-trips without an
edit here.  Only the per-document pair :func:`encode_record` /
:func:`decode_record` is hand-written (it runs once per stored document
on every snapshot and restore): a document's tokens -- the term-sorted
stream ``export_records`` rebuilds from the postings -- are stored as
*one* space-joined string, one JSON string per document rather than per
token.  Every token in the tree comes from ``tokenize`` (``[a-z0-9]+``);
an empty token or one holding a space, which would split back
differently, is refused with :class:`SnapshotError`.  The simulated web
itself is *not* serialized: it regenerates deterministically from its
:class:`~repro.webspace.sitegen.WebConfig` (services built from an
explicit :class:`~repro.webspace.web.Web` must pass ``web=`` to
:func:`restore_service`).

The file is written to ``<name>.tmp`` and renamed over the target
(no fsync); a write or rename that fails removes the scratch file,
leaves any previous snapshot as it was and raises :class:`SnapshotError`.

Restore decodes the stored documents one at a time as the service's
shared :class:`~repro.store.ingest.Ingestor` pulls them -- no token list
outlives its own ``add``, and ingest listeners (host-term caches,
cache-generation bumps) fire exactly as live writes would -- and checks
that the sequential id assigner reproduces ids 1..N.  A document entry
of another layout is a :class:`SnapshotError`; like a failed id check,
it may be found after part of the corpus went into a caller-supplied
``store``.  A restored service answers ``search`` and ``query()``
immediately: the default (non-live) planner never probes, the harvest
bookkeeping marks the corpus settled, and the regenerated web's load
meter shows zero surfacing work (``tests/persist`` pins all of this).

The cache generation is restored *advanced by one* past the snapshotted
value, so any ranking stamped with a pre-snapshot generation can never
be served as fresh by the restored frontend -- across any number of
snapshot/restore hops, whether or not a hop ever built its frontend.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.persist.codec import decode, encode
from repro.search.crawler import CrawlStats
from repro.store.records import IngestRecord
from repro.webspace.sitegen import WebConfig, generate_web
from repro.webspace.web import Web
from repro.webtables.corpus import CorpusStats, CorpusTable, HarvestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports lazily)
    from repro.api import DeepWebService
    from repro.store.backend import StorageBackend

#: Bumped when the snapshot payload changes incompatibly (a renamed or
#: retyped field of any dataclass under :class:`ServiceSnapshot` does;
#: ``tests/persist/test_layout_guard.py`` notices; format 4 stores each
#: document's tokens as one space-joined string).
SNAPSHOT_FORMAT = 4
SNAPSHOT_KIND = "deepweb-service-snapshot"


class SnapshotError(RuntimeError):
    """A snapshot file that cannot be written or restored safely."""


@dataclass
class CorpusState:
    """The persisted attributes of a :class:`~repro.webtables.corpus.TableCorpus`."""

    tables: list[CorpusTable]
    form_schemas: list[tuple[str, ...]]
    form_values: dict[str, list[str]]
    stats: CorpusStats


@dataclass
class ServiceSnapshot:
    """The snapshot file, field for field."""

    kind: str
    format: int
    created_at: float
    web_config: WebConfig | None
    surfacing_config: SurfacingConfig
    serving: dict[str, object]
    #: The content store in doc-id order (``export_records`` through
    #: :func:`encode_record`); the AcsDb and every semantic service
    #: derive from ``corpus``.
    documents: list[object]
    results: list[SiteSurfacingResult]
    crawl: CrawlStats | None
    corpus: CorpusState | None
    harvest: HarvestState
    cache_generation: int


_RECORD_FIELDS = frozenset(spec.name for spec in fields(IngestRecord))


def encode_record(record: IngestRecord) -> dict[str, Any]:
    tokens = record.tokens
    joined = " ".join(tokens)
    # n tokens joined by n - 1 spaces: any other count means one held a space.
    if tokens and (joined.count(" ") != len(tokens) - 1 or "" in tokens):
        raise SnapshotError(
            f"{record.url}: a token is empty or holds a space, so the "
            "document's tokens cannot be stored as one space-joined string"
        )
    return {
        "url": record.url,
        "host": record.host,
        "title": record.title,
        "text": record.text,
        "tokens": joined,
        "source": record.source,
        "annotations": dict(record.annotations),
    }


def decode_record(payload: dict[str, Any]) -> IngestRecord:
    """The inverse of :func:`encode_record`; an entry of another layout
    raises ``ValueError`` / ``TypeError``, as :func:`~repro.persist.codec.decode` does."""
    if not isinstance(payload, dict):
        raise ValueError(f"IngestRecord: expected an object, got {type(payload).__name__}")
    if payload.keys() != _RECORD_FIELDS:
        raise ValueError(
            f"IngestRecord: unknown {sorted(payload.keys() - _RECORD_FIELDS)}, "
            f"missing {sorted(_RECORD_FIELDS - payload.keys())}"
        )
    tokens = payload["tokens"]
    if not isinstance(tokens, str):
        raise ValueError(
            f"IngestRecord: tokens must be one space-joined string, got {type(tokens).__name__}"
        )
    return IngestRecord(
        url=payload["url"],
        host=payload["host"],
        title=payload["title"],
        text=payload["text"],
        tokens=tokens.split(" ") if tokens else [],
        source=payload["source"],
        annotations=dict(payload["annotations"]),
    )


def _layout_error(source: Path, error: Exception) -> SnapshotError:
    return SnapshotError(f"{source}: snapshot does not match this build's layout ({error})")


def _decoded(source: Path, documents: list[object]) -> Iterator[IngestRecord]:
    """The stored documents, decoded one at a time as ingest pulls them."""
    for entry in documents:
        try:
            record = decode_record(entry)
        except (TypeError, ValueError) as error:
            raise _layout_error(source, error) from error
        yield record


# -- snapshot write ---------------------------------------------------------


def snapshot_service(service: "DeepWebService", path: str | Path) -> Path:
    """Serialize the service to ``path`` (written atomically); returns it."""
    corpus = service._corpus
    snapshot = ServiceSnapshot(
        kind=SNAPSHOT_KIND,
        format=SNAPSHOT_FORMAT,
        created_at=time.time(),
        web_config=service.web_config,
        surfacing_config=service.config,
        serving=service._serving,
        documents=[encode_record(r) for r in service.store.export_records()],
        results=service.results,
        crawl=service.crawl_stats,
        corpus=None
        if corpus is None
        else CorpusState(corpus.tables, corpus.form_schemas, corpus.form_values, corpus.stats),
        harvest=service._harvest,
        cache_generation=service.cache_generation,
    )
    try:
        text = json.dumps(encode(ServiceSnapshot, snapshot), sort_keys=True)
    except (TypeError, ValueError) as error:
        raise SnapshotError(f"snapshot payload is not serializable: {error}") from error
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch.write_text(text + "\n")
        os.replace(scratch, target)
    except OSError as error:
        with suppress(OSError):
            scratch.unlink(missing_ok=True)
        raise SnapshotError(
            f"{target}: snapshot not written ({error}); any previous snapshot is unchanged"
        ) from error
    return target


# -- snapshot restore -------------------------------------------------------


def restore_service(
    path: str | Path,
    web: Web | None = None,
    store: "StorageBackend | None" = None,
) -> "DeepWebService":
    """Rebuild a service from a snapshot; see :meth:`DeepWebService.restore`."""
    from repro.api import DeepWebService

    source = Path(path)
    try:
        payload = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SnapshotError(f"{source}: unreadable snapshot ({error})") from error
    if not isinstance(payload, dict) or payload.get("kind") != SNAPSHOT_KIND:
        raise SnapshotError(f"{source}: not a service snapshot")
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{source}: snapshot format {payload.get('format')!r} is not "
            f"supported (this build reads format {SNAPSHOT_FORMAT})"
        )
    try:
        snapshot: ServiceSnapshot = decode(ServiceSnapshot, payload)
    except (TypeError, ValueError) as error:
        raise _layout_error(source, error) from error

    if web is None:
        if snapshot.web_config is None:
            raise SnapshotError(
                f"{source}: snapshot was taken from an explicit Web (no "
                "WebConfig recorded); pass web= to restore against it"
            )
        web = generate_web(snapshot.web_config)

    builder = DeepWebService.build().web(web).surfacing(snapshot.surfacing_config)
    if store is not None:
        builder = builder.store(store)
    if snapshot.serving:
        builder = builder.serving(**snapshot.serving)
    service = builder.create()
    service.web_config = snapshot.web_config

    # Replay the corpus through the shared ingestor (listeners fire as on
    # live writes).  A fresh store must reproduce ids 1..N; a caller-
    # supplied store already holding the corpus (e.g. the reopened sqlite
    # file) dedups by URL onto those same ids -- and must hold nothing else.
    ids = service.engine.ingest_records(_decoded(source, snapshot.documents))
    if ids != list(range(1, len(ids) + 1)) or len(service.store) != len(ids):
        raise SnapshotError(
            f"{source}: restored store did not reproduce snapshot doc ids "
            "(restore needs an empty store, or one holding exactly this corpus)"
        )

    service.results = snapshot.results
    service.crawl_stats = snapshot.crawl
    if snapshot.corpus is not None:
        corpus = service.corpus  # created wired to the shared ingestor
        corpus.tables = snapshot.corpus.tables
        corpus.form_schemas = snapshot.corpus.form_schemas
        corpus.form_values = snapshot.corpus.form_values
        corpus.stats = snapshot.corpus.stats
    service._harvest = snapshot.harvest
    # The restored frontend's cache starts past every generation the
    # snapshotted process stamped (applied when a frontend is built --
    # see DeepWebService.frontend).
    service._cache_generation_floor = snapshot.cache_generation + 1
    service._restored_from = source
    service._snapshot_path = source
    service._snapshot_created_at = snapshot.created_at
    return service
