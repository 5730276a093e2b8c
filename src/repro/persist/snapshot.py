"""Whole-service snapshot/restore: warm restarts with zero re-surfacing.

A snapshot is a standalone sqlite file in the store's own layout
(:mod:`repro.persist.sqlite`), its ``kind`` pinned to ``snapshot``: the
content store goes into ``documents`` (one row per document, tokens
left empty) and ``postings`` (the index itself, one row per term, from
the store's ``dump_index``), the surfacing results into ``sites``, and
the rest of what a :class:`~repro.api.DeepWebService` accumulated that
is expensive to recompute into ``meta``, one row per field of
:class:`ServiceSnapshot`, written by :mod:`repro.persist.codec` from the
dataclass definitions -- a field added to a result object round-trips
without an edit here.  The simulated web is *not* serialized: its site
list is regenerated from its :class:`~repro.webspace.sitegen.WebConfig`;
each site's database is built on first fetch, so a restore that fetches
nothing builds none (services built from an explicit
:class:`~repro.webspace.web.Web` pass ``web=``).  The snapshot pins the
world it was taken over (:func:`world_digest`), and a restore refuses a
web whose site list differs.

The file is written to ``<name>.tmp`` (journal and sync off, no fsync)
and renamed over the target; a failure at any step removes the scratch
file, leaves any previous snapshot as it was and raises
:class:`SnapshotError`.

Every restore loads the index into the builder's fresh in-memory store
instead of re-indexing: the documents fill its catalog and the postings
and lengths its :class:`~repro.search.inverted_index.InvertedIndex`
(:meth:`~repro.store.memory.InMemoryBackend.load`, which refuses doc ids
that do not run 1..N, a repeated URL and postings no indexing could
leave).  That bypasses the ingestor, and skips no listener with state:
at restore time the engine's host-term cache is empty, and neither the
serving frontend nor the table corpus exists yet.  A file pinned to
other BM25 parameters, and a row or ``meta`` entry of another layout,
is a :class:`SnapshotError`.  A restored service answers ``search`` and
``query()`` immediately: the default (non-live) planner never probes,
the harvest bookkeeping marks the corpus settled, and the regenerated
web's load meter shows zero surfacing work (``tests/persist`` pins all
of this).

The cache generation is restored *advanced by one* past the snapshotted
value, so any ranking stamped with a pre-snapshot generation can never
be served as fresh by the restored frontend -- across any number of
snapshot/restore hops, whether or not a hop ever built its frontend.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import closing, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.surfacer import SurfacingConfig
from repro.persist.codec import decode, encode
from repro.persist.sqlite import (
    INSERT_DOCUMENT, INSERT_META, INSERT_POSTINGS, INSERT_SITE, SQLITE_FORMAT, create_schema,
    document_row, mismatches, pins, read_documents, read_site, site_payload,
)
from repro.search.crawler import CrawlStats
from repro.webspace.site import DeepWebSite
from repro.webspace.sitegen import WebConfig, generate_web
from repro.webspace.surface_site import SurfaceSite
from repro.webspace.web import Web
from repro.webtables.corpus import CorpusStats, CorpusTable, HarvestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports lazily)
    from repro.api import DeepWebService


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
    """A snapshot's ``meta`` rows beside the pins, field for field; the
    AcsDb and every semantic service derive from ``corpus``."""

    created_at: float
    web_config: WebConfig | None
    #: :func:`world_digest` of the web the service ran over.
    world: str
    surfacing_config: SurfacingConfig
    serving: dict[str, object]
    crawl: CrawlStats | None
    corpus: CorpusState | None
    harvest: HarvestState
    cache_generation: int


#: The ``meta`` keys that say what the file is; every other row is a field.
PINNED = frozenset(pins("snapshot"))


def _layout_error(source: Path, error: object) -> SnapshotError:
    return SnapshotError(f"{source}: snapshot does not match this build's layout ({error})")


def world_digest(web: Web) -> str:
    """A digest of ``web``'s site list: kind and host per site, in
    registration order, and for the generated kinds also ``size()`` and a
    deep site's form method -- all inputs its generator fixed, so no
    site's database is built to read them.  Any other site contributes
    what the :class:`~repro.webspace.web.Site` protocol guarantees."""
    lines = []
    for site in web.sites():
        line = f"{site.kind} {site.host}"
        if isinstance(site, (SurfaceSite, DeepWebSite)):
            line += f" {site.size()}"
        if isinstance(site, DeepWebSite):
            line += f" {site.method}"
        lines.append(line)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# -- snapshot write ---------------------------------------------------------


def snapshot_service(service: "DeepWebService", path: str | Path) -> Path:
    """Write the service to ``path`` (atomically); returns it."""
    corpus = service._corpus
    target = Path(path)
    scratch = target.with_name(target.name + ".tmp")
    try:
        snapshot = ServiceSnapshot(
            created_at=time.time(),
            web_config=service.web_config,
            world=world_digest(service.web),
            surfacing_config=service.config,
            serving=service._serving,
            crawl=service.crawl_stats,
            corpus=None
            if corpus is None
            else CorpusState(corpus.tables, corpus.form_schemas, corpus.form_values, corpus.stats),
            harvest=service._harvest,
            cache_generation=service.cache_generation,
        )
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch.unlink(missing_ok=True)
        with closing(sqlite3.connect(scratch)) as connection:
            connection.execute("PRAGMA journal_mode = OFF")
            connection.execute("PRAGMA synchronous = OFF")
            create_schema(connection, pins("snapshot"))
            lengths, postings = service.store.dump_index()
            # Ascending doc id: the dump's documents are the first ones.
            documents = service.store.documents()[: len(lengths)]
            connection.executemany(INSERT_DOCUMENT, map(document_row, documents, lengths))
            connection.executemany(INSERT_POSTINGS, postings)
            connection.executemany(INSERT_SITE, ((r.host, site_payload(r)) for r in service.results))
            connection.executemany(
                INSERT_META,
                ((key, json.dumps(value, sort_keys=True))
                 for key, value in encode(ServiceSnapshot, snapshot).items()),
            )
            connection.commit()
        os.replace(scratch, target)
    except (OSError, sqlite3.Error, TypeError, ValueError) as error:
        with suppress(OSError):
            scratch.unlink(missing_ok=True)
        raise SnapshotError(
            f"{target}: snapshot not written ({error}); any previous snapshot is unchanged"
        ) from error
    # The writer ages its snapshot from the file's stamp, as a restore does.
    service._snapshot_path = target
    service._snapshot_created_at = snapshot.created_at
    return target


# -- snapshot restore -------------------------------------------------------


def _open(source: Path) -> tuple[sqlite3.Connection, dict[str, str]]:
    """A read-only connection to the snapshot file, and its ``meta`` rows."""
    connection = None
    try:
        connection = sqlite3.connect(f"{source.resolve().as_uri()}?mode=ro", uri=True)
        return connection, dict(connection.execute("SELECT key, value FROM meta"))
    except sqlite3.Error as error:
        if connection is not None:
            connection.close()
        raise SnapshotError(f"{source}: unreadable snapshot ({error})") from error


def restore_service(path: str | Path, web: Web | None = None) -> "DeepWebService":
    """Rebuild a service from a snapshot; see :meth:`DeepWebService.restore`."""
    from repro.api import DeepWebService

    source = Path(path)
    connection, stored = _open(source)
    with closing(connection):
        if stored.get("kind") != "snapshot":
            raise SnapshotError(f"{source}: not a service snapshot")
        if stored.get("format") != str(SQLITE_FORMAT):
            raise SnapshotError(
                f"{source}: snapshot format {stored.get('format')!r} is not "
                f"supported (this build reads format {SQLITE_FORMAT})"
            )
        try:
            state = {key: json.loads(value) for key, value in stored.items() if key not in PINNED}
            snapshot: ServiceSnapshot = decode(ServiceSnapshot, state)
            results = [read_site(payload) for (payload,) in connection.execute(
                "SELECT result FROM sites ORDER BY seq")]
        except (sqlite3.Error, TypeError, ValueError) as error:
            raise _layout_error(source, error) from error

        if web is None:
            if snapshot.web_config is None:
                raise SnapshotError(
                    f"{source}: snapshot was taken from an explicit Web (no "
                    "WebConfig recorded); pass web= to restore against it"
                )
            web = generate_web(snapshot.web_config)
        world = world_digest(web)
        if world != snapshot.world:
            raise SnapshotError(
                f"{source}: snapshot was taken over another world (site list "
                f"{snapshot.world}, this web's {world})"
            )

        builder = DeepWebService.build().web(web).surfacing(snapshot.surfacing_config)
        if snapshot.serving:
            builder = builder.serving(**snapshot.serving)
        service = builder.create()
        service.web_config = snapshot.web_config
        # The tables, and the BM25 parameters the corpus was scored under.
        mismatched = mismatches(connection, pins("snapshot"))
        if mismatched:
            raise _layout_error(source, "; ".join(mismatched))

        try:
            documents, lengths = read_documents(connection)
            service.store.load(documents, lengths, connection.execute("SELECT * FROM postings"))
        except (sqlite3.Error, TypeError, ValueError) as error:
            raise _layout_error(source, error) from error

    service.results = results
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

