"""Resume-aware surfacing: a content-hash journal + a journaled scheduler.

``surface_many`` over a large webspace is long-running, per-site work;
this module makes an interrupted run continue where it stopped while
producing the same final output as an uninterrupted run.

The journal is an append-only JSONL file with three entry kinds:

* ``header`` -- the journal format plus a fingerprint of the
  :class:`~repro.core.surfacer.SurfacingConfig` (a journal written under
  one config cannot silently resume under another);
* ``blob`` -- one prepared :class:`~repro.store.ingest.IngestRecord`,
  keyed by the sha256 of its canonical content.  Blobs are the
  content-hash dedup layer: a record shared by several sites (or
  re-observed across runs) is stored once and referenced by hash;
* ``site`` -- one completed site: its blob hashes in ingestion order
  plus the serialized :class:`~repro.core.surfacer.SiteSurfacingResult`.

:class:`ResumableSurfacingScheduler` surfaces each site with the shared
pipeline -- same prober, probe cache and seeded helpers as a serial run --
pointed at a *scratch* :class:`~repro.search.engine.SearchEngine` holding
the base store's documents for that host, so the site's inserts are
staged, not written.  It journals the completed site and only then
replays the staged records into the shared store -- so an interrupted
site leaves *nothing* behind and re-surfaces from scratch
deterministically, while completed sites replay from the journal without
refetching a single page.  Journal entries are fsynced before the store
sees the records; on the inverse crash (journaled but not yet stored)
the resume replay heals the store by URL-dedup.  A torn final line from
a crash mid-append is truncated away on load; corruption anywhere else
raises :class:`JournalCorruptionError`.  Site results and the config
fingerprint are written and read by :mod:`repro.persist.codec` from the
dataclass definitions; a result that does not match them is corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.persist.codec import decode, encode
from repro.persist.snapshot import decode_record, encode_record
from repro.pipeline.pipeline import SurfacingPipeline
from repro.pipeline.scheduler import SurfacingScheduler
from repro.search.engine import SearchEngine
from repro.store.records import IngestRecord
from repro.webspace.site import DeepWebSite

#: Bumped when the journal entry layout changes incompatibly (a renamed or
#: retyped field under :class:`SiteSurfacingResult` does;
#: ``tests/persist/test_layout_guard.py`` notices).
JOURNAL_FORMAT = 2


class JournalError(RuntimeError):
    """A journal that cannot be read or written safely."""


class JournalCorruptionError(JournalError):
    """A journal whose recorded entries fail integrity checks."""


class JournalConfigMismatchError(JournalError):
    """A journal written under a different surfacing configuration."""


def record_content_hash(record: IngestRecord) -> str:
    """The canonical content hash a blob entry is keyed (and verified) by."""
    payload = json.dumps(encode_record(record), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config: SurfacingConfig) -> str:
    """A stable fingerprint of every surfacing knob."""
    payload = json.dumps(encode(SurfacingConfig, config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SurfacingJournal:
    """Append-only record of completed sites, loadable for resume."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fingerprint: str | None = None
        self._blobs: dict[str, IngestRecord] = {}
        #: host -> (blob hashes in ingestion order, site result)
        self._sites: dict[str, tuple[list[str], SiteSurfacingResult]] = {}
        self._load()

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def completed_hosts(self) -> list[str]:
        """Hosts with a journaled (completed) surfacing result, in
        completion order."""
        return list(self._sites)

    # -- loading -------------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        lines: list[tuple[int, bytes]] = []  # (byte offset, non-blank line)
        offset = 0
        for line in raw.split(b"\n"):
            if line.strip():
                lines.append((offset, line))
            offset += len(line) + 1
        for position, (offset, line) in enumerate(lines):
            final = position == len(lines) - 1
            try:
                entry = json.loads(line)
            except ValueError:
                if not final:
                    raise JournalCorruptionError(
                        f"{self.path}: undecodable entry at line {position + 1}"
                    )
                entry = None
            if final and (entry is None or offset + len(line) == len(raw)):
                # A crash mid-append tears at most the final line (cut
                # short, or missing its newline); the entry it would have
                # recorded simply re-runs.  Drop the fragment now, or the
                # next append would glue a good entry onto it.
                self._truncate(offset)
                return
            self._apply(entry, position)

    def _truncate(self, size: int) -> None:
        with open(self.path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def _apply(self, entry: dict, position: int) -> None:
        kind = entry.get("kind")
        if kind == "header":
            if entry.get("format") != JOURNAL_FORMAT:
                raise JournalError(
                    f"{self.path}: journal format {entry.get('format')!r} is "
                    f"not supported (this build reads format {JOURNAL_FORMAT})"
                )
            self._fingerprint = entry["config_fingerprint"]
        elif kind == "blob":
            record = decode_record(entry["record"])
            if record_content_hash(record) != entry["hash"]:
                raise JournalCorruptionError(
                    f"{self.path}: blob at line {position + 1} fails its "
                    "content-hash check"
                )
            self._blobs[entry["hash"]] = record
        elif kind == "site":
            missing = [h for h in entry["records"] if h not in self._blobs]
            if missing:
                raise JournalCorruptionError(
                    f"{self.path}: site {entry['host']!r} references "
                    f"{len(missing)} unknown blob(s)"
                )
            try:
                result = decode(SiteSurfacingResult, entry["result"])
            except (TypeError, ValueError) as error:
                raise JournalCorruptionError(
                    f"{self.path}: site {entry['host']!r} at line {position + 1} "
                    f"does not match this build's result layout ({error})"
                ) from error
            self._sites[entry["host"]] = (list(entry["records"]), result)
        else:
            raise JournalCorruptionError(
                f"{self.path}: unknown entry kind {kind!r} at line {position + 1}"
            )

    # -- writing -------------------------------------------------------------

    def _append(self, entries: Sequence[dict]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def ensure_config(self, config: SurfacingConfig) -> None:
        """Bind the journal to one surfacing configuration.

        The first call on a fresh journal writes the header; later calls
        (and resumed runs) must present the same configuration or the
        journaled output would not match what a clean run produces.
        """
        fingerprint = config_fingerprint(config)
        if self._fingerprint is None:
            self._append(
                [
                    {
                        "kind": "header",
                        "format": JOURNAL_FORMAT,
                        "config_fingerprint": fingerprint,
                    }
                ]
            )
            self._fingerprint = fingerprint
        elif self._fingerprint != fingerprint:
            raise JournalConfigMismatchError(
                f"{self.path}: journal was written under a different "
                "surfacing configuration; resume with the original config "
                "or start a fresh journal"
            )

    def record_site(
        self,
        host: str,
        records: Sequence[IngestRecord],
        result: SiteSurfacingResult,
    ) -> None:
        """Journal one completed site (new blobs first, then the site entry,
        one fsynced append)."""
        entries: list[dict] = []
        hashes: list[str] = []
        fresh: dict[str, IngestRecord] = {}
        for record in records:
            content_hash = record_content_hash(record)
            hashes.append(content_hash)
            if content_hash not in self._blobs and content_hash not in fresh:
                fresh[content_hash] = record
                entries.append(
                    {
                        "kind": "blob",
                        "hash": content_hash,
                        "record": encode_record(record),
                    }
                )
        entries.append(
            {
                "kind": "site",
                "host": host,
                "records": hashes,
                "result": encode(SiteSurfacingResult, result),
            }
        )
        self._append(entries)
        self._blobs.update(fresh)
        self._sites[host] = (hashes, result)

    # -- resume reads --------------------------------------------------------

    def site_entry(
        self, host: str
    ) -> tuple[list[IngestRecord], SiteSurfacingResult] | None:
        """The journaled records + result for a completed site, or None."""
        entry = self._sites.get(host)
        if entry is None:
            return None
        hashes, result = entry
        return [self._blobs[content_hash] for content_hash in hashes], result


class ResumableSurfacingScheduler(SurfacingScheduler):
    """A serial scheduler that checkpoints every completed site.

    Per site, in order: if the journal holds the site, its records are
    replayed into the shared store (URL-dedup makes this idempotent) and
    the journaled result is returned without touching the web; otherwise
    the site is surfaced against a scratch engine (so an interruption
    mid-site leaves the store and journal untouched), journaled, replayed
    into the store, and the store is flushed.  Site hosts are unique
    across a webspace, which is what makes the host a sound journal key
    and the staged view equal to the serial run.

    A freshly surfaced site runs through the pipeline itself, so it emits
    the same live event stream and moves the same probe-cache counters as
    under the serial scheduler.  Stage events for journaled sites are
    *not* re-emitted (the work they describe did not run); site start/end
    observer events still fire for every site, so progress output stays
    complete.
    """

    def __init__(self, journal: str | Path) -> None:
        self.journal = SurfacingJournal(journal)

    def run(
        self,
        pipeline: SurfacingPipeline,
        sites: Iterable[DeepWebSite],
        start_index: int = 0,
        total: int | None = None,
    ) -> list[SiteSurfacingResult]:
        self.journal.ensure_config(pipeline.config)
        targets = list(sites)
        total = total if total is not None else start_index + len(targets)
        results: list[SiteSurfacingResult] = []
        for site in targets:
            index = start_index + len(results)
            for observer in pipeline.observers:
                observer.on_site_start(site, index, total)
            journaled = self.journal.site_entry(site.host)
            if journaled is not None:
                records, result = journaled
            else:
                records, result = self._surface_staged(pipeline, site)
                self.journal.record_site(site.host, records, result)
            pipeline.engine.ingest_records(records)
            self._flush(pipeline)
            results.append(result)
            for observer in pipeline.observers:
                observer.on_site_end(site, result, index, total)
        return results

    @staticmethod
    def _surface_staged(
        pipeline: SurfacingPipeline, site: DeepWebSite
    ) -> tuple[list[IngestRecord], SiteSurfacingResult]:
        base = pipeline.engine
        scratch = SearchEngine(signature_cache=base.signature_cache)
        # Surfacing reads only this host's term counts and URL dedup from
        # the engine, never a ranking, so the preload carries no tokens.
        scratch.ingest_records(
            IngestRecord(doc.url, doc.host, doc.title, doc.text, tokens=(), source=doc.source)
            for doc in base.documents_for_host(site.host)
        )
        staged: list[IngestRecord] = []
        scratch.ingestor.add_listener(lambda record, doc_id: staged.append(record))
        shared = pipeline.context
        pipeline.context = replace(shared, engine=scratch)
        try:
            result = pipeline.surface_site(site)
        finally:
            pipeline.context = shared
        return staged, result

    @staticmethod
    def _flush(pipeline: SurfacingPipeline) -> None:
        flush = getattr(pipeline.engine.backend, "flush", None)
        if callable(flush):
            flush()
