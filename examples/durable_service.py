"""Durable storage & resume: one sqlite file, snapshot/restore, resumable surfacing.

Builds a service with a durable home directory (``.persist(dir)``):
the content store lands in ``store.sqlite3``, surfacing checkpoints every
completed site into the same file, and ``service.snapshot()`` writes
``snapshot.sqlite3``, a standalone file in the same layout.  The demo
then shows the two payoffs:

* **warm restart** -- ``DeepWebService.restore(path)`` answers the same
  queries byte-identically without re-crawling or re-surfacing a thing
  (the load meter proves zero surfacer fetches);
* **resume** -- a second service opened on the same directory reads the
  completed sites from the store instead of refetching, so an interrupted
  ``surface()`` would continue exactly where it stopped.

Run:  python examples/durable_service.py [state_dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import DeepWebService, SurfacingConfig, WebConfig
from repro.webspace.loadmeter import AGENT_SURFACER

WEB = WebConfig(total_deep_sites=4, surface_site_count=1, max_records=80, seed=27)
SURFACING = SurfacingConfig(max_urls_per_form=80)
QUERY = "chicago price"


def build(state_dir: Path) -> DeepWebService:
    return (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SURFACING)
        .persist(state_dir)
        .create()
    )


def main(state_dir: str | None = None) -> int:
    state = Path(state_dir) if state_dir else Path(tempfile.mkdtemp(prefix="deepweb-"))

    # 1. Cold build: crawl + surface into the durable store.  Every
    #    completed site commits its documents and its row together, so a
    #    kill anywhere in this loop loses at most the site in flight.
    service = build(state)
    service.crawl(max_pages=300)
    service.surface()
    cold_hits = [(r.url, r.score) for r in service.query(QUERY, k=10).results]
    print(f"state dir: {state}")
    print(f"cold build: {len(service.store)} documents in "
          f"{service.store.kind} store, {service.store.completed_sites} sites completed")

    # 2. Snapshot the whole service: store records, site results, crawl
    #    stats, WebTables corpus, harvest bookkeeping, cache generation.
    snapshot_path = service.snapshot()
    print(f"snapshot: {snapshot_path} ({snapshot_path.stat().st_size} bytes)")
    service.store.close()

    # 3. Warm restart from the snapshot alone.  The web regenerates from
    #    its WebConfig; nothing is fetched, nothing is re-surfaced.
    warm = DeepWebService.restore(snapshot_path)
    warm_hits = [(r.url, r.score) for r in warm.query(QUERY, k=10).results]
    assert warm_hits == cold_hits, "restored rankings must be byte-identical"
    fetches = warm.web.load_meter.total(agent=AGENT_SURFACER)
    print(f"warm restart: {len(warm_hits)} hits for {QUERY!r}, "
          f"byte-identical to the cold build, {fetches} surfacer fetches")
    storage_line = next(
        line for line in warm.report().lines() if line.startswith("storage:")
    )
    print(f"report: {storage_line}")

    # 4. Resume: a fresh service on the same directory reopens the sqlite
    #    store, whose completed sites surfacing skips -- it refetches nothing.
    resumed = build(state)
    resumed.surface()
    resumed_fetches = resumed.web.load_meter.total(agent=AGENT_SURFACER)
    print(f"resume: surface() read {resumed.store.completed_sites} completed sites "
          f"from the store with {resumed_fetches} surfacer fetches")
    resumed.store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
