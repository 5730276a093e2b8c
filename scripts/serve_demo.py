#!/usr/bin/env python
"""Serve a seeded 1k-query Zipf workload and print the ServeStats.

Builds a small deep-web world, crawls and surfaces it into the shared
index, then replays a reproducible Zipf query stream through the
:class:`~repro.serve.frontend.QueryFrontend` (worker pool + LRU
result cache).  Every run with the same arguments serves the identical
query sequence, so the cache-hit rate is a property of the workload, not
of the wall clock.

    PYTHONPATH=src python scripts/serve_demo.py [--queries 1000]
        [--workers 4] [--sites 3] [--seed 29]
"""

from __future__ import annotations

import argparse

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.serve.loadgen import WorkloadGenerator
from repro.webspace.sitegen import WebConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--queries", type=int, default=1000, help="workload length")
    parser.add_argument("--workers", type=int, default=4, help="frontend worker threads")
    parser.add_argument("--sites", type=int, default=3, help="deep sites in the world")
    parser.add_argument("--seed", type=int, default=29, help="world seed")
    parser.add_argument("--k", type=int, default=10, help="results per query")
    args = parser.parse_args(argv)

    print(f"building world (sites={args.sites}, seed={args.seed}) ...")
    service = (
        DeepWebService.build()
        .web(WebConfig(
            total_deep_sites=args.sites, surface_site_count=2,
            max_records=60, seed=args.seed,
        ))
        .surfacing(SurfacingConfig(max_urls_per_form=60))
        .serving(workers=args.workers, cache_size=2048)
        .create()
    )
    service.crawl(max_pages=150)
    service.surface()
    print(f"index ready: {len(service.engine)} documents "
          f"({', '.join(f'{s}={n}' for s, n in service.engine.store_stats().by_source.items())})")

    print(f"serving {args.queries} queries (zipf stream, {args.workers} workers) ...")
    stream = WorkloadGenerator(service.web, seed="serve-demo").stream(args.queries, k=args.k)
    outcome = service.frontend.serve_workload(stream, default_k=args.k)
    print()
    print(outcome.stats)
    answered = sum(1 for results in outcome.results if results)
    print(f"queries with at least one result: {answered}/{args.queries}")
    service.frontend.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
