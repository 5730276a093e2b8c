#!/usr/bin/env python
"""Cluster serving demo: scatter-gather shards, failover, kill/revive.

Builds a small deep-web world twice -- once on the default in-memory
store, once on the cluster tier (N shards x R replicas behind the
scatter-gather executor, which walks the shards in the calling thread)
-- and walks the tier's contract:

* clean-path rankings are byte-identical to the single-index service;
* killing one replica per shard changes nothing (failover);
* killing *every* replica of a shard degrades to an exact-score subset
  (fewer hits, never wrong ones), and reviving restores identity;
* ``cluster_stats()`` / ``report()`` expose scatters, hedges, deadline
  misses, failovers and degraded searches.

    PYTHONPATH=src python examples/cluster_serving.py [--sites 3]
        [--seed 21] [--shards 4] [--replicas 2]
"""

from __future__ import annotations

import argparse

from repro.api import DeepWebService
from repro.cluster import ClusterBackend, replica_name
from repro.core.surfacer import SurfacingConfig
from repro.webspace.sitegen import WebConfig


def build(args: argparse.Namespace, clustered: bool) -> DeepWebService:
    builder = (
        DeepWebService.build()
        .web(WebConfig(
            total_deep_sites=args.sites, surface_site_count=1,
            max_records=60, seed=args.seed,
        ))
        .surfacing(SurfacingConfig(max_urls_per_form=60))
    )
    if clustered:
        # A generous deadline: the demo shows semantics, not tail-latency
        # tuning; see README "Cluster serving" for the cost model.
        builder = builder.store(
            ClusterBackend(
                shard_count=args.shards, replicas=args.replicas, deadline_seconds=10.0
            )
        )
    service = builder.create()
    service.crawl(max_pages=120)
    service.surface()
    return service


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sites", type=int, default=3, help="deep sites in the world")
    parser.add_argument("--seed", type=int, default=21, help="world seed")
    parser.add_argument("--shards", type=int, default=4, help="shard slices")
    parser.add_argument("--replicas", type=int, default=2, help="copies per shard")
    args = parser.parse_args(argv)
    if args.replicas < 2:
        parser.error("--replicas must be >= 2 (the demo kills one copy)")

    print(f"building twin worlds (sites={args.sites}, seed={args.seed}) ...")
    reference = build(args, clustered=False)
    service = build(args, clustered=True)
    cluster = service.store
    print(
        f"index ready: {len(service.engine)} documents across "
        f"{args.shards} shards x {args.replicas} replicas"
    )

    queries = ["records listings search", "used toyota", "portland"]

    # 1. Clean path: byte-identical to the single-index service.
    for query in queries:
        assert service.search(query, k=10) == reference.search(query, k=10)
    print(f"\nclean path: {len(queries)} queries byte-identical to in-memory")

    # 2. Kill one replica of every shard: failover keeps identity.
    for shard in range(args.shards):
        cluster.kill(replica_name(shard, 0))
    for query in queries:
        assert service.search(query, k=10) == reference.search(query, k=10)
    assert cluster.degraded_searches == 0
    print("killed replica 0 of every shard: still byte-identical (failover)")

    # 3. Kill the remaining replica of shard 0: exact-score subset.
    cluster.kill(replica_name(0, args.replicas - 1))
    # The widened clean ranking is the universe: a degraded top-k may
    # legitimately pull up docs from below the clean top-k, but every
    # hit it returns must appear there with an identical score.
    universe = len(service.engine)
    full = {hit.doc_id: hit.score for hit in reference.search(queries[0], k=universe)}
    degraded = service.search(queries[0], k=universe)
    assert cluster.degraded_searches == 1
    assert all(full[hit.doc_id] == hit.score for hit in degraded)
    print(
        f"killed ALL of shard 0: {len(degraded)}/{len(full)} hits survive, "
        "every survivor keeps its exact score (fewer hits, never wrong ones)"
    )

    # 4. Revive everything: identity is restored immediately (writes
    #    reached dead replicas all along; kill gates query serving only).
    for shard in range(args.shards):
        for replica in range(args.replicas):
            cluster.revive(replica_name(shard, replica))
    for query in queries:
        assert service.search(query, k=10) == reference.search(query, k=10)
    print("revived all replicas: byte-identical again, no catch-up needed")

    # The report holds the cluster's own snapshot and prints its lines.
    print("\ncluster stats (from the service report):")
    for line in service.report().cluster.lines():
        print(f"  {line}")

    service.store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
