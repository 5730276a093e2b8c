#!/usr/bin/env python
"""Federated search demo: one query, three complementary routes.

Builds a small deep-web world, crawls and surfaces it into the shared
store, then answers queries through the federated planner:

* ``service.query(q, include_webtables=False)`` -- the indexed-only
  plan (byte-identical to the classic cross-corpus read);
* ``service.planner.plan(...)`` / ``service.executor.execute(...)`` --
  an explicit multi-route plan (indexed + webtables + a budgeted live
  probe) with per-hit provenance and per-route budget accounting;
* ``service.query(q, live=True)`` on keywords -- the planner routes the
  query by each form's vocabulary and the live probe reformulates it
  into each routed form's inputs.

    PYTHONPATH=src python examples/federated_search.py [--sites 3]
        [--seed 41] [--live-budget 6]
"""

from __future__ import annotations

import argparse

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.query.plan import ROUTE_LIVE_VERTICAL
from repro.webspace.sitegen import WebConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sites", type=int, default=3, help="deep sites in the world")
    parser.add_argument("--seed", type=int, default=41, help="world seed")
    parser.add_argument("--live-budget", type=int, default=6, help="live-route fetch budget")
    args = parser.parse_args(argv)

    print(f"building world (sites={args.sites}, seed={args.seed}) ...")
    service = (
        DeepWebService.build()
        .web(WebConfig(
            total_deep_sites=args.sites, surface_site_count=1,
            max_records=60, seed=args.seed,
        ))
        .surfacing(SurfacingConfig(max_urls_per_form=60))
        .create()
    )
    service.crawl(max_pages=120)
    service.surface()
    print(f"index ready: {len(service.engine)} documents")

    # Route 1: the classic cross-corpus read (indexed-only plan).
    keyword_text = "records listings search"
    hits = service.query(keyword_text, k=5, min_per_source=3, include_webtables=False).results
    print(f"\nquery({keyword_text!r}, include_webtables=False) -> {len(hits)} hits")
    for hit in hits[:5]:
        print(f"  [{hit.source:<12s}] {hit.score:6.2f}  {hit.title[:60]}")

    # Route 2: an explicit federated plan over a structured query.
    structured_text = "city:portland records"
    plan = service.planner.plan(
        structured_text, k=8, live=True, live_fetch_budget=args.live_budget
    )
    print(f"\nplan({structured_text!r}):")
    print(f"  routes: {' + '.join(plan.route_names)}")
    print(f"  cacheable: {plan.cacheable}")
    print(f"  fingerprint: {plan.fingerprint()}")
    outcome = service.executor.execute(plan)
    print(f"  blended hits: {len(outcome.hits)} "
          f"(live fetches spent: {outcome.live_fetches_spent})")
    for hit in outcome.hits[:8]:
        print(f"  [{hit.route:<13s}] {hit.result.score:6.3f}  {hit.result.title[:55]}")
    for route in outcome.routes:
        state = "skipped" if route.skipped else f"produced {route.produced}, kept {route.kept}"
        print(f"  route {route.route}: {state}, {route.fetches_spent} fetches")

    # Route 3: a keyword query probed live.  Select options ("ford",
    # "coupe") and a bare number bind form inputs; leftovers go to each
    # routed form's search box.
    live_query = "ford coupe 30"
    outcome = service.query(live_query, k=8, live=True, live_fetch_budget=args.live_budget)
    live_routes = [route for route in outcome.plan.routes if route.name == ROUTE_LIVE_VERTICAL]
    hosts = live_routes[0].hosts if live_routes else ()
    print(f"\nquery({live_query!r}, live=True): routed to {', '.join(hosts) or 'no form'}")
    for route in outcome.routes:
        print(f"  route {route.route}: produced {route.produced}, kept {route.kept}, "
              f"{route.fetches_spent} fetches")

    print("\nservice report (tail):")
    for line in service.report().lines():
        if line.startswith(("index by source", "query planning")):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
