"""Virtual integration vs. surfacing on the same simulated web.

Integrates every deep-web source with the virtual-integration approach
(mediated schema, form matching, routing, reformulation, wrappers) and
contrasts it with surfacing on three axes the paper discusses:

* structured slice-and-dice queries (the vertical's strength),
* fortuitous keyword queries (surfacing's strength),
* where the load on form sites is paid (query time vs. off-line).

Virtual integration answers through the federated read's live route,
``service.query(q, live=True)``; the structured slice hands the
planner's live hosts to ``service.vertical.probe``.

Run:  python examples/vertical_vs_surfacing.py
"""

from __future__ import annotations

from repro.analysis.experiments import build_world, surface_world
from repro.query.plan import ROUTE_LIVE_VERTICAL, LiveVerticalRoute
from repro.search.engine import SOURCE_SURFACED
from repro.webspace.loadmeter import AGENT_VIRTUAL

#: Query-time fetch budget of each live keyword query.
LIVE_BUDGET = 9


def live_answer(service, query: str) -> tuple[int, int]:
    """Rows and query-time fetches of the live route for ``query``."""
    result = service.query(query, live=True, live_fetch_budget=LIVE_BUDGET, include_webtables=False)
    live = [outcome for outcome in result.routes if outcome.route == ROUTE_LIVE_VERTICAL]
    return (live[0].produced if live else 0), result.live_fetches_spent


def main() -> None:
    print("Building, crawling and surfacing a small simulated web ...")
    world = build_world("small")
    surface_world(world)
    web, engine, service = world.web, world.engine, world.service

    cars = [site for site in web.deep_sites() if site.domain_name == "used_cars"]
    print(f"Used-car deep-web sites: {len(cars)}")

    # --- Virtual integration: register every source --------------------------------
    registry = service.vertical.registry
    used_car_sources = sum(1 for source in registry.values() if source.mapping.domain == "used_cars")
    print(f"Virtual integration registered {len(registry)} sources, {used_car_sources} "
          f"classified as used cars (semantic mappings built per form)")

    # Structured slice-and-dice: something surfacing does not offer.
    plan = service.planner.plan("color:red", live=True)
    hosts = next((r.hosts for r in plan.routes if isinstance(r, LiveVerticalRoute)), ())
    answer = service.vertical.probe(hosts, filters={"color": "red"}, fetch_budget=LIVE_BUDGET)
    print(f"\nStructured query color=red -> {len(answer.records)} merged listings "
          f"from {len(answer.sources_contacted)} sources")
    for record in answer.records[:5]:
        print(f"  {record.title}  (${record.get('price')}, {record.get('city')}) [{record.host}]")

    # Keyword query answered by both approaches.
    if cars:
        sample = cars[0].database.table("listings").get(1)
        query = f"used {sample['make']} {sample['model']}"
        rows, fetches = live_answer(service, query)
        surfaced_hits = [
            hit for hit in engine.search(query, k=10) if hit.source == SOURCE_SURFACED
        ]
        print(f"\nKeyword query {query!r}:")
        print(f"  virtual integration: {rows} records, "
              f"{fetches} query-time fetches to form sites")
        print(f"  surfacing: {len(surfaced_hits)} surfaced pages in the top 10, "
              f"0 query-time fetches")

        # A fortuitous query: record-specific content (model + exact mileage)
        # that appears on the surfaced result page but is absent from the
        # routing vocabulary (domain keywords, select options, sample values).
        fortuitous = f"{sample['model']} {sample['mileage']} miles"
        rows, _fetches = live_answer(service, fortuitous)
        surfaced_fortuitous = [
            hit for hit in engine.search(fortuitous, k=10) if hit.source == SOURCE_SURFACED
        ]
        print(f"\nFortuitous query {fortuitous!r} (record content, no domain words):")
        print(f"  virtual integration answered: {bool(rows)} "
              f"(depends on routing recognizing some query token)")
        print(f"  surfacing answered: {bool(surfaced_fortuitous)} "
              f"(the IR index matches the surfaced page text directly)")
        print("  benchmarks/bench_surfacing_vs_virtual.py measures this gap over many queries.")

    # --- Load profile -------------------------------------------------------------
    # Off-line surfacing load is already on the per-site results; the load
    # meter gives the query-time load virtual integration keeps paying.
    surfacer_load = sum(result.analysis_load for result in world.surfacing_results)
    virtual_load = web.load_meter.total(agent=AGENT_VIRTUAL)
    print("\nLoad on form sites:")
    print(f"  surfacing (one-time, off-line, amortizable): {surfacer_load} fetches")
    print(f"  virtual integration (paid again on every query): {virtual_load} fetches so far")


if __name__ == "__main__":
    main()
