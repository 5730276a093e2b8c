"""Quickstart: surface a simulated deep web and search it.

Builds a small simulated web (deep-web sites, each one form over one table,
plus surface sites), runs the baseline crawl, runs the staged surfacing
pipeline, and shows that content hidden behind HTML forms now answers
keyword queries -- all through the :class:`repro.DeepWebService` facade.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import SOURCE_SURFACED  # re-exported for convenience
from repro import DeepWebService, SurfacingConfig, WebConfig


def main() -> None:
    # 1. Build the service around a deterministic simulated web.
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=8, surface_site_count=1, max_records=150, seed=21))
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .progress()
        .create()
    )
    web = service.web
    print(f"Simulated web: {len(web.deep_sites())} deep-web sites, "
          f"{len(web.surface_sites())} surface sites, "
          f"{web.total_deep_records()} records hidden behind forms")

    # 2. Run the search engine's regular crawl.  It follows links only, so
    #    almost none of the deep-web records are reachable.
    crawl = service.crawl(max_pages=500)
    print(f"Baseline crawl: fetched {crawl.fetched} pages, indexed {crawl.indexed}")
    print(f"  index by source: {service.engine.store_stats().by_source}")

    # 3. Run the surfacing pipeline: discover forms, classify inputs, probe,
    #    select informative templates, generate URLs, index the result pages.
    #    The .progress() observer prints one line per site as it runs.
    print()
    results = service.surface()

    # 4. One report covers everything: per-site rows, totals, stage metrics.
    report = service.report()
    print(f"\nSurfacing: indexed {report.urls_indexed} form-submission URLs, "
          f"exposed {report.records_covered} records")
    print(report)
    runs = report.stage_metrics["stage_runs"]
    print(f"stage executions: {sorted(runs.items())}")

    # 5. Keyword queries now reach deep-web content.  Build a query from a
    #    record of the first successfully surfaced site.
    surfaced_hosts = {result.host for result in results if result.urls_indexed > 0}
    sample_site = next(site for site in web.deep_sites() if site.host in surfaced_hosts)
    sample_table = sample_site.table
    record = sample_table.get(1)
    title_words = str(record.get("title", "")).split()[:4]
    extra = str(record.get("city") or record.get("category") or record.get("state") or "")
    query = " ".join(title_words + [extra]).strip()
    print(f"\nQuery: {query!r}")
    for rank, hit in enumerate(service.search(query, k=5), start=1):
        marker = "<- surfaced deep-web page" if hit.source == SOURCE_SURFACED else ""
        print(f"  {rank}. [{hit.source:>12s}] {hit.title}  ({hit.host}) {marker}")


if __name__ == "__main__":
    main()
