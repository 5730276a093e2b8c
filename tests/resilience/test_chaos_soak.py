"""Chaos soak: the whole stack survives heavy fault rates end to end.

Every subsystem (crawl, surfacing, harvest, vertical probing, plan
execution, serving, reporting) runs against a web injecting >= 20%
transient errors plus timeouts and outage windows.  The assertion is
blunt and load-bearing: zero unhandled exceptions anywhere, and a
coherent report at the end.  Skip-and-record is the only acceptable
failure mode.
"""

from __future__ import annotations

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.resilience import BreakerRegistry, RetryPolicy
from repro.serve.loadgen import KIND_STRUCTURED, WorkloadGenerator
from repro.webspace.sitegen import WebConfig, generate_web


def test_full_stack_soak_at_twenty_percent_errors():
    web = generate_web(
        WebConfig(total_deep_sites=4, surface_site_count=1, max_records=50, seed=31)
    )
    schedule = WorkloadGenerator(web, seed="soak").fault_schedule(
        error_rate=0.3,  # per-host scaling keeps every host >= 0.15, mean ~0.3
        timeout_rate=0.1,
        outage_hosts=1,
    )
    service = (
        DeepWebService.build()
        .web(web)
        .surfacing(SurfacingConfig(max_urls_per_form=40))
        .faults(schedule)
        .resilience(
            policy=RetryPolicy(max_attempts=3, seed="soak"),
            breakers=BreakerRegistry(min_calls=10),
        )
        .create()
    )

    # Offline tiers: crawl, surface, harvest -- all skip-and-record.
    crawl = service.crawl(max_pages=80)
    results = service.surface()
    service.harvest_tables()
    assert crawl.fetch_errors > 0, "the soak must actually hit crawl faults"
    assert len(results) == 4, "every site yields a result, degraded or not"
    assert any(result.degraded for result in results)
    for result in results:
        assert result.fetch_errors >= 0 and result.urls_indexed >= 0

    # Query tiers: mixed keyword/structured/table workload, live probing on.
    generator = WorkloadGenerator(service.web, seed="soak-queries")
    served = 0
    for query in generator.mixed_stream(120, k=8):
        plan = service.plan(
            query.text, k=query.k, min_per_source=2,
            live=query.kind == KIND_STRUCTURED,
        )
        result = service.execute(plan)
        served += len(result.hits)
    assert served > 0, "heavy faults may shrink answers, not erase them all"

    # The report renders and owns up to the damage.
    report = service.report()
    lines = report.lines()
    assert any(line.startswith("resilience:") for line in lines)
    meter = service.web.load_meter
    assert meter.errors() > 0
    assert report.resilience["fetch_errors"] == meter.errors()
    assert str(report)  # full rendering never crashes


def test_soak_replays_byte_identically():
    """The same seeds replay the identical soak -- errors, retries, output."""

    def run():
        web = generate_web(
            WebConfig(total_deep_sites=3, surface_site_count=1, max_records=40, seed=37)
        )
        schedule = WorkloadGenerator(web, seed="soak-replay").fault_schedule(
            error_rate=0.25, timeout_rate=0.05
        )
        service = (
            DeepWebService.build()
            .web(web)
            .surfacing(SurfacingConfig(max_urls_per_form=30))
            .faults(schedule)
            .resilience(policy=RetryPolicy(max_attempts=2, seed="soak-replay"))
            .create()
        )
        service.crawl(max_pages=40)
        service.surface()
        meter = service.web.load_meter
        return (
            service.report().lines(),
            [service.search_all("used toyota", k=10)],
            meter.errors(),
            meter.retries(),
        )

    assert run() == run()
