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
from repro.resilience import BreakerRegistry, FaultPlan, FaultSpec, RetryPolicy
from repro.resilience.faults import FaultyWeb
from repro.resilience.retry import ResilientWeb
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
        plan = service.planner.plan(
            query.text, k=query.k, min_per_source=2,
            live=query.kind == KIND_STRUCTURED,
        )
        result = service.executor.execute(plan)
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
            [
                service.query(
                    "used toyota", k=10, min_per_source=3, include_webtables=False
                ).results
            ],
            meter.errors(),
            meter.retries(),
        )

    assert run() == run()


def test_report_sums_every_fault_and_breaker_layer():
    """A web wrapped twice -- once by the caller, once by the builder --
    reports the faults and breaker refusals of both layers.  The meter is
    the cross-check: every injected fault and every refused fetch is
    metered as one error, so the report's parts add up to its total."""
    base = generate_web(
        WebConfig(total_deep_sites=4, surface_site_count=1, max_records=50, seed=31)
    )
    inner_faults = FaultPlan(seed="inner", default=FaultSpec(error_rate=0.1))
    inner_breakers = BreakerRegistry(failure_threshold=0.2)
    outer_breakers = BreakerRegistry(failure_threshold=0.2)
    service = (
        DeepWebService.build()
        .web(ResilientWeb(FaultyWeb(base, inner_faults), breakers=inner_breakers))
        .surfacing(SurfacingConfig(max_urls_per_form=40))
        .faults(FaultPlan(seed="outer", default=FaultSpec(error_rate=0.1)))
        .resilience(RetryPolicy(max_attempts=1), outer_breakers)
        .create()
    )
    service.crawl(max_pages=80)
    service.surface()
    layers = []
    layer = service.web
    while layer is not None:
        layers.append(layer)
        layer = getattr(layer, "inner", None)
    faulty = [layer for layer in layers if isinstance(layer, FaultyWeb)]
    assert len(faulty) == 2 and all(web.fault_counts() for web in faulty)
    expected: dict[str, int] = {}
    for web in faulty:
        for kind, count in web.fault_counts().items():
            expected[kind] = expected.get(kind, 0) + count

    assert inner_breakers.trips() and outer_breakers.trips()

    section = service.report().resilience
    assert section["injected"] == expected
    skips = inner_breakers.skips() + outer_breakers.skips()
    assert section["breakers"]["skips"] == skips
    assert section["breakers"]["trips"] == inner_breakers.trips() + outer_breakers.trips()
    assert sum(expected.values()) + skips == section["fetch_errors"]
    assert section["fetch_errors"] == service.web.load_meter.errors()
