"""With fault injection disabled, the resilience tier must be invisible.

The wrappers may not perturb a single byte of output on the clean path:
same surfaced results, same search answers, same report rendering --
otherwise every pre-chaos determinism guarantee in the repo would
silently depend on whether the tier happens to be installed.
"""

from __future__ import annotations

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.resilience import BreakerRegistry, FaultPlan, FaultSpec, RetryPolicy
from repro.resilience.faults import FaultyWeb
from repro.resilience.retry import ResilientWeb
from repro.webspace.sitegen import WebConfig

WEB = WebConfig(total_deep_sites=3, surface_site_count=1, max_records=50, seed=23)


def build(faults: FaultPlan | None = None, resilient: bool = False):
    builder = (
        DeepWebService.build().web(WEB).surfacing(SurfacingConfig(max_urls_per_form=40))
    )
    if faults is not None:
        builder = builder.faults(faults)
    if resilient:
        builder = builder.resilience(
            policy=RetryPolicy(max_attempts=3, seed="clean"),
            breakers=BreakerRegistry(),
        )
    service = builder.create()
    service.crawl(max_pages=40)
    service.surface()
    service.harvest_tables()
    return service


def observable_output(service):
    queries = ["used toyota", "category:books", "price title year"]
    return (
        service.report().lines(),
        [
            service.query(query, k=10, min_per_source=3, include_webtables=False).results
            for query in queries
        ],
        len(service.engine),
    )


class TestCleanPathByteIdentity:
    def test_disabled_plan_and_resilience_tier_change_nothing(self):
        plain = observable_output(build())
        noisy_but_disabled = FaultPlan(
            seed=5, default=FaultSpec(error_rate=0.5), enabled=False
        )
        wrapped = observable_output(build(faults=noisy_but_disabled, resilient=True))
        assert wrapped == plain

    def test_quiet_plan_changes_nothing(self):
        plain = observable_output(build())
        quiet = observable_output(build(faults=FaultPlan(seed=5), resilient=True))
        assert quiet == plain

    def test_clean_run_reports_no_resilience_noise(self):
        service = build(faults=FaultPlan(seed=5), resilient=True)
        lines = service.report().lines()
        assert not any("resilience" in line for line in lines)
        assert not any("degraded" in line for line in lines)
        assert service.web.load_meter.errors() == 0
        assert service.web.load_meter.retries() == 0


class TestWrapperTransparency:
    def test_wrappers_share_registry_and_meter(self, car_site, car_web):
        faulty = FaultyWeb(car_web, FaultPlan())
        resilient = ResilientWeb(faulty)
        assert resilient.fetch(car_site.homepage_url()).ok
        # One fetch, recorded once, visible through every layer.
        assert car_web.load_meter.total(host=car_site.host) == 1
        assert resilient.load_meter is car_web.load_meter
        assert [site.host for site in resilient.sites()] == [site.host for site in car_web.sites()]
        assert faulty.events == []
