"""FaultPlan/FaultyWeb: seeded fault schedules replay bit for bit."""

from __future__ import annotations

import pytest

from repro.resilience.faults import (
    DECISION_OK,
    KIND_ERROR,
    KIND_OK,
    KIND_OUTAGE,
    KIND_TIMEOUT,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    FaultyWeb,
    ScriptedFaults,
)
from repro.serve.loadgen import WorkloadGenerator
from repro.webspace.loadmeter import AGENT_CRAWLER, AGENT_VIRTUAL
from repro.webspace.web import FetchError, HostUnavailable, Web

NOISY = FaultSpec(error_rate=0.3, timeout_rate=0.1, latency_mean=0.05, latency_jitter=0.02)


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(timeout_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(outages=((5, 2),))

    def test_quiet_spec_never_faults(self):
        plan = FaultPlan(seed=3)  # all-default: quiet
        assert all(plan.decide("host", i) is DECISION_OK for i in range(50))


class TestFaultPlanDeterminism:
    def test_same_seed_same_decision_sequence(self):
        first = FaultPlan(seed=7, default=NOISY)
        second = FaultPlan(seed=7, default=NOISY)
        sequence = [first.decide("shop.example.com", i) for i in range(300)]
        assert sequence == [second.decide("shop.example.com", i) for i in range(300)]
        kinds = {decision.kind for decision in sequence}
        assert KIND_ERROR in kinds and KIND_TIMEOUT in kinds and KIND_OK in kinds

    def test_different_seed_or_host_diverges(self):
        plan = FaultPlan(seed=7, default=NOISY)
        other_seed = FaultPlan(seed=8, default=NOISY)
        host = "shop.example.com"
        assert [plan.decide(host, i) for i in range(200)] != [
            other_seed.decide(host, i) for i in range(200)
        ]
        assert [plan.decide(host, i) for i in range(200)] != [
            plan.decide("other.example.com", i) for i in range(200)
        ]

    def test_decisions_stateless_under_interleaving(self):
        """decide(host, i) is a pure function -- call order cannot matter."""
        plan = FaultPlan(seed=9, default=NOISY)
        straight = [plan.decide("a.example.com", i) for i in range(50)]
        interleaved = []
        for i in range(50):
            plan.decide("b.example.com", i)  # unrelated traffic
            interleaved.append(plan.decide("a.example.com", i))
        assert straight == interleaved

    def test_outage_window_is_deterministic_by_index(self):
        spec = FaultSpec(error_rate=0.2, outages=((3, 6),))
        plan = FaultPlan(seed=1, hosts={"h.example.com": spec})
        kinds = [plan.decide("h.example.com", i).kind for i in range(8)]
        assert kinds[3:6] == [KIND_OUTAGE, KIND_OUTAGE, KIND_OUTAGE]
        assert KIND_OUTAGE not in kinds[:3] + kinds[6:]


class TestAgentGating:
    def test_agent_filter_and_enabled_flag(self):
        plan = FaultPlan(seed=1, default=NOISY, agents=(AGENT_VIRTUAL,))
        assert plan.applies_to(AGENT_VIRTUAL)
        assert not plan.applies_to(AGENT_CRAWLER)
        plan.enabled = False
        assert not plan.applies_to(AGENT_VIRTUAL)

    def test_non_matching_fetches_consume_no_fault_indices(self, car_site, car_web):
        """Crawler traffic through an agent-gated plan must not shift the
        fault sequence seen by the gated agent."""
        script = ScriptedFaults(
            {car_site.host: [FaultDecision(kind=KIND_ERROR)]}, agents=(AGENT_VIRTUAL,)
        )
        web = FaultyWeb(car_web, script)
        for _ in range(5):  # would exhaust the script if indices advanced
            assert web.fetch(car_site.homepage_url(), agent=AGENT_CRAWLER).ok
        with pytest.raises(FetchError):
            web.fetch(car_site.homepage_url(), agent=AGENT_VIRTUAL)

    def test_disabling_pauses_without_consuming_indices(self, car_site, car_web):
        script = ScriptedFaults({car_site.host: [FaultDecision(kind=KIND_OUTAGE)]})
        web = FaultyWeb(car_web, script)
        script.enabled = False
        assert web.fetch(car_site.homepage_url()).ok
        script.enabled = True  # resumes at index 0: the outage still fires
        with pytest.raises(HostUnavailable):
            web.fetch(car_site.homepage_url())


def _faulted_fetch_run(seed: int, fetches: int = 120):
    """One seeded run against a fresh car site; returns (event log, pages)."""
    from repro.datagen.domains import domain
    from repro.util.rng import SeededRng
    from repro.webspace.sitegen import build_deep_site

    site = build_deep_site(
        domain("used_cars"), "cars.chaos.example.com", 40, SeededRng("chaos-site")
    )
    web = Web()
    web.register(site)
    faulty = FaultyWeb(web, FaultPlan(seed=seed, default=NOISY))
    pages = []
    for _ in range(fetches):
        try:
            pages.append(faulty.fetch(site.homepage_url()).html)
        except FetchError as exc:
            pages.append(f"FAILED:{type(exc).__name__}")
    return faulty.event_log(), pages


class TestFaultyWeb:
    def test_same_seed_replays_byte_identical(self):
        events_a, pages_a = _faulted_fetch_run(seed=21)
        events_b, pages_b = _faulted_fetch_run(seed=21)
        assert events_a == events_b
        assert pages_a == pages_b
        assert any(page.startswith("FAILED:") for page in pages_a)

    def test_failures_metered_as_attempt_plus_error(self, car_site, car_web):
        script = ScriptedFaults({car_site.host: [FaultDecision(kind=KIND_ERROR)]})
        web = FaultyWeb(car_web, script)
        with pytest.raises(FetchError):
            web.fetch(car_site.homepage_url())
        meter = web.load_meter
        assert meter.total(host=car_site.host) == 1
        assert meter.errors(host=car_site.host) == 1
        assert web.fault_counts() == {KIND_ERROR: 1}

    def test_shares_registry_with_inner_web(self, car_site, car_web):
        web = FaultyWeb(car_web, FaultPlan())
        assert isinstance(web, Web)
        assert [site.host for site in web.sites()] == [car_site.host]


class TestFaultSchedule:
    def test_schedule_derives_deterministically_from_seed(self, small_web):
        first = WorkloadGenerator(small_web, seed="sched").fault_schedule(
            error_rate=0.25, timeout_rate=0.05, outage_hosts=2
        )
        second = WorkloadGenerator(small_web, seed="sched").fault_schedule(
            error_rate=0.25, timeout_rate=0.05, outage_hosts=2
        )
        assert first.seed == second.seed
        assert first.hosts == second.hosts  # FaultSpec is a frozen dataclass
        assert len(first.hosts) == len(list(small_web.sites()))
        outages = [spec for spec in first.hosts.values() if spec.outages]
        assert len(outages) == 2

    def test_schedule_scales_rates_per_host(self, small_web):
        plan = WorkloadGenerator(small_web, seed="sched").fault_schedule(error_rate=0.2)
        rates = {spec.error_rate for spec in plan.hosts.values()}
        assert len(rates) > 1  # per-host jitter actually differentiates
        assert all(0.1 <= rate <= 0.3 for rate in rates)
