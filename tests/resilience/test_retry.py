"""RetryPolicy/ResilientWeb: bounded, deterministic, metered retries."""

from __future__ import annotations

import pytest

from repro.resilience.faults import (
    KIND_ERROR,
    KIND_OUTAGE,
    KIND_TIMEOUT,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    FaultyWeb,
    ScriptedFaults,
)
from repro.resilience.retry import ResilientWeb, RetryPolicy
from repro.webspace.web import (
    FetchTimeout,
    HostUnavailable,
    TransientFetchError,
)

ERROR = FaultDecision(kind=KIND_ERROR)


def resilient(car_web, script, **policy_kwargs) -> ResilientWeb:
    policy = RetryPolicy(seed="retry-test", **policy_kwargs)
    return ResilientWeb(FaultyWeb(car_web, script), policy=policy)


class TestBackoff:
    def test_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.5, seed=5)
        url = "http://h.example.com/?page=2"
        delays = [policy.backoff_delay(url, attempt) for attempt in (1, 2, 3)]
        assert delays == [policy.backoff_delay(url, attempt) for attempt in (1, 2, 3)]
        for attempt, delay in zip((1, 2, 3), delays):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert base * 0.5 <= delay <= base * 1.5
        assert RetryPolicy(seed=6).backoff_delay(url, 1) != delays[0]

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0)
        assert policy.backoff_delay("k", 5) == 2.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestRetryLoop:
    def test_transient_failure_retried_to_success(self, car_site, car_web):
        web = resilient(
            car_web, ScriptedFaults({car_site.host: [ERROR, ERROR]}), max_attempts=3
        )
        page = web.fetch(car_site.homepage_url())
        assert page.ok
        meter = web.load_meter
        assert meter.retries(host=car_site.host) == 2
        assert meter.errors(host=car_site.host) == 2
        # Two failed attempts + the final success all reached the host.
        assert meter.total(host=car_site.host) == 3
        assert web.retry_delay_total > 0.0
        assert web.exhausted_fetches == 0

    def test_attempts_bounded(self, car_site, car_web):
        web = resilient(
            car_web, ScriptedFaults({car_site.host: [ERROR] * 5}), max_attempts=3
        )
        with pytest.raises(TransientFetchError):
            web.fetch(car_site.homepage_url())
        assert web.load_meter.retries(host=car_site.host) == 2  # 3 attempts, 2 retries
        assert web.exhausted_fetches == 1

    def test_non_retryable_fails_immediately(self, car_site, car_web):
        web = resilient(
            car_web,
            ScriptedFaults({car_site.host: [FaultDecision(kind=KIND_OUTAGE)]}),
            max_attempts=5,
        )
        with pytest.raises(HostUnavailable):
            web.fetch(car_site.homepage_url())
        assert web.load_meter.retries(host=car_site.host) == 0

    def test_timeouts_are_retryable(self, car_site, car_web):
        web = resilient(
            car_web,
            ScriptedFaults(
                {car_site.host: [FaultDecision(kind=KIND_TIMEOUT, latency=0.5)]}
            ),
            max_attempts=2,
        )
        assert web.fetch(car_site.homepage_url()).ok
        assert web.load_meter.retries(host=car_site.host) == 1

    def test_total_deadline_exhausts_retry_budget(self, car_site, car_web):
        """Virtual time (stalls + backoff) is capped: a fetch that would
        sleep past the deadline fails as a timeout instead of retrying."""
        web = resilient(
            car_web,
            ScriptedFaults({car_site.host: [ERROR] * 10}),
            max_attempts=10,
            base_delay=1.0,
            jitter=0.0,
            total_deadline=2.5,
        )
        with pytest.raises(FetchTimeout) as excinfo:
            web.fetch(car_site.homepage_url())
        assert "retry budget exhausted" in str(excinfo.value)
        # The first delay (1.0) fits; the second (2.0) would push spent
        # virtual time to 3.0 > 2.5, so the loop gives up after one retry.
        assert web.load_meter.retries(host=car_site.host) == 1

    def test_retry_schedule_replays_identically(self, car_site):
        """Same (policy seed, url, script) -> identical accounted delays."""

        def run() -> float:
            from repro.datagen.domains import domain
            from repro.util.rng import SeededRng
            from repro.webspace.sitegen import build_deep_site
            from repro.webspace.web import Web

            site = build_deep_site(
                domain("used_cars"), car_site.host, 20, SeededRng("retry-replay")
            )
            web = Web()
            web.register(site)
            wrapped = resilient(
                web, ScriptedFaults({site.host: [ERROR, ERROR]}), max_attempts=3
            )
            wrapped.fetch(site.homepage_url())
            return wrapped.retry_delay_total

        assert run() == run()


class TestRetryStormVisibility:
    def test_storm_shows_up_in_load_meter(self, car_site, car_web):
        """Regression: a retry storm must be visible per host, not silent.

        A flaky host under a generous retry policy multiplies fetch
        attempts; the meter's errors/retries counters (and the per-host
        FetchOutcome) are the only way operators see that amplification.
        """
        plan = FaultPlan(
            seed="storm", hosts={car_site.host: FaultSpec(error_rate=0.6)}
        )
        web = ResilientWeb(
            FaultyWeb(car_web, plan), policy=RetryPolicy(max_attempts=4, seed="storm")
        )
        served = 0
        for _ in range(40):
            try:
                web.fetch(car_site.homepage_url())
                served += 1
            except Exception as exc:  # noqa: BLE001 - soak must record, not crash
                assert isinstance(exc, (TransientFetchError, FetchTimeout))
        meter = web.load_meter
        outcome = meter.outcome(car_site.host)
        assert served > 0
        assert outcome.retries > 10, "storm amplification must be metered"
        assert outcome.errors > 10
        assert outcome.degraded
