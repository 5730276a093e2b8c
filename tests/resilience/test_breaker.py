"""CircuitBreaker state machine under a fake clock (no real waiting)."""

from __future__ import annotations

import pytest

from repro.resilience.retry import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerRegistry,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make_breaker(clock: FakeClock, **kwargs) -> CircuitBreaker:
    defaults = dict(
        failure_threshold=0.5, window=4, min_calls=4, cooldown=10.0,
        half_open_probes=2, clock=clock,
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestClosedToOpen:
    def test_stays_closed_below_min_calls(self, clock):
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()  # 3 failures < min_calls=4
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_trips_at_failure_threshold(self, clock):
        breaker = make_breaker(clock)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # 1/3 failures, below threshold
        breaker.record_failure()  # 2/4 -> 50% >= threshold
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_sliding_window_forgets_old_failures(self, clock):
        breaker = make_breaker(clock, window=4, min_calls=4)
        breaker.record_failure()
        breaker.record_failure()
        for _ in range(4):  # pushes both failures out of the window
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            make_breaker(clock, failure_threshold=0.0)
        with pytest.raises(ValueError):
            make_breaker(clock, window=0)


class TestCooldownAndHalfOpen:
    def trip(self, breaker: CircuitBreaker) -> None:
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == STATE_OPEN

    def test_open_until_cooldown_elapses(self, clock):
        breaker = make_breaker(clock)
        self.trip(breaker)
        clock.advance(9.9)
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_admits_limited_probes(self, clock):
        breaker = make_breaker(clock, half_open_probes=2)
        self.trip(breaker)
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe quota spent

    def test_probe_successes_reclose(self, clock):
        breaker = make_breaker(clock, half_open_probes=2)
        self.trip(breaker)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_HALF_OPEN  # one probe is not enough
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        # Re-closed with a fresh window: one failure cannot re-trip.
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(self, clock):
        breaker = make_breaker(clock)
        self.trip(breaker)
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        clock.advance(9.0)  # cooldown restarted at the re-trip
        assert breaker.state == STATE_OPEN
        clock.advance(1.0)
        assert breaker.state == STATE_HALF_OPEN


class TestBreakerRegistry:
    def test_one_breaker_per_host_with_shared_config(self, clock):
        registry = BreakerRegistry(min_calls=1, window=1, clock=clock)
        breaker = registry.for_host("a.example.com")
        assert registry.for_host("a.example.com") is breaker
        assert registry.for_host("b.example.com") is not breaker
        breaker.record_failure()
        assert registry.states() == {
            "a.example.com": STATE_OPEN,
            "b.example.com": STATE_CLOSED,
        }
        assert registry.open_hosts() == ["a.example.com"]
        assert registry.trips() == 1

    def test_skips_tracked_per_host(self):
        registry = BreakerRegistry()
        registry.record_skip("a.example.com")
        registry.record_skip("a.example.com")
        registry.record_skip("b.example.com")
        assert registry.skips("a.example.com") == 2
        assert registry.skips() == 3
