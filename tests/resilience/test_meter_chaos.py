"""LoadMeter error/retry accounting (the chaos-visibility satellite)."""

from __future__ import annotations

from repro.webspace.loadmeter import (
    AGENT_SURFACER,
    AGENT_VIRTUAL,
    LoadMeter,
)


class TestErrorRetryCounters:
    def test_counters_filter_by_host_and_agent(self):
        meter = LoadMeter()
        meter.record_error("a.example.com", AGENT_VIRTUAL)
        meter.record_error("a.example.com", AGENT_SURFACER)
        meter.record_error("b.example.com", AGENT_VIRTUAL)
        meter.record_retry("a.example.com", AGENT_VIRTUAL)
        assert meter.errors() == 3
        assert meter.errors(host="a.example.com") == 2
        assert meter.errors(agent=AGENT_VIRTUAL) == 2
        assert meter.errors(host="a.example.com", agent=AGENT_SURFACER) == 1
        assert meter.retries() == 1
        assert meter.retries(host="b.example.com") == 0

    def test_outcome_summarizes_one_host(self):
        meter = LoadMeter()
        assert not meter.outcome("clean.example.com").degraded
        meter.record("h.example.com", AGENT_VIRTUAL)
        meter.record("h.example.com", AGENT_VIRTUAL)
        meter.record_error("h.example.com", AGENT_VIRTUAL)
        meter.record_retry("h.example.com", AGENT_VIRTUAL)
        outcome = meter.outcome("h.example.com")
        assert (outcome.fetches, outcome.errors, outcome.retries) == (2, 1, 1)
        assert outcome.degraded

    def test_outcome_stays_clean_by_default(self):
        meter = LoadMeter()
        meter.record("h.example.com", AGENT_SURFACER)
        outcome = meter.outcome("h.example.com")
        assert (outcome.errors, outcome.retries) == (0, 0)
        assert not outcome.degraded
        meter.record_error("h.example.com", AGENT_SURFACER)
        meter.record_retry("h.example.com", AGENT_SURFACER)
        outcome = meter.outcome("h.example.com")
        assert (outcome.errors, outcome.retries) == (1, 1)

    def test_reset_clears_all_three_tables(self):
        meter = LoadMeter()
        meter.record("h.example.com", AGENT_VIRTUAL)
        meter.record_error("h.example.com", AGENT_VIRTUAL)
        meter.record_retry("h.example.com", AGENT_VIRTUAL)
        meter.reset()
        assert meter.total() == 0
        assert meter.errors() == 0
        assert meter.retries() == 0
