"""Tests for web pages, error helpers and the load meter."""

from __future__ import annotations

from repro.webspace.loadmeter import (
    AGENT_CRAWLER,
    AGENT_SURFACER,
    AGENT_VIRTUAL,
    LoadMeter,
)
from repro.webspace.page import WebPage, method_not_allowed, not_found, server_error


class TestWebPage:
    def test_ok_flag(self):
        assert WebPage(url="http://a.com/", html="<html></html>").ok
        assert not WebPage(url="http://a.com/", html="x", status=404).ok

    def test_len_is_html_length(self):
        assert len(WebPage(url="u", html="abcd")) == 4

    def test_not_found_page(self):
        page = not_found("http://a.com/missing")
        assert page.status == 404
        assert "404" in page.html

    def test_method_not_allowed_page(self):
        page = method_not_allowed("http://a.com/post-form")
        assert page.status == 405
        assert "POST" in page.html

    def test_server_error_page(self):
        page = server_error("http://a.com/", "boom")
        assert page.status == 500
        assert "boom" in page.html


class TestLoadMeter:
    def test_records_and_totals(self):
        meter = LoadMeter()
        meter.record("a.com", AGENT_CRAWLER)
        meter.record("a.com", AGENT_CRAWLER)
        meter.record("a.com", AGENT_SURFACER)
        meter.record("b.com", AGENT_VIRTUAL)
        assert meter.total() == 4
        assert meter.total(host="a.com") == 3
        assert meter.total(host="a.com", agent=AGENT_CRAWLER) == 2
        assert meter.total(agent=AGENT_VIRTUAL) == 1

    def test_unknown_host_is_zero(self):
        assert LoadMeter().total(host="nowhere.com") == 0

    def test_outcome(self):
        meter = LoadMeter()
        meter.record("a.com", AGENT_SURFACER)
        outcome = meter.outcome("a.com")
        assert (outcome.host, outcome.fetches, outcome.errors, outcome.retries) == (
            "a.com", 1, 0, 0
        )
        assert meter.total(host="a.com", agent=AGENT_SURFACER) == 1

    def test_hosts_sorted(self):
        meter = LoadMeter()
        meter.record("b.com", AGENT_CRAWLER)
        meter.record("a.com", AGENT_CRAWLER)
        assert meter.hosts() == ["a.com", "b.com"]

    def test_per_host_and_max(self):
        meter = LoadMeter()
        for _ in range(3):
            meter.record("a.com", AGENT_CRAWLER)
        meter.record("b.com", AGENT_CRAWLER)
        assert meter.per_host() == {"a.com": 3, "b.com": 1}
        assert meter.max_per_host() == 3

    def test_reset(self):
        meter = LoadMeter()
        meter.record("a.com", AGENT_CRAWLER)
        meter.reset()
        assert meter.total() == 0
        assert meter.max_per_host() == 0
