"""Tests for the deep-web impact analysis and experiment harness helpers."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import SCALES, build_query_log, build_world, surface_world
from repro.analysis.longtail import (
    FormImpact,
    ImpactReport,
    cumulative_impact_curve,
    deep_web_impact,
    forms_needed_for_share,
    head_tail_split,
)
from repro.search.querylog import KIND_HEAD, KIND_TAIL, Query, QueryLog


class TestImpactReportUnits:
    def _report(self) -> ImpactReport:
        report = ImpactReport(total_queries=10, total_volume=100)
        report.form_impacts = {
            "a": FormImpact(host="a", impacted_queries=6, impacted_volume=30),
            "b": FormImpact(host="b", impacted_queries=3, impacted_volume=10),
            "c": FormImpact(host="c", impacted_queries=1, impacted_volume=5),
        }
        report.queries_with_deep_result = 10
        report.head_queries = 4
        report.head_with_deep_result = 1
        report.tail_queries = 6
        report.tail_with_deep_result = 5
        return report

    def test_ordering_and_shares(self):
        report = self._report()
        impacts = report.impacts_by_rank()
        assert [impact.host for impact in impacts] == ["a", "b", "c"]
        assert report.share_of_top_forms(1) == pytest.approx(0.6)
        assert report.share_of_top_forms(2) == pytest.approx(0.9)

    def test_cumulative_curve_and_forms_needed(self):
        report = self._report()
        curve = cumulative_impact_curve(report)
        assert curve == pytest.approx([0.6, 0.9, 1.0])
        assert forms_needed_for_share(report, 0.5) == 1
        assert forms_needed_for_share(report, 0.95) == 3

    def test_head_tail_split(self):
        split = head_tail_split(self._report())
        assert split.head_rate == pytest.approx(0.25)
        assert split.tail_rate == pytest.approx(5 / 6)

    def test_rates_with_zero_queries(self):
        empty = ImpactReport()
        assert empty.deep_result_rate == 0.0
        assert empty.head_impact_rate == 0.0
        assert empty.tail_impact_rate == 0.0
        assert forms_needed_for_share(empty, 0.5) == 0


class TestDeepWebImpactOnWorld:
    def test_impact_is_concentrated_on_tail_queries(self, surfaced_world):
        report = deep_web_impact(surfaced_world.engine, surfaced_world.query_log, k=10)
        split = head_tail_split(report)
        assert report.queries_with_deep_result > 0
        assert split.tail_rate > split.head_rate, (
            "deep-web results should matter more for tail queries than head queries"
        )

    def test_attribution_only_to_surfaced_hosts(self, surfaced_world):
        report = deep_web_impact(surfaced_world.engine, surfaced_world.query_log, k=10)
        deep_hosts = {site.host for site in surfaced_world.web.deep_sites()}
        assert set(report.form_impacts.keys()) <= deep_hosts

    def test_share_curve_is_concentrating_but_not_degenerate(self, surfaced_world):
        report = deep_web_impact(surfaced_world.engine, surfaced_world.query_log, k=10)
        curve = cumulative_impact_curve(report)
        if len(curve) >= 2:
            assert curve[0] < 1.0 or len(curve) == 1
            assert curve[-1] == pytest.approx(1.0)

    def test_empty_log(self, surfaced_world):
        report = deep_web_impact(surfaced_world.engine, QueryLog([]), k=5)
        assert report.total_queries == 0
        assert report.form_impacts == {}


class TestExperimentHarness:
    def test_scales_are_defined(self):
        assert {"tiny", "small", "medium", "large"} <= set(SCALES.keys())

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            build_world("galactic")

    def test_build_world_crawls_by_default(self, crawled_world):
        assert crawled_world.crawl_stats is not None
        assert crawled_world.crawl_stats.indexed > 0
        assert len(crawled_world.engine) > 0

    def test_build_world_without_crawl(self):
        world = build_world("tiny", crawl=False)
        assert world.crawl_stats is None
        assert len(world.engine) == 0

    def test_surface_world_populates_results(self, surfaced_world):
        assert surfaced_world.surfacing_results
        assert sum(result.urls_indexed for result in surfaced_world.surfacing_results) > 0

    def test_query_log_attached(self, surfaced_world):
        assert surfaced_world.query_log is not None
        assert surfaced_world.query_log.total_volume == SCALES["tiny"]["query_volume"]
