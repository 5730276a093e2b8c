"""Tests for the SurfacingPipeline composer: stage lists, observers,
progress events and per-site timing."""

from __future__ import annotations

import io

import pytest

from repro import MetricsObserver, ProgressObserver, SurfacingConfig, SurfacingPipeline
from repro.pipeline import SCOPE_FORM, default_stages
from repro.pipeline.observer import PipelineObserver
from repro.search.engine import SOURCE_SURFACED, SearchEngine

pytestmark = pytest.mark.smoke


class RecordingObserver(PipelineObserver):
    """Logs every event as a plain tuple."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_site_start(self, site, index, total):
        self.events.append(("site-start", site.host, index, total))

    def on_site_end(self, site, result, index, total):
        self.events.append(("site-end", site.host, index, total, result.urls_indexed))

    def on_stage_start(self, stage_name, ctx):
        self.events.append(("stage-start", stage_name))

    def on_stage_end(self, stage_name, ctx, elapsed):
        self.events.append(("stage-end", stage_name))


class TallyStage:
    """A custom form-scoped stage that counts its executions."""

    name = "tally"
    scope = SCOPE_FORM

    def __init__(self) -> None:
        self.runs = 0

    def run(self, ctx):
        self.runs += 1
        return ctx


class TestStageLists:
    def test_a_stage_list_without_indexing_ablates_it(self, car_web, car_site):
        stages = [stage for stage in default_stages() if stage.name != "index-pages"]
        pipeline = SurfacingPipeline(car_web, SearchEngine(), SurfacingConfig(), stages=stages)
        result = pipeline.surface_site(car_site)
        assert result.forms_surfaced == 1
        assert result.form_results[0].urls_kept > 0
        assert result.urls_indexed == 0
        assert pipeline.engine.documents(source=SOURCE_SURFACED) == []

    def test_a_custom_stage_runs_in_place_of_a_default(self, car_web, car_site):
        tally = TallyStage()
        stages = [tally if stage.name == "index-pages" else stage for stage in default_stages()]
        pipeline = SurfacingPipeline(car_web, SearchEngine(), SurfacingConfig(), stages=stages)
        pipeline.surface_site(car_site)
        assert tally.runs == 1


class TestObserversAndProgress:
    def test_event_order_for_one_site(self, car_web, car_site):
        observer = RecordingObserver()
        pipeline = SurfacingPipeline(car_web, observers=[observer])
        pipeline.surface_many([car_site])
        kinds_and_names = [event[:2] for event in observer.events]
        assert kinds_and_names[0] == ("site-start", car_site.host)
        assert kinds_and_names[1] == ("stage-start", "discover-forms")
        assert kinds_and_names[-1] == ("site-end", car_site.host)
        # Form-scoped stages ran in paper order between discovery and site end.
        stage_starts = [name for kind, name in kinds_and_names if kind == "stage-start"]
        assert stage_starts == [
            "discover-forms",
            "classify-inputs",
            "detect-correlations",
            "candidate-values",
            "select-templates",
            "generate-urls",
            "index-pages",
        ]

    def test_surface_many_reports_global_indices(self, small_web):
        observer = RecordingObserver()
        pipeline = SurfacingPipeline(small_web, observers=[observer])
        sites = small_web.deep_sites()[:3]
        pipeline.surface_many(sites, start_index=5, total=11)
        starts = [event for event in observer.events if event[0] == "site-start"]
        assert [(index, total) for _kind, _host, index, total in starts] == [
            (5, 11),
            (6, 11),
            (7, 11),
        ]

    def test_progress_observer_prints_deterministic_lines(self, car_web, car_site):
        stream = io.StringIO()
        pipeline = SurfacingPipeline(car_web, observers=[ProgressObserver(stream)])
        result = pipeline.surface_many([car_site])[0]
        lines = stream.getvalue().splitlines()
        assert lines[0] == f"[1/1] surfacing {car_site.host} ..."
        assert lines[1] == (
            f"[1/1] surfaced {car_site.host}: forms=1/1 "
            f"urls={result.urls_indexed} records={result.records_covered}"
        )

    def test_metrics_observer_counts_stages_only(self, car_web, car_site):
        metrics = MetricsObserver()
        pipeline = SurfacingPipeline(car_web, observers=[metrics])
        result = pipeline.surface_many([car_site])[0]
        assert metrics.stage_runs["discover-forms"] == 1
        assert metrics.stage_runs["index-pages"] == 1
        assert set(metrics.stage_seconds) == set(metrics.stage_runs)
        # Stage counters only: site totals have one owner, the results.
        assert set(metrics.as_dict()) == {"stage_runs", "stage_seconds", "stage_fetches"}
        assert metrics.as_dict()["stage_runs"]["generate-urls"] == 1
        # Every surfacer fetch happens inside a stage, so the ledger adds up.
        assert set(metrics.stage_fetches) == set(metrics.stage_runs)
        assert metrics.stage_fetches["discover-forms"] == 1
        assert metrics.stage_fetches["index-pages"] == 0
        assert sum(metrics.stage_fetches.values()) == result.analysis_load

    def test_per_site_timing_is_recorded(self, car_web, car_site):
        pipeline = SurfacingPipeline(car_web)
        result = pipeline.surface_site(car_site)
        assert result.elapsed_seconds > 0.0
