"""Tests for the DeepWebService facade, its builder and its surfacing runs."""

from __future__ import annotations

import io

import pytest

from repro import (
    DeepWebService,
    SearchEngine,
    SurfacingConfig,
    SurfacingPipeline,
    Web,
    WebConfig,
    generate_web,
)
from repro.search.engine import SOURCE_SURFACED
from repro.store import InMemoryBackend

pytestmark = pytest.mark.smoke

SMALL_WEB = WebConfig(total_deep_sites=3, surface_site_count=1, max_records=60, seed=3)


@pytest.fixture(scope="module")
def service():
    built = (
        DeepWebService.build()
        .web(SMALL_WEB)
        .surfacing(SurfacingConfig(max_urls_per_form=100))
        .create()
    )
    built.crawl(max_pages=100)
    built.surface()
    return built


class TestBuilder:
    def test_web_accepts_config_or_instance(self):
        from_config = DeepWebService.build().web(SMALL_WEB).create()
        assert len(from_config.web.deep_sites()) == 3

        existing = generate_web(SMALL_WEB)
        from_instance = DeepWebService.build().web(existing).create()
        assert from_instance.web is existing

    def test_web_rejects_other_types(self):
        with pytest.raises(TypeError):
            DeepWebService.build().web("example.com")

    def test_an_injected_engine_is_shared_with_pipeline(self):
        engine = SearchEngine()
        built = DeepWebService(pipeline=SurfacingPipeline(generate_web(SMALL_WEB), engine))
        assert built.engine is engine
        assert built.pipeline.prober.signature_cache is engine.signature_cache
        built.surface(built.web.deep_sites()[:1])
        assert len(engine) == built.report().urls_indexed > 0

    def test_storage_is_chosen_once(self, tmp_path):
        builder = DeepWebService.build().web(SMALL_WEB)
        builder.store(InMemoryBackend()).persist(tmp_path / "state")
        with pytest.raises(ValueError, match=r"at most one of store\(\), persist\(\)"):
            builder.create()
        assert not (tmp_path / "state").exists()  # refused before any file opens


class TestOperations:
    def test_surface_exposes_deep_content_to_search(self, service):
        assert service.results
        assert all(result.urls_indexed > 0 for result in service.results)
        site = service.web.deep_sites()[0]
        record = site.table.get(1)
        query = " ".join(str(record.get(key, "")) for key in ("title", "city") if record.get(key))
        hits = service.search(query or str(record.get("title", "deep")), k=10)
        assert any(hit.source == SOURCE_SURFACED for hit in hits)

    def test_per_site_timing_is_populated(self, service):
        assert all(result.elapsed_seconds > 0.0 for result in service.results)


class TestReport:
    def test_report_aggregates_results(self, service):
        report = service.report()
        assert report.sites_total == len(service.results)
        assert report.urls_indexed == sum(result.urls_indexed for result in service.results)
        assert report.store.by_source.get("surfaced") == report.urls_indexed
        assert report.crawl is service.crawl_stats
        assert len(report.sites) == report.sites_total

    def test_report_includes_stage_metrics(self, service):
        runs = service.report().stage_metrics["stage_runs"]
        assert runs["discover-forms"] == len(service.results)
        assert runs["index-pages"] >= 1

    def test_report_renders_deterministic_lines(self, service):
        text = str(service.report())
        for result in service.results:
            assert result.host in text
        assert "urls:" in text


class TestScheduler:
    def test_batches_preserve_global_progress_indices(self):
        events: list[tuple[int, int]] = []

        class IndexObserver:
            def on_site_start(self, site, index, total):
                events.append((index, total))

            def on_site_end(self, site, result, index, total):
                pass

            def on_stage_start(self, stage_name, ctx):
                pass

            def on_stage_end(self, stage_name, ctx, elapsed):
                pass

        built = (
            DeepWebService.build()
            .web(SMALL_WEB)
            .observer(IndexObserver())
            .create()
        )
        built.surface()
        assert events == [(0, 3), (1, 3), (2, 3)]

    def test_surface_replaces_previous_results(self):
        built = DeepWebService.build().web(SMALL_WEB).create()
        sites = built.web.deep_sites()
        built.surface(sites[:2])
        assert [result.host for result in built.results] == [site.host for site in sites[:2]]
        built.surface(sites[:1])
        assert [result.host for result in built.results] == [sites[0].host]

    def test_surface_resets_metrics_with_results(self):
        built = DeepWebService.build().web(SMALL_WEB).create()
        built.surface()
        built.surface()
        report = built.report()
        assert report.stage_metrics["stage_runs"]["discover-forms"] == report.sites_total

    def test_explicit_metrics_observer_is_wired(self):
        from repro import MetricsObserver

        web = generate_web(SMALL_WEB)
        metrics = MetricsObserver()
        built = DeepWebService(SurfacingPipeline(web), metrics=metrics)
        built.surface(web.deep_sites()[:1])
        assert metrics.as_dict()["stage_runs"]["discover-forms"] == 1

    def test_a_surface_that_raises_keeps_results_and_metrics(self):
        """The index still holds the first run's pages, so the report must
        still describe them (it read 0 sites before) -- every counter the
        metrics observer holds, although the failed run moved them all."""
        from repro.pipeline.observer import PipelineObserver

        class FailsSecondRun(PipelineObserver):
            """Raises as the second run reaches its second site."""

            starts = 0

            def on_site_start(self, site, index, total):
                self.starts += 1
                if self.starts == total + 2:
                    raise RuntimeError("gave up after the first site")

        built = DeepWebService.build().web(SMALL_WEB).observer(FailsSecondRun()).create()
        built.surface()
        before = built.report()
        with pytest.raises(RuntimeError):
            built.surface()
        after = built.report()
        assert after.sites_total == before.sites_total == 3
        assert after.urls_indexed == before.urls_indexed == after.store.by_source["surfaced"]
        assert set(after.stage_metrics) == {"stage_runs", "stage_seconds", "stage_fetches"}
        assert after.stage_metrics == before.stage_metrics
        assert sum(after.stage_metrics["stage_fetches"].values()) == after.analysis_load > 0


def test_progress_builder_hook_prints(car_site):
    web = Web()
    web.register(car_site)
    stream = io.StringIO()
    built = DeepWebService.build().web(web).progress(stream).create()
    built.surface()
    assert f"[1/1] surfacing {car_site.host} ..." in stream.getvalue()
