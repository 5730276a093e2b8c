"""Tests for the end-to-end surfacing pipeline."""

from __future__ import annotations

import pytest

from repro.core.surfacer import SurfacingConfig
from repro.datagen.domains import domain
from repro.pipeline import SurfacingPipeline
from repro.search.engine import SOURCE_SURFACED, SearchEngine
from repro.util.rng import SeededRng
from repro.webspace.loadmeter import AGENT_SURFACER
from repro.webspace.sitegen import build_deep_site
from repro.webspace.web import Web


@pytest.fixture
def car_world(car_site):
    web = Web()
    web.register(car_site)
    engine = SearchEngine()
    return web, engine, car_site


class TestSurfaceSite:
    def test_surfacing_covers_most_of_the_site(self, car_world):
        web, engine, site = car_world
        surfacer = SurfacingPipeline(web, engine, SurfacingConfig(max_urls_per_form=300))
        result = surfacer.surface_site(site)
        assert result.forms_found == 1
        assert result.forms_surfaced == 1
        assert result.urls_indexed > 0
        assert result.records_covered / site.size() > 0.8
        assert result.coverage is not None
        assert result.coverage.true_coverage > 0.8

    def test_surfaced_pages_land_in_the_index(self, car_world):
        web, engine, site = car_world
        SurfacingPipeline(web, engine).surface_site(site)
        surfaced_docs = engine.documents(source=SOURCE_SURFACED)
        assert surfaced_docs
        assert all(doc.host == site.host for doc in surfaced_docs)
        assert all(doc.annotations for doc in surfaced_docs), "annotations stored per page"

    def test_surfaced_content_is_searchable(self, car_world):
        web, engine, site = car_world
        SurfacingPipeline(web, engine).surface_site(site)
        record = site.table.get(1)
        query = f"{record['year']} {record['make']} {record['model']}"
        results = engine.search(query, k=5)
        assert results
        assert any(result.source == SOURCE_SURFACED and result.host == site.host for result in results)

    def test_post_form_site_is_skipped(self):
        site = build_deep_site(domain("jobs"), "postjobs.test", 30, SeededRng(4), method="post")
        web = Web()
        web.register(site)
        result = SurfacingPipeline(web, SearchEngine()).surface_site(site)
        assert result.post_forms_skipped == 1
        assert result.forms_surfaced == 0
        assert result.urls_indexed == 0

    def test_typed_inputs_detected_during_surfacing(self, car_world):
        web, engine, site = car_world
        result = SurfacingPipeline(web, engine).surface_site(site)
        form_result = result.form_results[0]
        assert "zipcode" in set(form_result.typed_inputs.values())
        assert {pair.property_name for pair in form_result.range_pairs} >= {"price"}

    def test_database_selection_detected_on_media_site(self, media_site):
        web = Web()
        web.register(media_site)
        result = SurfacingPipeline(web, SearchEngine()).surface_site(media_site)
        form_result = result.form_results[0]
        assert form_result.database_selection is not None
        assert result.records_covered > 0

    def test_analysis_load_is_bounded(self, car_world):
        web, engine, site = car_world
        config = SurfacingConfig(max_urls_per_form=150)
        result = SurfacingPipeline(web, engine, config).surface_site(site)
        # Off-line analysis load stays within a small constant factor of the
        # site's database size (the paper's "light load" claim).
        assert result.analysis_load <= 12 * site.size()
        assert result.analysis_load == web.load_meter.total(host=site.host, agent=AGENT_SURFACER)

    def test_indexability_criterion_bounds_results_per_page(self, car_world):
        web, engine, site = car_world
        config = SurfacingConfig(min_results_per_page=1, max_results_per_page=20)
        result = SurfacingPipeline(web, engine, config).surface_site(site)
        for form_result in result.form_results:
            stats = form_result.generation_stats
            assert stats.rejected_too_many >= 0
            assert stats.kept == form_result.urls_kept
        # No kept page may exceed the bound.
        for form_result in result.form_results:
            for record_set in form_result.record_sets:
                assert len(record_set) <= 20


class TestSurfaceWeb:
    def test_surfaces_every_get_site(self, surfaced_world):
        results = surfaced_world.surfacing_results
        assert results
        get_sites = [
            result for result in results if result.post_forms_skipped == 0 and result.forms_found > 0
        ]
        assert all(result.urls_indexed > 0 for result in get_sites)

    def test_urls_generated_scale_with_database_size(self, surfaced_world):
        """URLs should track database size, not the Cartesian query space."""
        results = [result for result in surfaced_world.surfacing_results if result.urls_indexed > 0]
        for result in results:
            site = surfaced_world.web.site(result.host)
            assert result.urls_generated <= 6 * site.size() + 60

    def test_deterministic_given_seed(self, car_site):
        def run() -> int:
            web = Web()
            web.register(
                build_deep_site(domain("books"), "det.test", 40, SeededRng("determinism"))
            )
            surfacer = SurfacingPipeline(web, SearchEngine(), SurfacingConfig(seed=3))
            return surfacer.surface_many(web.deep_sites())[0].urls_indexed

        assert run() == run()
