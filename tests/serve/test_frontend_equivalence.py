"""Serving equivalence: the frontend is byte-identical to the plain engine.

Three claims over the same seeded Zipf workload:

* **cached == uncached**: a frontend with a result cache returns exactly
  what a cache-disabled frontend returns, entry for entry;
* **concurrent == serial**: eight workers replaying the workload produce
  the same rankings (scores included) as direct, serial
  ``engine.search`` calls;
* **post-invalidation**: after a mid-workload ingest the frontend serves
  the *new* corpus's rankings, identical to direct search -- never a
  stale cached list.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.serve.frontend import QueryFrontend
from repro.serve.loadgen import WorkloadGenerator
from repro.store.records import IngestRecord
from repro.util.text import tokenize
from repro.webspace.sitegen import WebConfig


@pytest.fixture(scope="module")
def served_service() -> DeepWebService:
    """A small crawled + surfaced world (module-scoped; tests may ingest
    *additional* documents but must not rely on a pristine index)."""
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=3, surface_site_count=2, max_records=50, seed=23))
        .surfacing(SurfacingConfig(max_urls_per_form=50))
        .create()
    )
    service.crawl(max_pages=120)
    service.surface()
    return service


def workload_for(service: DeepWebService, count: int, seed: str):
    stream = WorkloadGenerator(service.web, seed=seed).stream(count, k=10)
    assert len(stream) == count
    assert len({query.text for query in stream}) < count, "Zipf stream should repeat"
    return stream


def direct_results(service: DeepWebService, workload):
    return [service.engine.search(query.text, k=query.k) for query in workload]


class TestCachedVsUncachedVsConcurrent:
    def test_cached_equals_uncached_equals_direct(self, served_service):
        workload = workload_for(served_service, 300, seed="equiv")
        expected = direct_results(served_service, workload)

        with QueryFrontend(served_service.engine, workers=1, cache_size=0) as uncached:
            uncached_outcome = uncached.serve_workload(workload)
        with QueryFrontend(served_service.engine, workers=1, cache_size=512) as cached:
            cached_outcome = cached.serve_workload(workload)

        assert uncached_outcome.results == expected
        assert cached_outcome.results == expected
        assert uncached_outcome.stats.cache_hits == 0
        assert cached_outcome.stats.cache_hits > 0, "Zipf repeats must hit the cache"

    def test_concurrent_eight_workers_equals_direct(self, served_service):
        workload = workload_for(served_service, 300, seed="equiv")
        expected = direct_results(served_service, workload)
        with QueryFrontend(served_service.engine, workers=8, cache_size=512) as frontend:
            outcome = frontend.serve_workload(workload)
        assert outcome.results == expected
        assert outcome.stats.served == len(workload)

    def test_concurrent_equals_concurrent_replay(self, served_service):
        """Two concurrent replays of the same stream are identical to each
        other (thread scheduling cannot leak into results)."""
        workload = workload_for(served_service, 200, seed="replay")
        with QueryFrontend(served_service.engine, workers=8, cache_size=512) as first:
            one = first.serve_workload(workload).results
        with QueryFrontend(served_service.engine, workers=8, cache_size=512) as second:
            two = second.serve_workload(workload).results
        assert one == two


class TestFacadeLifecycle:
    def test_facade_replaces_a_closed_frontend(self, served_service):
        """``with service.frontend: ...`` must not wedge the serving path:
        the property hands out a fresh frontend after a close."""
        with served_service.frontend as first:
            first.serve("toyota", k=3)
        assert first.closed
        second = served_service.frontend
        assert second is not first and not second.closed
        assert second.serve("toyota", k=3) == served_service.engine.search("toyota", k=3)
        second.close()


class TestInvalidationEquivalence:
    def _fresh_records(self, tag: str) -> list[IngestRecord]:
        texts = [
            f"{tag} surfaced toyota camry special listing",
            f"{tag} surfaced apartment parking downtown",
        ]
        return [
            IngestRecord(
                url=f"http://ingest.{tag}.example.com/{index}",
                host=f"ingest.{tag}.example.com",
                title=f"{tag} {index}",
                text=text,
                tokens=tokenize(text),
                source="surfaced",
            )
            for index, text in enumerate(texts)
        ]

    def test_mid_workload_ingest_serves_fresh_rankings(self, served_service):
        workload = workload_for(served_service, 200, seed="invalidate")
        half = len(workload) // 2
        with QueryFrontend(served_service.engine, workers=8, cache_size=512) as frontend:
            first_expected = direct_results(served_service, workload[:half])
            first = frontend.serve_workload(workload[:half])
            assert first.results == first_expected

            # The write path (any content layer) lands new documents:
            # every cached ranking is now stale.
            served_service.engine.ingest_records(self._fresh_records("midworkload"))

            second_expected = direct_results(served_service, workload[half:])
            second = frontend.serve_workload(workload[half:])
            assert second.results == second_expected

    def test_repeated_query_across_ingest_reflects_new_corpus(self, served_service):
        query = "toyota camry"
        with QueryFrontend(served_service.engine, workers=2, cache_size=64) as frontend:
            before = frontend.serve(query, k=50)
            assert before == served_service.engine.search(query, k=50)
            served_service.engine.ingest_records(self._fresh_records("repeat"))
            after = frontend.serve(query, k=50)
            assert after == served_service.engine.search(query, k=50)
            new_urls = {result.url for result in after} - {result.url for result in before}
            assert any("ingest.repeat" in url for url in new_urls), (
                "the post-ingest ranking must include the new document"
            )
