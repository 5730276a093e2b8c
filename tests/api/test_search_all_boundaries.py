"""Regression tests for the cross-corpus read's boundary behavior.

The representation floor (``min_per_source``) must top up a requested
ranking, never manufacture one: before the fix, ``k=0`` with a positive
floor returned floor-only entries, and a negative ``k`` sliced the *end*
off the full ranking (``full[:k]``), returning nearly every match.
These tests pin the contract: no crash on empty corpora, no padding for
sources smaller than the floor, and stable ordering call over call.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService
from repro.core.surfacer import SurfacingConfig
from repro.util.text import tokenize
from repro.webspace.sitegen import WebConfig


def cross_corpus(service: DeepWebService, query: str, k: int = 20, min_per_source: int = 3):
    """The indexed-only cross-corpus read: one ranked list over every source."""
    return service.query(
        query, k=k, min_per_source=min_per_source, include_webtables=False
    ).results


@pytest.fixture(scope="module")
def service() -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=3, surface_site_count=1, max_records=50, seed=11))
        .surfacing(SurfacingConfig(max_urls_per_form=50))
        .create()
    )
    service.crawl(max_pages=100)
    service.surface()
    return service


@pytest.fixture(scope="module")
def multi_source_query(service) -> str:
    """A query matching documents from at least two source tags."""
    cross_corpus(service, "warmup", k=1, min_per_source=3)  # populate the webtables route
    for doc in service.engine.documents():
        tokens = tokenize(doc.text, drop_stopwords=True)[:2]
        if not tokens:
            continue
        query = " ".join(tokens)
        sources = {r.source for r in service.engine.search(query, k=len(service.engine))}
        if len(sources) >= 2:
            return query
    pytest.fail("seeded corpus should offer a multi-source query")


class TestNonPositiveK:
    def test_k_zero_returns_empty_even_with_floor(self, service, multi_source_query):
        assert cross_corpus(service, multi_source_query, k=0, min_per_source=3) == []

    def test_k_zero_with_zero_floor_returns_empty(self, service, multi_source_query):
        assert cross_corpus(service, multi_source_query, k=0, min_per_source=0) == []

    def test_negative_k_returns_empty_not_a_truncated_full_ranking(
        self, service, multi_source_query
    ):
        assert cross_corpus(service, multi_source_query, k=-1, min_per_source=3) == []
        assert cross_corpus(service, multi_source_query, k=-5, min_per_source=0) == []


class TestEmptyAndSmallCorpora:
    def test_empty_corpus_returns_empty(self):
        empty = DeepWebService.build().web(WebConfig(
            total_deep_sites=0, surface_site_count=0, max_records=10, seed=2
        )).create()
        assert cross_corpus(empty, "anything at all", k=10, min_per_source=3) == []

    def test_no_matches_returns_empty_without_padding(self, service):
        assert cross_corpus(service, "zzzz qqqq xxxx", k=10, min_per_source=5) == []

    def test_source_smaller_than_floor_contributes_what_it_has(
        self, service, multi_source_query
    ):
        """No padding: a source with fewer matches than the floor appears
        exactly as often as it matches, never more."""
        full = service.engine.search(multi_source_query, k=len(service.engine))
        available: dict[str, int] = {}
        for result in full:
            available[result.source] = available.get(result.source, 0) + 1
        floor = max(available.values()) + 2  # larger than any source has
        merged = cross_corpus(service, multi_source_query, k=3, min_per_source=floor)
        got: dict[str, int] = {}
        for result in merged:
            got[result.source] = got.get(result.source, 0) + 1
        assert got == available  # everything that matches, nothing invented
        assert len(merged) == len(full)

    def test_floor_exceeding_corpus_never_duplicates(self, service, multi_source_query):
        merged = cross_corpus(service, multi_source_query, k=5, min_per_source=10_000)
        doc_ids = [result.doc_id for result in merged]
        assert len(doc_ids) == len(set(doc_ids))


class TestHarvestShortCircuit:
    def test_settled_corpus_is_not_rescanned(self, service, multi_source_query):
        """The cross-corpus read harvests first on every call; once the store has
        settled, that must be a constant-time no-op, not a re-fetch of
        every document and site."""
        from repro.webspace.loadmeter import AGENT_WEBTABLES

        cross_corpus(service, multi_source_query, k=5, min_per_source=3)  # settles the harvest
        load_before = service.web.load_meter.total(agent=AGENT_WEBTABLES)
        assert service.harvest_tables() == 0
        cross_corpus(service, multi_source_query, k=5, min_per_source=3)
        assert service.web.load_meter.total(agent=AGENT_WEBTABLES) == load_before

    def test_new_ingest_reopens_the_harvest(self, service):
        from repro.search.engine import SOURCE_SURFACE, IngestRecord
        from repro.webspace.loadmeter import AGENT_WEBTABLES

        cross_corpus(service, "anything", k=1, min_per_source=3)  # settled
        site = service.web.deep_sites()[0]
        table = site.table
        url = str(site.detail_url(table.primary_keys()[0]))
        page = service.web.fetch(url, agent=AGENT_WEBTABLES)
        # Land a page the harvest has not seen under a fresh URL.
        service.engine.ingest_records([
            IngestRecord(
                url=url + "?reopen=1", host=site.host, title=page.url,
                text="reopen harvest probe page", tokens=["reopen", "harvest"],
                source=SOURCE_SURFACE,
            )
        ])
        load_before = service.web.load_meter.total(agent=AGENT_WEBTABLES)
        service.harvest_tables()
        assert service.web.load_meter.total(agent=AGENT_WEBTABLES) > load_before, (
            "a store that grew since the last harvest must be rescanned"
        )

    def test_larger_detail_budget_reopens_the_harvest(self, service):
        cross_corpus(service, "anything", k=1, min_per_source=3)
        assert service.harvest_tables(detail_pages_per_site=10) == 0  # settled
        counts_before = dict(service._harvest.detail_counts)
        service.harvest_tables(detail_pages_per_site=12)
        counts_after = service._harvest.detail_counts
        assert any(
            counts_after[host] > counts_before.get(host, 0) for host in counts_after
        ), "a larger budget must fetch the difference"


class TestStableOrdering:
    def test_repeated_calls_identical(self, service, multi_source_query):
        first = cross_corpus(service, multi_source_query, k=5, min_per_source=2)
        second = cross_corpus(service, multi_source_query, k=5, min_per_source=2)
        assert first == second

    def test_merged_list_is_score_ordered_with_doc_id_ties(
        self, service, multi_source_query
    ):
        merged = cross_corpus(service, multi_source_query, k=5, min_per_source=2)
        assert len(merged) >= 5
        keys = [(-result.score, result.doc_id) for result in merged]
        assert keys == sorted(keys)

    def test_floor_entries_preserve_relative_rank_order(self, service, multi_source_query):
        """Every result the floor pulls up appears in the same relative
        order it holds in the full ranking."""
        full = service.engine.search(multi_source_query, k=len(service.engine))
        position = {result.doc_id: index for index, result in enumerate(full)}
        merged = cross_corpus(service, multi_source_query, k=5, min_per_source=2)
        positions = [position[result.doc_id] for result in merged]
        assert positions == sorted(positions)

    def test_pure_topk_path_unchanged(self, service, multi_source_query):
        assert (
            cross_corpus(service, multi_source_query, k=7, min_per_source=0)
            == service.engine.search(multi_source_query, k=7)
        )
