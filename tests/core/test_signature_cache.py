"""Equivalence and behaviour tests for the single-pass analysis cache."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import informativeness
from repro.core.informativeness import SignatureCache, analyze_html
from repro.datagen.domains import domain, domain_names
from repro.htmlparse.dom import parse_html
from repro.htmlparse.links import extract_links, resolve_links
from repro.htmlparse.text import extract_text, extract_title
from repro.util.rng import SeededRng
from repro.webspace.sitegen import (
    WebConfig,
    build_deep_site,
    generate_surface_sites,
    generate_web,
)
from repro.webspace.web import Web

pytestmark = pytest.mark.smoke


def corpus_pages():
    """A mixed bag of real generated pages: homepages, results, details."""
    web = generate_web(WebConfig(total_deep_sites=4, surface_site_count=1, max_records=60, seed=3))
    pages = []
    for site in web.sites():
        homepage = web.fetch(site.homepage_url())
        pages.append(homepage)
        for link in extract_links(homepage.html, homepage.url)[:6]:
            pages.append(web.fetch(link))
    return pages


class TestSinglePassAnalysis:
    def test_matches_legacy_extractors_on_generated_pages(self):
        for page in corpus_pages():
            dom = parse_html(page.html)
            analysis = analyze_html(page.html)
            assert analysis.title == extract_title(dom)
            assert analysis.text == extract_text(dom)
            assert resolve_links(analysis.hrefs, page.url) == extract_links(dom, page.url)
            assert resolve_links(analysis.hrefs, None) == extract_links(dom, None)

    def test_text_quirks_preserved(self):
        # Parent text chunks precede children's; skip tags hide text but not
        # anchors; the title is collected from anywhere in the document.
        html = (
            "<html><head><title>T</title></head><body>"
            "<div>before<span>inner</span>after</div>"
            '<noscript>hidden <a href="http://h.test/item?id=1">x</a></noscript>'
            "<script>var junk = 1;</script>"
            "</body></html>"
        )
        analysis = analyze_html(html)
        dom = parse_html(html)
        assert analysis.text == extract_text(dom)
        assert analysis.text == "T before after inner"
        assert "http://h.test/item?id=1" in analysis.hrefs


class TestCachedVsUncachedSignatures:
    def test_identical_signatures_for_every_page_and_base(self):
        cache = SignatureCache()
        uncached = SignatureCache(max_entries=0)
        for page in corpus_pages():
            for base in (None, page.url):
                first = cache.signature(page.html, page_url=base)
                second = cache.signature(page.html, page_url=base)  # cache hit
                fresh = uncached.signature(page.html, page_url=base)
                assert first == second == fresh
        assert cache.hits > 0
        assert len(uncached) == 0

    def test_signatures_with_and_without_a_base_agree_on_absolute_links(self):
        cache = SignatureCache()
        html = (
            "<html><body><p>2 results found</p>"
            '<a href="/item?id=7">A</a><a href="/item?id=9">B</a></body></html>'
        )
        absolute = html.replace('href="/item', 'href="http://cars.test/item')
        assert cache.signature(absolute) == cache.signature(
            absolute, page_url="http://cars.test/search"
        )
        relative = cache.signature(html, page_url="http://cars.test/search")
        assert relative.record_ids == {"cars.test#7", "cars.test#9"}
        # Without a base the relative links cannot resolve.
        assert cache.signature(html).record_ids == frozenset()

    def test_distinct_bases_are_cached_separately(self):
        cache = SignatureCache()
        html = '<html><body><a href="/item?id=1">x</a></body></html>'
        first = cache.signature(html, page_url="http://a.test/search")
        second = cache.signature(html, page_url="http://b.test/search")
        assert first.record_ids == {"a.test#1"}
        assert second.record_ids == {"b.test#1"}


class TestCacheMechanics:
    def test_eviction_bounds_entries(self):
        cache = SignatureCache(max_entries=4)
        for index in range(10):
            cache.analyze(f"<html><body>page {index}</body></html>")
        assert len(cache) <= 4

    def test_eviction_preserves_other_signatures(self):
        # Evicting one page's analysis must not wipe the signatures derived
        # from other (still-cached) pages.
        cache = SignatureCache(max_entries=3)
        pages = [
            f'<html><body><a href="/item?id={index}">r</a></body></html>'
            for index in range(3)
        ]
        for page in pages:
            cache.signature(page, page_url="http://h.test/search")
        cache.analyze("<html><body>a fourth page</body></html>")  # evicts one
        hits_before = cache.hits
        survivor = cache.signature(pages[-1], page_url="http://h.test/search")
        assert survivor.record_ids == {"h.test#2"}
        assert cache.hits == hits_before + 1  # served from cache, not re-derived

    def test_stats_and_clear(self):
        cache = SignatureCache()
        cache.analyze("<html><body>x</body></html>")
        cache.analyze("<html><body>x</body></html>")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.clear()
        assert cache.stats()["entries"] == 0

    def test_the_tag_memo_is_the_caches_and_bounded_by_it(self):
        page = '<html><body><p>x</p><a href="/item?id=1">r</a></body></html>'
        cache = SignatureCache()
        cache.analyze(page)
        assert cache._tags['<a href="/item?id=1">'] == (2, "a", "/item?id=1", False)
        assert cache._tags["</p>"] == (1, "p", "", False)
        cache.clear()
        assert cache._tags == {}
        storeless = SignatureCache(max_entries=0)
        storeless.analyze(page)
        assert storeless._tags == {}
        small = SignatureCache(max_entries=8)
        for index in range(10):
            small.analyze(f"<html><body><p id={index}>x</p></body></html>")
            assert len(small._tags) <= 8

    def test_a_lone_surrogate_is_analyzed_not_raised_on(self):
        html = "<html><body><p>x\udcff</p></body></html>"
        signature = SignatureCache().signature(html)
        assert signature.content_hash == hashlib.sha1(
            "x\udcff".encode("utf-8", "surrogatepass")
        ).hexdigest()[:16]
        assert analyze_html(html).text == "x\udcff"

    def test_error_pages_short_circuit(self):
        cache = SignatureCache()
        assert cache.signature("anything", status_ok=False).is_error
        assert cache.stats()["misses"] == 0  # nothing was analyzed

    def test_injected_empty_cache_is_not_mistaken_for_missing(self):
        # An empty cache is falsy (len == 0); the seam must still honor it
        # instead of silently building its own.
        from repro.core.probe import FormProber
        from repro.pipeline.pipeline import SurfacingPipeline
        from repro.search.crawler import Crawler
        from repro.search.engine import SearchEngine

        injected = SignatureCache()
        engine = SearchEngine(signature_cache=injected)
        assert engine.signature_cache is injected
        assert FormProber(Web(), signature_cache=injected).signature_cache is injected
        # The engine's cache is the one its crawler and its pipeline use.
        assert Crawler(Web(), engine).ingestor.signature_cache is injected
        assert SurfacingPipeline(Web(), engine).prober.signature_cache is injected


SMALL_WEB = WebConfig(total_deep_sites=2, surface_site_count=1, max_records=40, seed=5)


def surfaced(engine=None):
    from repro.api import DeepWebService

    builder = DeepWebService.build().web(SMALL_WEB)
    service = (builder.engine(engine) if engine is not None else builder).create()
    service.crawl(max_pages=40)
    service.surface()
    return service


def surfacing_outcome(service):
    """What a surfacing run produced, timing-free: per-site counters plus
    the index contents (the benchmark's surfacing digest, unhashed)."""
    sites = [
        (r.host, r.forms_found, r.forms_surfaced, r.urls_generated, r.urls_indexed,
         r.probes_issued, r.analysis_load, r.records_covered)
        for r in service.results
    ]
    documents = [(d.doc_id, d.url, d.title, d.text, d.source) for d in service.engine.documents()]
    return sites, documents


class TestOneCachePerService:
    def test_two_services_in_one_process_share_nothing(self):
        first = surfaced()
        before = first.engine.signature_cache.stats()
        tags_before = dict(first.engine.signature_cache._tags)
        assert before["misses"] > 0 and before["hits"] > 0 and tags_before
        second = surfaced()
        # Surfacing the same web again neither read nor moved the first
        # service's cache: the second one did all its own misses.
        assert first.engine.signature_cache.stats() == before
        assert second.engine.signature_cache is not first.engine.signature_cache
        assert second.engine.signature_cache.stats() == before
        # ...and parsed its own tags into a memo of its own.
        assert first.engine.signature_cache._tags == tags_before
        assert second.engine.signature_cache._tags is not first.engine.signature_cache._tags
        assert second.engine.signature_cache._tags == tags_before

    def test_every_analysis_of_a_service_goes_through_its_engines_cache(self):
        service = surfaced()
        cache = service.engine.signature_cache
        assert service.pipeline.prober.signature_cache is cache
        assert service.engine.ingestor.signature_cache is cache
        lookups = cache.hits + cache.misses
        service.vertical  # registration analyzes every deep site's homepage
        assert cache.hits + cache.misses >= lookups + len(service.web.deep_sites())

    def test_warm_cache_surfaces_the_same_as_cold(self):
        """What ``surface_cold``'s in-process verify meant while the cache
        was process-global: content already analyzed changes nothing."""
        from repro.search.engine import SearchEngine

        cold = surfaced()
        warm_cache = cold.engine.signature_cache
        hits_before = warm_cache.hits
        warm = surfaced(SearchEngine(signature_cache=warm_cache))
        assert surfacing_outcome(warm) == surfacing_outcome(cold)
        # ...and the second run really was served from the first one's work.
        assert warm_cache.hits - hits_before > cold.engine.signature_cache.misses // 2


def every_domain_web() -> Web:
    """One deep site per registered domain (with and without browse links)
    plus a surface portal."""
    web = Web()
    rng = SeededRng("every-domain")
    for index, name in enumerate(domain_names()):
        web.register(
            build_deep_site(
                domain(name), f"{name.replace('_', '')}.test", 60, rng.child(name),
                browse_link_count=3 if index % 2 else 0,
            )
        )
    web.register_all(generate_surface_sites(WebConfig(surface_site_count=1), rng.child("surface")))
    return web


def test_every_page_of_a_surfacing_run_takes_the_analysis_fast_path(monkeypatch):
    """Generated markup never needs the DOM path; a generator or scanner
    change that sends pages there shows here (and in CI's summary)."""
    from repro.api import DeepWebService, SurfacingConfig

    scanned: list[str] = []
    fallbacks: list[str] = []
    fast_scan, dom_scan = informativeness._fast_scan, informativeness._dom_scan
    monkeypatch.setattr(
        informativeness, "_fast_scan",
        lambda html, tags=None: scanned.append(html) or fast_scan(html, tags),
    )
    monkeypatch.setattr(
        informativeness, "_dom_scan", lambda html: fallbacks.append(html) or dom_scan(html)
    )
    service = (
        DeepWebService.build()
        .web(every_domain_web())
        .surfacing(SurfacingConfig(max_urls_per_form=60))
        .create()
    )
    service.crawl(max_pages=60)
    service.surface()
    service.vertical  # registration analyzes every deep site's homepage
    domains = {site.domain_name for site in service.web.deep_sites()}
    # CI greps this line out of a ``-s`` run into the job summary.
    print(f"\nanalysis fast path: {len(scanned)} pages, {len(fallbacks)} DOM fallbacks")
    assert domains == set(domain_names())
    assert service.report().sites_surfaced == len(domains)
    assert len(scanned) > 500
    assert fallbacks == []
