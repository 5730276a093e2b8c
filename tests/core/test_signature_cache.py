"""Equivalence and behaviour tests for the single-pass analysis cache."""

from __future__ import annotations

import pytest

from repro.core.informativeness import (
    SignatureCache,
    analyze_html,
    signature_for_page,
    signature_of,
)
from repro.htmlparse.dom import parse_html
from repro.htmlparse.links import extract_links, resolve_links
from repro.htmlparse.text import extract_text, extract_title
from repro.webspace.sitegen import WebConfig, generate_web

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

    def test_signature_of_and_for_page_agree_with_explicit_cache(self):
        html = (
            "<html><body><p>2 results found</p>"
            '<a href="/item?id=7">A</a><a href="/item?id=9">B</a></body></html>'
        )
        absolute = html.replace('href="/item', 'href="http://cars.test/item')
        assert signature_of(absolute) == signature_for_page(
            absolute, "http://cars.test/search"
        )
        relative = signature_for_page(html, "http://cars.test/search")
        assert relative.record_ids == {"cars.test#7", "cars.test#9"}
        # Without a base the relative links cannot resolve.
        assert signature_of(html).record_ids == frozenset()

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

    def test_error_pages_short_circuit(self):
        assert signature_of("anything", status_ok=False).is_error

    def test_injected_empty_cache_is_not_mistaken_for_missing(self):
        # An empty cache is falsy (len == 0); the seam must still honor it
        # instead of silently falling back to the process default.
        from repro.core.probe import FormProber
        from repro.search.crawler import Crawler
        from repro.search.engine import SearchEngine
        from repro.webspace.web import Web

        injected = SignatureCache()
        engine = SearchEngine(signature_cache=injected)
        assert engine.signature_cache is injected
        assert FormProber(Web(), signature_cache=injected).signature_cache is injected
        assert Crawler(Web(), engine, signature_cache=injected).signature_cache is injected
