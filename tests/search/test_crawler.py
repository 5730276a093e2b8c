"""Tests for the link-following crawler."""

from __future__ import annotations

from repro.search.crawler import Crawler
from repro.search.engine import SOURCE_DEEP_CRAWLED, SOURCE_SURFACE, SearchEngine
from repro.webspace.loadmeter import AGENT_CRAWLER
from repro.webspace.page import WebPage
from repro.webspace.url import Url
from repro.webspace.web import Web


class HostileLinkSite:
    """A two-page site whose homepage also links to ``http://[x/``, an
    href ``Url.parse`` rejects."""

    host = "hostile.example.com"
    kind = "surface"

    def homepage_url(self) -> Url:
        return Url.build(self.host, "/")

    def handle(self, url: Url) -> WebPage:
        if url.path == "/":
            html = ('<html><title>home</title><body>welcome '
                    '<a href="http://[x/">bad</a> <a href="/next">next</a></body></html>')
        else:
            html = "<html><title>next</title><body>second page</body></html>"
        return WebPage(url=str(url), html=html)


class TestCrawl:
    def test_crawl_indexes_surface_pages(self, small_web):
        engine = SearchEngine()
        stats = Crawler(small_web, engine).crawl(max_pages=120)
        assert stats.indexed > 0
        assert stats.fetched >= stats.indexed
        assert engine.store_stats().by_source.get(SOURCE_SURFACE, 0) > 0

    def test_deep_content_not_reached_without_browse_links(self, car_web, car_site):
        engine = SearchEngine()
        Crawler(car_web, engine).crawl(max_pages=50)
        # Only the homepage is reachable: the form results are behind the form.
        assert len(engine.backend.documents_for_host(car_site.host)) == 1

    def test_crawl_discovers_seeded_deep_urls(self, car_web, car_site):
        engine = SearchEngine()
        crawler = Crawler(car_web, engine)
        # Seed the crawler with one surfaced-style results URL: it should then
        # follow pagination and detail links into the site.
        template = car_site.forms[0]
        seed = Url.build(car_site.host, template.action_path, {})
        stats = crawler.crawl(seeds=[seed], max_pages=30)
        assert stats.indexed > 5
        assert engine.store_stats().by_source.get(SOURCE_DEEP_CRAWLED, 0) > 5

    def test_max_pages_respected(self, small_web):
        engine = SearchEngine()
        stats = Crawler(small_web, engine).crawl(max_pages=10)
        assert stats.fetched <= 10

    def test_max_pages_per_host(self, small_web):
        engine = SearchEngine()
        stats = Crawler(small_web, engine).crawl(max_pages=200, max_pages_per_host=3)
        assert all(count <= 3 for count in stats.pages_per_host.values())

    def test_visited_urls_not_refetched(self, car_web, car_site):
        engine = SearchEngine()
        crawler = Crawler(car_web, engine)
        crawler.crawl(max_pages=5)
        before = car_web.load_meter.total(host=car_site.host, agent=AGENT_CRAWLER)
        crawler.crawl(max_pages=5)
        after = car_web.load_meter.total(host=car_site.host, agent=AGENT_CRAWLER)
        assert after == before, "second crawl must skip already-visited homepage"

    def test_a_hostile_href_is_skipped_and_the_crawl_goes_on(self):
        web = Web()
        web.register(HostileLinkSite())
        engine = SearchEngine()
        stats = Crawler(web, engine).crawl(max_pages=10)
        assert (stats.fetched, stats.indexed) == (2, 2)

    def test_error_pages_counted(self, car_web, car_site):
        engine = SearchEngine()
        crawler = Crawler(car_web, engine)
        stats = crawler.crawl(seeds=[Url.build(car_site.host, "/missing", {})], max_pages=5)
        assert stats.skipped_errors == 1
        assert stats.indexed == 0
