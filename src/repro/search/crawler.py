"""A breadth-first web crawler over the simulated web.

The crawler models the search engine's regular crawl: it starts from seed
URLs (site homepages), follows hyperlinks, and indexes every 200 page it
fetches.  It cannot fill in forms, so content behind forms stays invisible to
it -- that is the Deep Web.  Once surfacing has seeded the index with good
deep-web URLs, the crawler *will* discover more content by following links
from those pages (pagination, detail pages), reproducing the paper's
observation about index seeding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.htmlparse.links import resolve_links
from repro.search.engine import SOURCE_DEEP_CRAWLED, SOURCE_SURFACE, SearchEngine
from repro.webspace.loadmeter import AGENT_CRAWLER
from repro.webspace.site import DeepWebSite
from repro.webspace.url import Url
from repro.webspace.web import FetchError, Web


@dataclass
class CrawlStats:
    """Bookkeeping for one crawl.

    ``fetch_errors`` counts fetches lost to :class:`FetchError` (injected
    faults, exhausted retries, open breakers); those pages are skipped and
    the crawl continues -- a flaky host never aborts a crawl.
    """

    fetched: int = 0
    indexed: int = 0
    skipped_errors: int = 0
    skipped_duplicates: int = 0
    fetch_errors: int = 0
    frontier_exhausted: bool = False
    pages_per_host: dict[str, int] = field(default_factory=dict)


class Crawler:
    """Link-following crawler that feeds a :class:`SearchEngine`."""

    def __init__(
        self,
        web: Web,
        engine: SearchEngine,
        agent: str = AGENT_CRAWLER,
    ) -> None:
        self.web = web
        self.engine = engine
        self.agent = agent
        # The crawl writes through the engine's ingestor, so crawled pages
        # land in the same store as every other producer.
        self.ingestor = engine.ingestor
        self._visited: set[str] = set()

    def crawl(
        self,
        seeds: Iterable[Url | str] | None = None,
        max_pages: int = 1000,
        max_depth: int = 5,
        max_pages_per_host: int | None = None,
    ) -> CrawlStats:
        """Breadth-first crawl from the seeds (defaults to every homepage)."""
        stats = CrawlStats()
        if seeds is None:
            seeds = self.web.homepage_urls()
        frontier: deque[tuple[str, int]] = deque()
        for seed in seeds:
            frontier.append((str(seed), 0))
        while frontier and stats.fetched < max_pages:
            url_text, depth = frontier.popleft()
            if url_text in self._visited:
                stats.skipped_duplicates += 1
                continue
            url = Url.parse(url_text)
            if max_pages_per_host is not None:
                if stats.pages_per_host.get(url.host, 0) >= max_pages_per_host:
                    continue
            self._visited.add(url_text)
            try:
                page = self.web.fetch(url, agent=self.agent)
            except FetchError:
                # Only fetch failures are absorbed; parser or indexing bugs
                # must keep propagating.
                stats.fetched += 1
                stats.pages_per_host[url.host] = stats.pages_per_host.get(url.host, 0) + 1
                stats.skipped_errors += 1
                stats.fetch_errors += 1
                continue
            stats.fetched += 1
            stats.pages_per_host[url.host] = stats.pages_per_host.get(url.host, 0) + 1
            if not page.ok:
                stats.skipped_errors += 1
                continue
            source = self._source_for(url.host)
            # The ingestor's cache: link extraction and indexing share one
            # parse per fetched page.
            analysis = self.ingestor.signature_cache.analyze(page.html)
            if self.ingestor.ingest_page(page, source=source) is not None:
                stats.indexed += 1
            if depth >= max_depth:
                continue
            for link in resolve_links(analysis.hrefs, url):
                if link not in self._visited:
                    frontier.append((link, depth + 1))
        stats.frontier_exhausted = not frontier
        return stats

    def fetch_and_index(self, url: Url | str, source: str | None = None) -> bool:
        """Fetch one URL and index it; returns True when it was indexed."""
        parsed = url if isinstance(url, Url) else Url.parse(url)
        self._visited.add(str(parsed))
        try:
            page = self.web.fetch(parsed, agent=self.agent)
        except FetchError:
            return False
        if not page.ok:
            return False
        effective_source = source or self._source_for(parsed.host)
        return self.ingestor.ingest_page(page, source=effective_source) is not None

    def _source_for(self, host: str) -> str:
        try:
            site = self.web.site(host)
        except KeyError:
            return SOURCE_SURFACE
        if isinstance(site, DeepWebSite):
            return SOURCE_DEEP_CRAWLED
        return SOURCE_SURFACE
