"""A vertical search engine built with the virtual-integration approach.

``VerticalSearchEngine`` is the registry of integrated deep-web sources:
it registers a site by analyzing its form (domain classification, the
form-to-schema mapping, a result wrapper and the routing vocabulary), and
:meth:`~VerticalSearchEngine.probe` issues form submissions *at query
time* (metered with the ``virtual`` agent so query-time load is
measurable) on hosts the query planner picked, extracting and merging the
results.  Queries reach it only through ``service.query(..., live=True)``:
keyword queries are reformulated per source, and structured queries
(attribute filters) bind each source's mapped inputs -- the richer
slice-and-dice experience where the paper says the virtual approach
shines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.form_model import discover_forms
from repro.htmlparse.dom import DomNode, parse_html
from repro.htmlparse.links import extract_links
from repro.store.ingest import Ingestor
from repro.store.records import SOURCE_VERTICAL, IngestRecord
from repro.util.text import tokenize
from repro.virtual.matching import FormMapping, classify_domain
from repro.virtual.reformulation import reformulate
from repro.virtual.routing import routing_vocabulary
from repro.virtual.wrappers import ResultWrapper, WrappedRecord, matches_filters
from repro.webspace.loadmeter import AGENT_VIRTUAL
from repro.webspace.site import DeepWebSite
from repro.webspace.url import Url
from repro.webspace.web import FetchError, Web

#: Most result pages one source's form submission is paged through.
MAX_PAGES_PER_SOURCE = 3


@dataclass
class VerticalAnswer:
    """The merged answer to one live probe.

    ``failed_hosts`` lists sources that were contacted but lost at least one
    query-time fetch to a :class:`FetchError` (records extracted before the
    failure are kept); a non-empty list marks the answer ``degraded`` --
    partial, never wrong.
    """

    records: list[WrappedRecord] = field(default_factory=list)
    sources_contacted: list[str] = field(default_factory=list)
    fetches_issued: int = 0
    failed_hosts: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.failed_hosts)


@dataclass
class RegisteredSource:
    """One integrated source: its form mapping, result wrapper and the
    routing vocabulary keyword queries are scored against."""

    site: DeepWebSite
    mapping: FormMapping
    wrapper: ResultWrapper
    vocabulary: frozenset[str]


class VerticalSearchEngine:
    """A mediator over the deep-web sources of every domain."""

    def __init__(self, web: Web, ingestor: Ingestor | None = None) -> None:
        self.web = web
        # When wired to the shared content store, every accepted source is
        # also written there as a ``vertical-source`` document, so the
        # virtual route contributes to the same searchable index the
        # surfacing and WebTables routes feed (the paper's closing point).
        self._ingestor = ingestor
        #: Registered sources by host, in registration order.
        self.registry: dict[str, RegisteredSource] = {}

    # -- source registration ----------------------------------------------------

    def register_site(self, site: DeepWebSite) -> FormMapping | None:
        """Analyze a site's form and register it as an integrated source.

        Returns the mapping, or None when the site is unreachable or has
        no usable GET form.
        """
        try:
            homepage = self.web.fetch(site.homepage_url(), agent=AGENT_VIRTUAL)
        except FetchError:
            # An unreachable site simply isn't registered; a later
            # registration attempt may succeed.
            return None
        if not homepage.ok:
            return None
        forms = [form for form in discover_forms(homepage, host=site.host) if form.is_get]
        if not forms:
            return None
        mapping = classify_domain(forms[0])
        self.registry[site.host] = RegisteredSource(
            site=site,
            mapping=mapping,
            wrapper=ResultWrapper(mapping),
            vocabulary=routing_vocabulary(mapping, site.description),
        )
        self._emit_source_record(site, homepage.html, mapping)
        return mapping

    def _emit_source_record(self, site: DeepWebSite, homepage_html: str, mapping: FormMapping) -> None:
        """Land the accepted source in the shared content store (if wired).

        The record keys on a ``#vertical-source`` fragment of the
        homepage URL: distinct from the homepage document a crawl may
        already have stored (so registration always lands), while
        re-registering the same site still dedups to one record.
        """
        if self._ingestor is None:
            return
        analysis = self._ingestor.signature_cache.analyze(homepage_html)
        text = analysis.text
        self._ingestor.ingest(
            IngestRecord(
                url=f"{site.homepage_url()}#vertical-source",
                host=site.host,
                title=analysis.title or site.description,
                text=text,
                tokens=tokenize(text),
                source=SOURCE_VERTICAL,
                annotations={"domain": mapping.domain},
            )
        )

    def register_sites(self, sites: list[DeepWebSite]) -> int:
        """Register many sites; returns how many were accepted."""
        accepted = 0
        for site in sites:
            if self.register_site(site) is not None:
                accepted += 1
        return accepted

    # -- query answering -----------------------------------------------------------

    def probe(
        self,
        hosts: Sequence[str],
        *,
        fetch_budget: int,
        query: str = "",
        filters: Mapping[str, str] | None = None,
        max_results: int = 20,
    ) -> VerticalAnswer:
        """The query-time probing seam: submit forms on explicit hosts.

        This is what the federated executor drives -- the planner has
        already decided *which* sources to contact; this method only
        spends the fetch budget.  With ``filters`` each host's form
        mapping binds the filter attributes it can express (hosts binding
        none are skipped free of charge); otherwise the keyword ``query``
        is reformulated per host.  ``fetch_budget`` is a hard cap on
        ``Web.fetch`` calls across the whole probe: pagination stops
        mid-source when it runs out, and remaining hosts are not
        contacted.
        """
        answer = VerticalAnswer()
        remaining = fetch_budget
        for host in hosts:
            source = self.registry.get(host)
            if source is None:
                continue
            if filters:
                bindings = {}
                for attribute, value in filters.items():
                    input_name = source.mapping.input_for(attribute)
                    if input_name is not None:
                        bindings[input_name] = str(value)
            else:
                bindings = reformulate(query, source.mapping)
            if not bindings:
                continue
            if remaining <= 0:
                break
            records, fetches, failed = self._fetch_records(source, bindings, remaining)
            remaining -= fetches
            answer.fetches_issued += fetches
            answer.sources_contacted.append(host)
            if failed:
                answer.failed_hosts.append(host)
            if filters:
                # The form submission already applied the filters on the
                # backend; re-check locally only for attributes the wrapper
                # actually extracted.
                checkable = {
                    attribute: value
                    for attribute, value in filters.items()
                    if any(attribute in record.attributes for record in records)
                }
                answer.records.extend(
                    record for record in records if matches_filters(record, checkable)
                )
            else:
                answer.records.extend(self._filter_by_query(records, query))
        answer.records = answer.records[:max_results]
        return answer

    # -- internals ---------------------------------------------------------------------

    def _fetch_records(
        self, source: RegisteredSource, bindings: dict[str, str], budget: int
    ) -> tuple[list[WrappedRecord], int, bool]:
        """Submit a form at query time and wrap the result pages.

        At most ``budget`` fetches and :data:`MAX_PAGES_PER_SOURCE` pages.
        A fetch that raises :class:`FetchError` (injected fault, exhausted
        retries, open breaker) ends the submission early: records already
        extracted are kept and the third return value reports the failure.
        """
        records: list[WrappedRecord] = []
        fetches = 0
        failed = False
        url = source.mapping.form.submission_url(bindings)
        # Result pages parse through the store's tag memo, as analysis does.
        ingestor = self._ingestor
        tags = ingestor.signature_cache.tag_memo() if ingestor is not None else None
        for _page_index in range(min(MAX_PAGES_PER_SOURCE, budget)):
            try:
                page = self.web.fetch(url, agent=AGENT_VIRTUAL)
            except FetchError:
                # The attempt still spent budget; pagination is truncated,
                # never re-ordered, so surviving records stay a prefix of
                # the fault-free extraction.
                fetches += 1
                failed = True
                break
            fetches += 1
            if not page.ok:
                break
            # One DOM per fetched page, read by the wrapper and the pager.
            root = parse_html(page.html, tags)
            records.extend(source.wrapper.wrap_page(root))
            next_url = self._next_page_url(root, url)
            if next_url is None:
                break
            url = next_url
        return records, fetches, failed

    @staticmethod
    def _next_page_url(root: DomNode, current_url: Url) -> Url | None:
        for link in extract_links(root, page_url=current_url):
            parsed = Url.parse(link)
            if parsed.path == current_url.path and parsed.param("page") is not None:
                return parsed
        return None

    @staticmethod
    def _filter_by_query(records: list[WrappedRecord], query: str) -> list[WrappedRecord]:
        """Keep records that share at least one content token with the query."""
        query_tokens = set(tokenize(query, drop_stopwords=True))
        if not query_tokens:
            return records
        kept = []
        for record in records:
            haystack = set(tokenize(record.title))
            for value in record.attributes.values():
                haystack.update(tokenize(value))
            if haystack & query_tokens:
                kept.append(record)
        return kept
