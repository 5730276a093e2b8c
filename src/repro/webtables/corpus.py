"""The table / schema corpus (the WebTables raw material).

Three ingestion paths feed the corpus:

* HTML tables extracted from fetched pages, kept only when they pass the
  relational-quality filter (header row, enough rows and columns);
* attribute/value tables from deep-web detail pages, which contribute one
  *schema instance* each (the set of attribute names plus their values);
* parsed HTML forms, which contribute input-name co-occurrence sets and
  select-menu value lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htmlparse.forms import ParsedForm, extract_forms
from repro.htmlparse.tables import HtmlTable, extract_tables
from repro.store.ingest import Ingestor
from repro.store.records import SOURCE_VERTICAL, SOURCE_WEBTABLE, IngestRecord
from repro.util.text import name_tokens, tokenize
from repro.webspace.loadmeter import AGENT_WEBTABLES
from repro.webspace.page import WebPage
from repro.webspace.url import Url
from repro.webspace.web import FetchError, Web


def normalize_attribute(name: str) -> str:
    """Canonical attribute spelling used throughout the corpus."""
    tokens = name_tokens(name)
    return "_".join(tokens) if tokens else name.strip().lower()


@dataclass(frozen=True)
class CorpusTable:
    """One relational table admitted to the corpus."""

    attributes: tuple[str, ...]
    values: tuple[tuple[str, ...], ...]
    source_url: str = ""
    source_kind: str = "html_table"  # 'html_table' | 'detail_page' | 'form'

    def column_values(self, attribute: str) -> list[str]:
        if attribute not in self.attributes:
            return []
        index = self.attributes.index(attribute)
        return [row[index] for row in self.values if index < len(row) and row[index]]


@dataclass
class CorpusStats:
    """Summary counts of what the corpus ingested."""

    pages_seen: int = 0
    tables_seen: int = 0
    tables_admitted: int = 0
    detail_records: int = 0
    forms_seen: int = 0
    page_errors: int = 0
    table_errors: int = 0


@dataclass
class HarvestState:
    """What a table harvest has already consumed.

    Keeps :func:`harvest_web` incremental and idempotent, and round-trips
    through snapshots so a restored service never re-fetches a harvested
    page.
    """

    urls: set[str] = field(default_factory=set)
    form_hosts: set[str] = field(default_factory=set)
    detail_counts: dict[str, int] = field(default_factory=dict)
    #: (store doc count, detail budget) at the end of the last harvest;
    #: lets repeated harvests over a settled corpus return immediately
    #: instead of rescanning every document and site.
    settled: tuple[int, int] | None = None


class TableCorpus:
    """Accumulates relational tables and form schemata.

    When constructed with an :class:`~repro.store.ingest.Ingestor`, every
    admitted table (and every recorded form schema) is also written to
    the shared content store as a ``webtable`` document, so structured
    raw material is searchable alongside crawled and surfaced pages.
    """

    def __init__(
        self,
        min_rows: int = 2,
        min_columns: int = 2,
        max_columns: int = 30,
        ingestor: Ingestor | None = None,
    ) -> None:
        self.min_rows = min_rows
        self.min_columns = min_columns
        self.max_columns = max_columns
        self.tables: list[CorpusTable] = []
        self.form_schemas: list[tuple[str, ...]] = []
        self.form_values: dict[str, list[str]] = {}
        self.stats = CorpusStats()
        self._ingestor = ingestor

    def __len__(self) -> int:
        return len(self.tables)

    # -- ingestion -----------------------------------------------------------

    def add_page(self, page: WebPage) -> int:
        """Extract and admit tables from one page; returns how many were admitted.

        A malformed table cannot abort the page: admission failures are
        counted in ``stats.table_errors`` and the remaining tables are
        still considered.
        """
        if not page.ok:
            return 0
        self.stats.pages_seen += 1
        admitted = 0
        try:
            tables = list(extract_tables(page.html, page_url=page.url))
        except Exception:
            self.stats.page_errors += 1
            return 0
        for table in tables:
            self.stats.tables_seen += 1
            try:
                corpus_table = self._admit(table, page.url)
            except Exception:
                self.stats.table_errors += 1
                continue
            if corpus_table is not None:
                self.tables.append(corpus_table)
                admitted += 1
                self._emit_table_record(corpus_table, position=admitted)
        return admitted

    def add_form(self, form: ParsedForm) -> None:
        """Record a form's input-name schema and its select-menu values."""
        self.stats.forms_seen += 1
        names = tuple(
            sorted(
                {
                    normalize_attribute(spec.name)
                    for spec in form.inputs
                    if spec.is_bindable and spec.name
                }
            )
        )
        if len(names) >= 2:
            self.form_schemas.append(names)
        for spec in form.inputs:
            if spec.is_select and spec.options:
                attribute = normalize_attribute(spec.name)
                values = self.form_values.setdefault(attribute, [])
                for option in spec.options:
                    if option and option not in values:
                        values.append(option)
        self._emit_form_record(form, names)

    # -- store emission ----------------------------------------------------------

    @staticmethod
    def _host_of(url: str, fallback: str = "webtables.corpus") -> str:
        try:
            host = Url.parse(url).host
        except Exception:
            return fallback
        return host or fallback

    def _emit_table_record(self, table: CorpusTable, position: int) -> None:
        """Write one admitted table into the shared content store (if wired).

        ``position`` is the table's 1-based admission index *within its
        page*, so the record URL is stable across re-ingestions of the
        same page and the store's URL dedup holds.
        """
        if self._ingestor is None:
            return
        base = table.source_url or "webtable://corpus"
        url = f"{base}#table-{position}"
        cells = " ".join(value for row in table.values for value in row if value)
        text = f"{' '.join(table.attributes)} {cells}".strip()
        self._ingestor.ingest(
            IngestRecord(
                url=url,
                host=self._host_of(base),
                title=f"table: {', '.join(table.attributes)}",
                text=text,
                tokens=tokenize(text),
                source=SOURCE_WEBTABLE,
                annotations={"kind": table.source_kind},
            )
        )

    def _emit_form_record(self, form: ParsedForm, names: tuple[str, ...]) -> None:
        """Write one form schema into the shared content store (if wired).

        Emission mirrors admission: only schemata :meth:`add_form` itself
        records (two or more attribute names) become store documents.
        """
        if self._ingestor is None or len(names) < 2:
            return
        base = form.page_url or form.action or "webtable://forms"
        # Content-derived fragment: re-recording the same form dedups in
        # the store instead of minting a new URL per call.
        url = f"{base}#form-schema-{'-'.join(names)}"
        select_values = " ".join(
            " ".join(option for option in spec.options if option)
            for spec in form.inputs
            if spec.is_select and spec.options
        )
        text = f"{' '.join(names)} {select_values}".strip()
        self._ingestor.ingest(
            IngestRecord(
                url=url,
                host=self._host_of(base),
                title=f"form schema: {', '.join(names)}",
                text=text,
                tokens=tokenize(text),
                source=SOURCE_WEBTABLE,
                annotations={"kind": "form"},
            )
        )

    # -- quality filter ----------------------------------------------------------

    def _admit(self, table: HtmlTable, source_url: str) -> CorpusTable | None:
        """Apply the relational-quality filter and normalize the table."""
        if table.has_header:
            if (
                table.row_count < self.min_rows
                or table.column_count < self.min_columns
                or table.column_count > self.max_columns
            ):
                return None
            attributes = tuple(normalize_attribute(name) for name in table.header)
            if len(set(attributes)) != len(attributes):
                return None
            self.stats.tables_admitted += 1
            return CorpusTable(
                attributes=attributes,
                values=table.rows,
                source_url=source_url,
                source_kind="html_table",
            )
        # Attribute/value detail tables become single-row schema instances.
        if table.row_count >= self.min_columns and all(len(row) >= 2 for row in table.rows):
            attributes = tuple(normalize_attribute(row[0]) for row in table.rows)
            if len(set(attributes)) != len(attributes):
                return None
            values = (tuple(row[1] for row in table.rows),)
            self.stats.detail_records += 1
            self.stats.tables_admitted += 1
            return CorpusTable(
                attributes=attributes,
                values=values,
                source_url=source_url,
                source_kind="detail_page",
            )
        return None

    # -- corpus views ---------------------------------------------------------------

    def schemata(self) -> list[tuple[str, ...]]:
        """Every schema (attribute-name set) in the corpus, tables and forms alike."""
        schemas = [table.attributes for table in self.tables]
        schemas.extend(self.form_schemas)
        return schemas

    def attribute_values(self, attribute: str) -> list[str]:
        """All observed values for an attribute across tables and forms."""
        attribute = normalize_attribute(attribute)
        values: list[str] = []
        seen = set()
        for table in self.tables:
            for value in table.column_values(attribute):
                key = value.strip().lower()
                if key and key not in seen:
                    seen.add(key)
                    values.append(value)
        for value in self.form_values.get(attribute, []):
            key = value.strip().lower()
            if key and key not in seen:
                seen.add(key)
                values.append(value)
        return values

    def attributes(self) -> list[str]:
        """Every distinct attribute name in the corpus."""
        names: set[str] = set()
        for schema in self.schemata():
            names.update(schema)
        return sorted(names)


def harvest_web(
    web: Web,
    corpus: TableCorpus,
    state: HarvestState,
    detail_pages_per_site: int,
) -> int:
    """Mine a web for WebTables raw material; returns the tables admitted.

    Every page in the store ``corpus`` writes to (crawled or surfaced;
    none when it is not wired to one) is re-fetched under the
    ``webtables`` agent and run through the corpus' relational-quality
    filter.  Per deep site, homepage forms contribute their schemata and
    up to ``detail_pages_per_site`` detail pages contribute
    attribute/value schema instances.

    ``state`` makes the walk incremental and idempotent: pages already
    harvested are skipped, the per-site detail budget accumulates across
    calls (a later call with a larger budget fetches the difference), and
    a call that finds neither the store nor the budget grown since the
    last one returns at once -- a read path can harvest-first on every
    query without rescanning a settled corpus.
    """
    # An unwired corpus has no store: nothing indexed to mine, length 0.
    store = corpus._ingestor.backend if corpus._ingestor is not None else ()
    settled = state.settled
    if settled is not None and settled[0] == len(store) and settled[1] >= detail_pages_per_site:
        return 0

    def admit(url: str) -> int:
        # A page lost to a fault stays marked harvested (the harvest must
        # remain idempotent); its tables are simply lost.
        state.urls.add(url)
        try:
            return corpus.add_page(web.fetch(url, agent=AGENT_WEBTABLES))
        except FetchError:
            return 0

    admitted = 0
    for doc in store.documents() if store else ():
        # Webtable docs are corpus output, and vertical-source docs alias
        # homepages the site loop below already mines -- both would
        # double-count corpus stats if re-fetched here.
        if doc.source not in (SOURCE_WEBTABLE, SOURCE_VERTICAL) and doc.url not in state.urls:
            admitted += admit(doc.url)
    for site in web.deep_sites():
        if site.host not in state.form_hosts:
            state.form_hosts.add(site.host)
            try:
                homepage = web.fetch(site.homepage_url(), agent=AGENT_WEBTABLES)
            except FetchError:
                homepage = None
            if homepage is not None and homepage.ok:
                for form in extract_forms(homepage.html, page_url=homepage.url):
                    corpus.add_form(form)
        budget = detail_pages_per_site - state.detail_counts.get(site.host, 0)
        detail_urls = (str(site.detail_url(key)) for key in site.table.primary_keys())
        for url in detail_urls:
            if budget <= 0:
                break
            if url in state.urls:
                continue
            budget -= 1
            state.detail_counts[site.host] = state.detail_counts.get(site.host, 0) + 1
            admitted += admit(url)
    state.settled = (len(store), max(detail_pages_per_site, settled[1] if settled else 0))
    return admitted
