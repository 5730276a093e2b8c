"""Deep-web sites: an HTML form front-end over a relational backend.

A :class:`DeepWebSite` owns a :class:`~repro.relational.database.Database`
and one or more :class:`FormTemplate` objects, built together on the first
read of either (a site that is never fetched never builds them).  It serves:

* ``/`` -- the homepage carrying the rendered HTML form(s).  Deep-web
  content is *not* linked from here (that is what makes it deep); sites can
  optionally expose a few "browse" links to mimic partially-linked content.
* the form action path (e.g. ``/search``) -- executes the form submission
  compiled into a relational query and renders a paginated results page with
  links to detail pages.
* ``/item`` -- a detail page for a single record.

POST-only forms return ``405 Method Not Allowed`` for GET requests against
their action, reproducing the paper's observation that surfacing cannot be
applied to POST forms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.datagen.domains import DomainSpec
from repro.relational.database import Database
from repro.relational.predicate import (
    And,
    Contains,
    Eq,
    Predicate,
    Prefix,
    Range,
    TruePredicate,
)
from repro.relational.query import Query
from repro.relational.schema import DataType
from repro.util.rng import SeededRng
from repro.webspace import html as markup
from repro.webspace.forms_markup import render_form
from repro.webspace.page import WebPage, method_not_allowed, not_found
from repro.webspace.url import Url


@dataclass(frozen=True)
class FormInputSpec:
    """One input of a form template.

    ``name`` is the public HTML input name (what surfacing sees);
    ``column`` is the backing column (what the site's backend uses).  The
    two are deliberately decoupled -- input names vary across sites
    ("zip", "zipcode", "postal_code"), which is exactly what makes typed-input
    and correlation detection non-trivial.
    """

    name: str
    kind: str  # 'text' | 'select' | 'hidden'
    role: str  # 'search_box' | 'typed_text' | 'select' | 'range_min' | 'range_max' | 'hidden'
    column: str | None = None
    semantic_type: str | None = None
    options: tuple[str, ...] = ()
    default: str | None = None
    label: str | None = None


@dataclass
class FormTemplate:
    """A form over one backend table."""

    form_id: str
    action_path: str
    method: str
    table: str
    inputs: list[FormInputSpec] = field(default_factory=list)
    search_columns: tuple[str, ...] = ()
    results_per_page: int = 10

    def input_by_name(self, name: str) -> FormInputSpec | None:
        for spec in self.inputs:
            if spec.name == name:
                return spec
        return None

    @property
    def is_get(self) -> bool:
        return self.method.lower() == "get"

    @property
    def text_inputs(self) -> list[FormInputSpec]:
        return [spec for spec in self.inputs if spec.kind == "text"]

    @property
    def select_inputs(self) -> list[FormInputSpec]:
        return [spec for spec in self.inputs if spec.kind == "select"]


class DeepWebSite:
    """A simulated deep-web site.  Its rows come from ``rng.child("data")``
    and its form from ``rng.child("form")``: a child stream is a pure
    function of its name, so building on first read, in any order of
    sites, draws nothing differently."""

    kind = "deep"
    #: Serializes first builds.  One lock for every site: a build is Python
    #: work the GIL serializes anyway, and a class attribute is not pickled.
    _build_lock = threading.Lock()

    def __init__(
        self,
        host: str,
        title: str,
        spec: DomainSpec,
        record_count: int,
        rng: SeededRng,
        method: str = "get",
        results_per_page: int = 10,
        range_value_count: int = 10,
        description: str = "",
        language: str = "en",
        browse_link_count: int = 0,
    ) -> None:
        self.host = host
        self.title = title
        self.domain_name = spec.name
        self.description = description
        self.language = language
        self.browse_link_count = browse_link_count
        self._inputs = (spec, record_count, rng, method, results_per_page, range_value_count)
        self._backend: tuple[Database, list[FormTemplate]] | None = None
        # (table, primary key) -> rendered result_item fragment.  The same
        # record appears on many result pages (overlapping queries), and the
        # relational layer has no row-update API, so the fragment is a pure
        # function of the key.
        self._fragment_cache: dict[tuple[str, object], str] = {}
        # Constant per site: every results page repeats these.
        self._results_heading = markup.heading(f"{self.title} search results")
        self._back_link = markup.link(str(self.homepage_url()), f"Back to {self.title}")
        # An empty results page is byte-identical for every no-match query
        # (the URL only appears in page metadata, not the HTML).
        self._empty_results_html = markup.render_page(
            f"{self.title} search results",
            "".join([self._results_heading, markup.no_results_banner(), self._back_link]),
            self.language,
        )

    @property
    def database(self) -> Database:
        return (self._backend or self._build_backend())[0]

    @property
    def forms(self) -> list[FormTemplate]:
        return (self._backend or self._build_backend())[1]

    def _build_backend(self) -> tuple[Database, list[FormTemplate]]:
        """Build the database and the form over it once; all callers get that pair."""
        from repro.webspace.sitegen import build_database, build_form  # sitegen imports site

        with self._build_lock:
            if self._backend is None:
                spec, records, rng, method, per_page, range_values = self._inputs
                database = build_database(spec, records, rng.child("data"))
                form = build_form(
                    spec, database, rng.child("form"), method, per_page, range_values
                )
                self._backend = (database, [form])
            return self._backend

    # -- URL helpers --------------------------------------------------------

    def homepage_url(self) -> Url:
        return Url(host=self.host, path="/")

    def detail_url(self, record_id: object) -> Url:
        return Url.build(self.host, "/item", {"id": record_id})

    def size(self) -> int:
        """Number of records in the backend database: the record count it is
        generated with (rows are ids 1..count), so the database is not built."""
        return self._inputs[1]

    def ground_truth_ids(self) -> set[tuple[str, object]]:
        """Every (table, primary key) pair -- ground truth for coverage."""
        return {
            (table_name, row[self.database.table(table_name).schema.primary_key])
            for table_name, row in self.database.all_rows()
        }

    # -- request handling ---------------------------------------------------

    def handle(self, url: Url) -> WebPage:
        """Serve a GET request for ``url``."""
        if url.host != self.host:
            return not_found(str(url))
        if url.path == "/":
            return self._homepage(url)
        if url.path == "/item":
            return self._detail_page(url)
        for form in self.forms:
            if url.path == form.action_path:
                if not form.is_get:
                    return method_not_allowed(str(url))
                return self._results_page(form, url)
        return not_found(str(url))

    # -- page rendering -----------------------------------------------------

    def _homepage(self, url: Url) -> WebPage:
        parts = [markup.heading(self.title)]
        if self.description:
            parts.append(markup.paragraph(self.description))
        for form in self.forms:
            parts.append(render_form(form))
        if self.browse_link_count > 0:
            parts.append(markup.heading("Featured", level=2))
            featured = []
            for form in self.forms[:1]:
                table = self.database.table(form.table)
                keys = table.primary_keys()[: self.browse_link_count]
                title_column = self._title_column(form.table)
                for key in keys:
                    row = table.get(key)
                    if row is None:
                        continue
                    featured.append(
                        markup.link(str(self.detail_url(key)), str(row.get(title_column, key)))
                    )
            if featured:
                parts.append(markup.unordered_list(featured))
        body = "".join(parts)
        return WebPage(url=str(url), html=markup.render_page(self.title, body, self.language))

    def _results_page(self, form: FormTemplate, url: Url) -> WebPage:
        predicate = self.compile_predicate(form, url.param_dict)
        page_number = self._page_number(url)
        title_column = self._title_column(form.table)
        query = Query(
            table=form.table,
            predicate=predicate,
            order_by=title_column,
            limit=form.results_per_page,
            offset=(page_number - 1) * form.results_per_page,
        )
        result = self.database.execute(query)
        if result.total_matches == 0:
            return WebPage(url=str(url), html=self._empty_results_html)
        parts = [self._results_heading]
        schema = self.database.table(form.table).schema
        primary_key = schema.primary_key
        fragment_cache = self._fragment_cache
        parts.append(markup.result_count_banner(result.total_matches))
        for row in result.rows:
            key = row[primary_key]
            fragment = fragment_cache.get((form.table, key))
            if fragment is None:
                fragment = markup.result_item(
                    str(self.detail_url(key)),
                    str(row.get(title_column, key)),
                    self._summary(form.table, row),
                )
                fragment_cache[(form.table, key)] = fragment
            parts.append(fragment)
        if result.has_more:
            next_url = url.with_params(page=page_number + 1)
            parts.append(markup.paragraph("More results:"))
            parts.append(markup.link(str(next_url), "Next page"))
        parts.append(self._back_link)
        body = "".join(parts)
        page_title = f"{self.title} search results"
        return WebPage(url=str(url), html=markup.render_page(page_title, body, self.language))

    def _detail_page(self, url: Url) -> WebPage:
        raw_id = url.param("id")
        if raw_id is None:
            return not_found(str(url))
        record, table_name = self._find_record(raw_id)
        if record is None:
            return not_found(str(url))
        title_column = self._title_column(table_name)
        title = str(record.get(title_column, raw_id))
        visible = {key: value for key, value in record.items() if key != "id"}
        body = "".join(
            [
                markup.heading(title),
                markup.definition_table(visible),
                markup.paragraph(self.description or self.title),
                markup.link(str(self.homepage_url()), f"Back to {self.title}"),
            ]
        )
        return WebPage(url=str(url), html=markup.render_page(title, body, self.language))

    # -- form submission compilation ------------------------------------------

    def compile_predicate(self, form: FormTemplate, params: Mapping[str, str]) -> Predicate:
        """Translate submitted form parameters into a relational predicate.

        Unknown parameters are ignored (as real backends do); empty values
        mean "any".  Min/max pairs over the same column are combined into a
        single :class:`Range`.
        """
        table = self.database.table(form.table)
        parts: list[Predicate] = []
        range_bounds: dict[str, dict[str, float]] = {}
        for name, raw_value in params.items():
            spec = form.input_by_name(name)
            if spec is None or raw_value is None:
                continue
            value = str(raw_value).strip()
            if not value:
                continue
            if spec.role == "search_box":
                columns = form.search_columns or tuple(
                    column.name for column in table.schema.searchable_columns
                )
                parts.append(Contains(columns, value))
            elif spec.role in ("select", "typed_text", "hidden"):
                if spec.column is None:
                    continue
                parts.append(self._value_predicate(form.table, spec.column, value))
            elif spec.role in ("range_min", "range_max"):
                if spec.column is None:
                    continue
                number = _to_number(value)
                if number is None:
                    continue
                bounds = range_bounds.setdefault(spec.column, {})
                if spec.role == "range_min":
                    bounds["low"] = number
                else:
                    bounds["high"] = number
        for column, bounds in range_bounds.items():
            parts.append(Range(column, low=bounds.get("low"), high=bounds.get("high")))
        if not parts:
            return TruePredicate()
        if len(parts) == 1:
            # Single-input submissions (most probes) skip the conjunction
            # wrapper and its per-row dispatch loop.
            return parts[0]
        return And(parts)

    def _value_predicate(self, table_name: str, column: str, value: str) -> Predicate:
        dtype = self.database.table(table_name).schema.column(column).dtype
        if dtype is DataType.ZIPCODE:
            # Locator-style backends return results near the submitted zip;
            # the simulator models "near" as the 3-digit regional prefix.
            return Prefix(column, value.strip()[:3])
        if dtype.is_numeric:
            number = _to_number(value)
            if number is None:
                # A non-numeric value against a numeric column matches nothing,
                # mirroring how real backends silently return empty results.
                return Range(column, low=1, high=0)
            if dtype is DataType.INTEGER:
                number = int(number)
            return Eq(column, number)
        if dtype is DataType.DATE and len(value) < 10:
            # Partial dates (a year, or year-month) match by containment.
            return Contains((column,), value)
        return Eq(column, value)

    # -- small helpers --------------------------------------------------------

    def _title_column(self, table_name: str) -> str:
        schema = self.database.table(table_name).schema
        return "title" if schema.has_column("title") else schema.primary_key

    def _summary(self, table_name: str, row: Mapping[str, object]) -> str:
        schema = self.database.table(table_name).schema
        pieces = []
        for column in schema.column_names:
            if column in ("id", "title", "description"):
                continue
            value = row.get(column)
            if value is not None:
                pieces.append(f"{column}: {value}")
        return " | ".join(pieces[:6])

    def _find_record(self, raw_id: str) -> tuple[dict | None, str]:
        for table in self.database.tables():
            key: object = raw_id
            try:
                key = int(raw_id)
            except ValueError:
                pass
            record = table.get(key)
            if record is not None:
                return record, table.name
        return None, ""

    @staticmethod
    def _page_number(url: Url) -> int:
        raw = url.param("page", "1")
        try:
            page = int(raw) if raw else 1
        except ValueError:
            page = 1
        return max(1, page)


def _to_number(value: str) -> float | None:
    """Parse a numeric form value; tolerate commas and currency symbols."""
    cleaned = value.replace(",", "").replace("$", "").strip()
    try:
        return float(cleaned)
    except ValueError:
        return None
