"""Deep-web sites: one HTML form over one backend table.

A :class:`DeepWebSite` owns one :class:`~repro.relational.Table` and the one
:class:`FormTemplate` over it, built together on the first read of either (a
site that is never fetched never builds them).  It serves:

* ``/`` -- the homepage carrying the rendered HTML form.  Deep-web content
  is *not* linked from here (that is what makes it deep); sites can
  optionally expose a few "browse" links to mimic partially-linked content.
* the form action path (e.g. ``/search``) -- compiles the submission into a
  conjunctive predicate and renders one page of the matching rows, ordered
  by title, with links to detail pages.
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
from repro.relational import (
    And,
    Contains,
    DataType,
    Eq,
    Predicate,
    Prefix,
    Range,
    Table,
    TruePredicate,
)
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
    """The form over a site's table."""

    form_id: str
    action_path: str
    method: str
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
        self._backend: tuple[Table, list[FormTemplate]] | None = None
        # primary key -> rendered result_item fragment.  The same record
        # appears on many result pages (overlapping queries), and the table
        # is immutable, so the fragment is a pure function of the key.
        self._fragment_cache: dict[object, str] = {}
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
    def table(self) -> Table:
        return (self._backend or self._build_backend())[0]

    @property
    def forms(self) -> list[FormTemplate]:
        return (self._backend or self._build_backend())[1]

    def _build_backend(self) -> tuple[Table, list[FormTemplate]]:
        """Build the table and the form over it once; all callers get that pair."""
        from repro.webspace.sitegen import build_form, build_table  # sitegen imports site

        with self._build_lock:
            if self._backend is None:
                spec, records, rng, method, per_page, range_values = self._inputs
                table = build_table(spec, records, rng.child("data"))
                form = build_form(spec, table, rng.child("form"), method, per_page, range_values)
                self._backend = (table, [form])
            return self._backend

    # -- URL helpers --------------------------------------------------------

    def homepage_url(self) -> Url:
        return Url(host=self.host, path="/")

    def detail_url(self, record_id: object) -> Url:
        return Url.build(self.host, "/item", {"id": record_id})

    def size(self) -> int:
        """Number of records in the backend table: the record count it is
        generated with (rows are ids 1..count), so the table is not built."""
        return self._inputs[1]

    @property
    def method(self) -> str:
        """The method its form submits with, read without building it."""
        return self._inputs[3]

    def ground_truth_ids(self) -> set[object]:
        """Every primary key -- ground truth for coverage."""
        return set(self.table.primary_keys())

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
            table = self.table
            featured = [
                markup.link(str(self.detail_url(key)), str(table.get(key).get(table.order_by, key)))
                for key in table.primary_keys()[: self.browse_link_count]
            ]
            if featured:
                parts.append(markup.unordered_list(featured))
        body = "".join(parts)
        return WebPage(url=str(url), html=markup.render_page(self.title, body, self.language))

    def _results_page(self, form: FormTemplate, url: Url) -> WebPage:
        predicate = self.compile_predicate(form, url.param_dict)
        page_number = self._page_number(url)
        offset = (page_number - 1) * form.results_per_page
        table = self.table
        rows, total = table.page(predicate, offset, form.results_per_page)
        if total == 0:
            return WebPage(url=str(url), html=self._empty_results_html)
        parts = [self._results_heading]
        primary_key = table.schema.primary_key
        fragment_cache = self._fragment_cache
        parts.append(markup.result_count_banner(total))
        for row in rows:
            key = row[primary_key]
            fragment = fragment_cache.get(key)
            if fragment is None:
                fragment = markup.result_item(
                    str(self.detail_url(key)),
                    str(row.get(table.order_by, key)),
                    self._summary(row),
                )
                fragment_cache[key] = fragment
            parts.append(fragment)
        if offset + len(rows) < total:
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
        record_id: object = raw_id
        try:
            record_id = int(raw_id)
        except ValueError:
            pass
        record = self.table.get(record_id)
        if record is None:
            return not_found(str(url))
        title = str(record.get(self.table.order_by, raw_id))
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
        """Translate submitted form parameters into a conjunctive predicate.

        Unknown parameters are ignored (as real backends do); empty values
        mean "any".  Min/max pairs over the same column are combined into a
        single :class:`Range`.
        """
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
                parts.append(Contains(form.search_columns, value))
            elif spec.role in ("select", "typed_text", "hidden"):
                if spec.column is None:
                    continue
                parts.append(self._value_predicate(spec.column, value))
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

    def _value_predicate(self, column: str, value: str) -> Predicate:
        dtype = self.table.schema.column(column).dtype
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

    def _summary(self, row: Mapping[str, object]) -> str:
        pieces = []
        for column in self.table.schema.column_names:
            if column in ("id", "title", "description"):
                continue
            value = row.get(column)
            if value is not None:
                pieces.append(f"{column}: {value}")
        return " | ".join(pieces[:6])

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
