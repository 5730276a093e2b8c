"""Domain specifications.

A :class:`DomainSpec` describes one content domain of the simulated deep web:
the backend table schema, which columns the site's HTML form exposes as
select menus, which are typed text boxes (zip code, city, date, price),
which numeric columns get min/max *range* input pairs, and whether the form
carries a generic keyword search box.  Site generation
(:mod:`repro.webspace.sitegen`) turns a spec plus generated rows into a
working deep-web site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.relational import Column, DataType, TableSchema


@dataclass(frozen=True)
class DomainSpec:
    """Static description of one content domain."""

    name: str
    table_name: str
    entity_name: str
    columns: tuple[Column, ...]
    title_column: str
    select_inputs: tuple[str, ...] = ()
    typed_text_inputs: Mapping[str, str] = field(default_factory=dict)
    range_inputs: tuple[str, ...] = ()
    has_search_box: bool = True
    search_columns: tuple[str, ...] = ()
    category_column: str | None = None
    commercial_value: float = 0.5
    description: str = ""

    def schema(self) -> TableSchema:
        """Build the relational schema for this domain's backing table."""
        return TableSchema(
            name=self.table_name,
            columns=list(self.columns),
            primary_key="id",
        )

    @property
    def form_columns(self) -> list[str]:
        """All columns exposed through the form in one way or another."""
        exposed = list(self.select_inputs)
        exposed.extend(self.typed_text_inputs.keys())
        exposed.extend(self.range_inputs)
        return exposed


_DOMAINS: dict[str, DomainSpec] = {}


def _register(spec: DomainSpec) -> DomainSpec:
    _DOMAINS[spec.name] = spec
    return spec


USED_CARS = _register(
    DomainSpec(
        name="used_cars",
        table_name="listings",
        entity_name="listing",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("make", DataType.CATEGORY),
            Column("model", DataType.CATEGORY),
            Column("year", DataType.INTEGER),
            Column("price", DataType.INTEGER),
            Column("mileage", DataType.INTEGER),
            Column("color", DataType.CATEGORY),
            Column("body_style", DataType.CATEGORY),
            Column("city", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("zipcode", DataType.ZIPCODE),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("make", "color", "body_style"),
        typed_text_inputs={"zipcode": "zipcode", "city": "city"},
        range_inputs=("price", "mileage", "year"),
        has_search_box=True,
        search_columns=("title", "description"),
        commercial_value=0.9,
        description="Classified listings of used cars for sale.",
    )
)

REAL_ESTATE = _register(
    DomainSpec(
        name="real_estate",
        table_name="properties",
        entity_name="property",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("property_type", DataType.CATEGORY),
            Column("bedrooms", DataType.INTEGER),
            Column("bathrooms", DataType.INTEGER),
            Column("price", DataType.INTEGER),
            Column("sqft", DataType.INTEGER),
            Column("city", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("zipcode", DataType.ZIPCODE),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("property_type", "bedrooms"),
        typed_text_inputs={"zipcode": "zipcode", "city": "city"},
        range_inputs=("price", "sqft"),
        has_search_box=True,
        search_columns=("title", "description"),
        commercial_value=0.9,
        description="Residential real-estate listings.",
    )
)

APARTMENTS = _register(
    DomainSpec(
        name="apartments",
        table_name="rentals",
        entity_name="rental",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("bedrooms", DataType.INTEGER),
            Column("rent", DataType.INTEGER),
            Column("sqft", DataType.INTEGER),
            Column("pet_friendly", DataType.CATEGORY),
            Column("amenity", DataType.CATEGORY),
            Column("city", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("zipcode", DataType.ZIPCODE),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("bedrooms", "pet_friendly", "amenity"),
        typed_text_inputs={"zipcode": "zipcode", "city": "city"},
        range_inputs=("rent",),
        has_search_box=True,
        search_columns=("title", "description"),
        commercial_value=0.8,
        description="Apartment rental listings.",
    )
)

JOBS = _register(
    DomainSpec(
        name="jobs",
        table_name="postings",
        entity_name="posting",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("company", DataType.TEXT),
            Column("category", DataType.CATEGORY),
            Column("city", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("salary", DataType.INTEGER),
            Column("posted_date", DataType.DATE),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("category", "state"),
        typed_text_inputs={"city": "city", "posted_date": "date"},
        range_inputs=("salary",),
        has_search_box=True,
        search_columns=("title", "company", "description"),
        commercial_value=0.8,
        description="Job postings searchable by category, location and salary.",
    )
)

RECIPES = _register(
    DomainSpec(
        name="recipes",
        table_name="recipes",
        entity_name="recipe",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("cuisine", DataType.CATEGORY),
            Column("main_ingredient", DataType.CATEGORY),
            Column("prep_minutes", DataType.INTEGER),
            Column("calories", DataType.INTEGER),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("cuisine", "main_ingredient"),
        typed_text_inputs={},
        range_inputs=("prep_minutes", "calories"),
        has_search_box=True,
        search_columns=("title", "description"),
        commercial_value=0.4,
        description="Recipe collections searchable by cuisine and ingredient.",
    )
)

BOOKS = _register(
    DomainSpec(
        name="books",
        table_name="books",
        entity_name="book",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("author", DataType.TEXT),
            Column("genre", DataType.CATEGORY),
            Column("year", DataType.INTEGER),
            Column("price", DataType.INTEGER),
            Column("isbn", DataType.TEXT),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("genre",),
        typed_text_inputs={},
        range_inputs=("price", "year"),
        has_search_box=True,
        search_columns=("title", "author", "description"),
        commercial_value=0.6,
        description="Library / bookstore catalogs.",
    )
)

EVENTS = _register(
    DomainSpec(
        name="events",
        table_name="events",
        entity_name="event",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("category", DataType.CATEGORY),
            Column("venue", DataType.TEXT),
            Column("city", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("event_date", DataType.DATE),
            Column("price", DataType.INTEGER),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("category",),
        typed_text_inputs={"city": "city", "event_date": "date"},
        range_inputs=("price",),
        has_search_box=True,
        search_columns=("title", "venue", "description"),
        commercial_value=0.6,
        description="Local event calendars.",
    )
)

GOVERNMENT = _register(
    DomainSpec(
        name="government",
        table_name="documents",
        entity_name="document",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("agency", DataType.CATEGORY),
            Column("topic", DataType.CATEGORY),
            Column("kind", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("year", DataType.INTEGER),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("agency", "topic", "kind"),
        typed_text_inputs={},
        range_inputs=("year",),
        has_search_box=True,
        search_columns=("title", "description"),
        commercial_value=0.1,
        description=(
            "Government and NGO document portals: rules, regulations and survey "
            "results -- the paper's prime example of valuable long-tail content."
        ),
    )
)

STORE_LOCATOR = _register(
    DomainSpec(
        name="store_locator",
        table_name="stores",
        entity_name="store",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("category", DataType.CATEGORY),
            Column("city", DataType.CATEGORY),
            Column("state", DataType.CATEGORY),
            Column("zipcode", DataType.ZIPCODE),
            Column("phone", DataType.TEXT),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("category",),
        typed_text_inputs={"zipcode": "zipcode", "city": "city"},
        range_inputs=(),
        has_search_box=False,
        search_columns=("title", "description"),
        commercial_value=0.5,
        description="Store locators searched by zip code -- the canonical typed-input form.",
    )
)

MEDIA_CATALOG = _register(
    DomainSpec(
        name="media_catalog",
        table_name="items",
        entity_name="item",
        columns=(
            Column("id", DataType.INTEGER),
            Column("title", DataType.TEXT),
            Column("category", DataType.CATEGORY),
            Column("genre", DataType.CATEGORY),
            Column("creator", DataType.TEXT),
            Column("year", DataType.INTEGER),
            Column("price", DataType.INTEGER),
            Column("description", DataType.TEXT),
        ),
        title_column="title",
        select_inputs=("category",),
        typed_text_inputs={},
        range_inputs=(),
        has_search_box=True,
        search_columns=("title", "creator", "description"),
        category_column="category",
        commercial_value=0.7,
        description=(
            "A multi-database catalog (movies / music / software / games) whose "
            "select menu chooses the underlying database -- the paper's "
            "database-selection correlation pattern."
        ),
    )
)


def domain(name: str) -> DomainSpec:
    """Look up a registered domain spec by name."""
    try:
        return _DOMAINS[name]
    except KeyError:
        raise KeyError(
            f"unknown domain {name!r}; known domains: {', '.join(sorted(_DOMAINS))}"
        ) from None


def domain_names() -> list[str]:
    """Names of all registered domains."""
    return sorted(_DOMAINS.keys())


def iter_domains() -> Iterable[DomainSpec]:
    """Iterate all registered domain specs (sorted by name)."""
    return [_DOMAINS[name] for name in domain_names()]
