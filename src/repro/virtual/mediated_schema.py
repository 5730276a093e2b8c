"""Mediated schemas for the virtual-integration approach.

One mediated schema per domain, listing attributes with synonyms, value
types and sample values.  As the paper notes, these can be created manually
or mined from form collections; the reproduction ships hand-written schemas
for its domains (mirroring how vertical search engines are actually built)
and the :mod:`repro.webtables.services` synonym service can extend them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen import vocab


@dataclass(frozen=True)
class MediatedAttribute:
    """One attribute of a mediated schema."""

    name: str
    synonyms: tuple[str, ...] = ()
    value_type: str = "text"  # 'text' | 'category' | 'number' | 'zipcode' | 'date'
    sample_values: tuple[str, ...] = ()

    def all_names(self) -> tuple[str, ...]:
        return (self.name,) + self.synonyms


@dataclass
class MediatedSchema:
    """The mediated schema of one domain."""

    domain: str
    attributes: list[MediatedAttribute] = field(default_factory=list)
    keywords: tuple[str, ...] = ()

    def attribute(self, name: str) -> MediatedAttribute | None:
        for attribute in self.attributes:
            if attribute.name == name or name in attribute.synonyms:
                return attribute
        return None


def _geo_attributes() -> list[MediatedAttribute]:
    return [
        MediatedAttribute(
            "city",
            synonyms=("town", "location"),
            value_type="category",
            sample_values=tuple(vocab.CITY_NAMES[:20]),
        ),
        MediatedAttribute("state", value_type="category", sample_values=tuple(vocab.US_STATES)),
        MediatedAttribute(
            "zipcode",
            synonyms=("zip", "zip_code", "postal_code"),
            value_type="zipcode",
            sample_values=tuple(vocab.ALL_ZIPCODES[:20]),
        ),
    ]


_SCHEMAS: dict[str, MediatedSchema] = {}


def _register(schema: MediatedSchema) -> MediatedSchema:
    _SCHEMAS[schema.domain] = schema
    return schema


_register(
    MediatedSchema(
        domain="used_cars",
        attributes=[
            MediatedAttribute("make", synonyms=("brand", "manufacturer"), value_type="category",
                              sample_values=tuple(vocab.CAR_MAKES)),
            MediatedAttribute("model", value_type="category"),
            MediatedAttribute("year", value_type="number"),
            MediatedAttribute("price", synonyms=("cost", "asking_price"), value_type="number"),
            MediatedAttribute("mileage", synonyms=("miles", "odometer"), value_type="number"),
            MediatedAttribute("color", synonyms=("colour",), value_type="category",
                              sample_values=tuple(vocab.CAR_COLORS)),
            MediatedAttribute("body_style", synonyms=("body", "style"), value_type="category",
                              sample_values=tuple(vocab.CAR_BODY_STYLES)),
            *_geo_attributes(),
        ],
        keywords=("used", "car", "cars", "auto", "vehicle", "listing", "sale"),
    )
)

_register(
    MediatedSchema(
        domain="real_estate",
        attributes=[
            MediatedAttribute("property_type", synonyms=("type", "home_type"), value_type="category",
                              sample_values=tuple(vocab.PROPERTY_TYPES)),
            MediatedAttribute("bedrooms", synonyms=("beds", "br"), value_type="number"),
            MediatedAttribute("bathrooms", synonyms=("baths", "ba"), value_type="number"),
            MediatedAttribute("price", synonyms=("asking_price", "list_price"), value_type="number"),
            MediatedAttribute("sqft", synonyms=("square_feet", "area"), value_type="number"),
            *_geo_attributes(),
        ],
        keywords=("home", "house", "real", "estate", "property", "sale", "listing"),
    )
)

_register(
    MediatedSchema(
        domain="apartments",
        attributes=[
            MediatedAttribute("bedrooms", synonyms=("beds", "br"), value_type="number"),
            MediatedAttribute("rent", synonyms=("price", "monthly_rent"), value_type="number"),
            MediatedAttribute("sqft", synonyms=("square_feet", "area"), value_type="number"),
            MediatedAttribute("pet_friendly", synonyms=("pets", "pets_allowed"), value_type="category",
                              sample_values=("yes", "no")),
            MediatedAttribute("amenity", synonyms=("amenities", "features"), value_type="category",
                              sample_values=tuple(vocab.APARTMENT_AMENITIES)),
            *_geo_attributes(),
        ],
        keywords=("apartment", "rental", "rent", "lease", "studio"),
    )
)

_register(
    MediatedSchema(
        domain="jobs",
        attributes=[
            MediatedAttribute("title", synonyms=("position", "job_title"), value_type="text",
                              sample_values=tuple(vocab.JOB_TITLES[:10])),
            MediatedAttribute("company", synonyms=("employer",), value_type="text"),
            MediatedAttribute("category", synonyms=("industry", "sector"), value_type="category",
                              sample_values=tuple(vocab.JOB_CATEGORIES)),
            MediatedAttribute("salary", synonyms=("pay", "compensation"), value_type="number"),
            MediatedAttribute("posted_date", synonyms=("date", "posted"), value_type="date"),
            *_geo_attributes(),
        ],
        keywords=("job", "jobs", "career", "hiring", "position", "employment"),
    )
)

_register(
    MediatedSchema(
        domain="books",
        attributes=[
            MediatedAttribute("title", value_type="text"),
            MediatedAttribute("author", synonyms=("writer",), value_type="text"),
            MediatedAttribute("genre", synonyms=("category", "subject"), value_type="category",
                              sample_values=tuple(vocab.BOOK_GENRES)),
            MediatedAttribute("year", synonyms=("published", "publication_year"), value_type="number"),
            MediatedAttribute("price", value_type="number"),
            MediatedAttribute("isbn", value_type="text"),
        ],
        keywords=("book", "books", "library", "author", "novel", "catalog"),
    )
)

_register(
    MediatedSchema(
        domain="events",
        attributes=[
            MediatedAttribute("title", synonyms=("name", "event"), value_type="text"),
            MediatedAttribute("category", synonyms=("type",), value_type="category",
                              sample_values=tuple(vocab.EVENT_CATEGORIES)),
            MediatedAttribute("venue", synonyms=("place", "location_name"), value_type="text"),
            MediatedAttribute("event_date", synonyms=("date", "when"), value_type="date"),
            MediatedAttribute("price", synonyms=("ticket_price",), value_type="number"),
            *_geo_attributes(),
        ],
        keywords=("event", "events", "tickets", "concert", "show", "calendar"),
    )
)

_register(
    MediatedSchema(
        domain="government",
        attributes=[
            MediatedAttribute("title", value_type="text"),
            MediatedAttribute("agency", synonyms=("department", "office"), value_type="category",
                              sample_values=tuple(vocab.AGENCIES)),
            MediatedAttribute("topic", synonyms=("subject",), value_type="category",
                              sample_values=tuple(vocab.GOV_TOPICS)),
            MediatedAttribute("kind", synonyms=("document_type",), value_type="category",
                              sample_values=tuple(vocab.GOV_DOCUMENT_KINDS)),
            MediatedAttribute("year", value_type="number"),
            MediatedAttribute("state", value_type="category", sample_values=tuple(vocab.US_STATES)),
        ],
        keywords=("government", "regulation", "public", "agency", "report", "survey"),
    )
)

_register(
    MediatedSchema(
        domain="store_locator",
        attributes=[
            MediatedAttribute("title", synonyms=("name", "store_name"), value_type="text"),
            MediatedAttribute("category", synonyms=("store_type",), value_type="category",
                              sample_values=tuple(vocab.STORE_CATEGORIES)),
            MediatedAttribute("phone", value_type="text"),
            *_geo_attributes(),
        ],
        keywords=("store", "shop", "locator", "near", "location"),
    )
)

_register(
    MediatedSchema(
        domain="media_catalog",
        attributes=[
            MediatedAttribute("title", value_type="text"),
            MediatedAttribute("category", synonyms=("section", "db"), value_type="category",
                              sample_values=tuple(vocab.MEDIA_CATEGORIES)),
            MediatedAttribute("genre", value_type="category"),
            MediatedAttribute("creator", synonyms=("artist", "director", "developer"), value_type="text"),
            MediatedAttribute("year", value_type="number"),
            MediatedAttribute("price", value_type="number"),
        ],
        keywords=("movies", "music", "software", "games", "media", "download", "catalog"),
    )
)

_register(
    MediatedSchema(
        domain="recipes",
        attributes=[
            MediatedAttribute("title", synonyms=("name", "recipe"), value_type="text"),
            MediatedAttribute("cuisine", value_type="category", sample_values=tuple(vocab.CUISINES)),
            MediatedAttribute("main_ingredient", synonyms=("ingredient",), value_type="category",
                              sample_values=tuple(vocab.INGREDIENTS)),
            MediatedAttribute("prep_minutes", synonyms=("time", "prep_time"), value_type="number"),
            MediatedAttribute("calories", value_type="number"),
        ],
        keywords=("recipe", "recipes", "cooking", "dish", "cuisine"),
    )
)


def schema_for_domain(domain: str) -> MediatedSchema:
    """The mediated schema registered for a domain."""
    try:
        return _SCHEMAS[domain]
    except KeyError:
        raise KeyError(f"no mediated schema for domain {domain!r}") from None


def all_schemas() -> list[MediatedSchema]:
    """All registered mediated schemas."""
    return [_SCHEMAS[name] for name in sorted(_SCHEMAS)]
