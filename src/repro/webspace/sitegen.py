"""Generation of a whole simulated web.

``generate_web`` builds a :class:`~repro.webspace.web.Web` containing:

* many deep-web sites across the registered domains, with skewed
  (log-normal) database sizes, varied input names, GET and POST forms,
  and optional browse links;
* a few surface-web sites covering head topics (celebrities, products),
  which is where most head-query traffic lands.

Everything is driven by a single seed so experiments are reproducible.
Generation draws each deep site's domain, size, method and browse links;
its database and form are built on the site's first fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen import vocab
from repro.datagen.domains import DomainSpec, domain_names, iter_domains
from repro.datagen.generators import generate_rows
from repro.relational.database import Database
from repro.util.rng import SeededRng
from repro.webspace.site import DeepWebSite, FormInputSpec, FormTemplate
from repro.webspace.surface_site import SurfaceSite, SurfaceTopic
from repro.webspace.web import Web

# Alternative public names for common input roles; picking among these is what
# makes typed-input recognition and range detection realistically noisy.
SEARCH_BOX_NAMES = ["q", "query", "keywords", "search", "kw"]
ZIPCODE_NAMES = ["zip", "zipcode", "zip_code", "postal_code"]
CITY_NAMES = ["city", "location", "town"]
DATE_NAMES = ["date", "start_date", "posted_after"]
ACTION_PATHS = ["/search", "/results", "/find", "/listings"]
RANGE_NAME_PATTERNS = [
    ("min_{col}", "max_{col}"),
    ("{col}_min", "{col}_max"),
    ("{col}_from", "{col}_to"),
    ("min{col}", "max{col}"),
    ("low_{col}", "high_{col}"),
]


@dataclass(frozen=True)
class WebConfig:
    """Knobs for :func:`generate_web`."""

    seed: int = 7
    total_deep_sites: int = 30
    min_records: int = 25
    max_records: int = 600
    size_mu: float = 4.6
    size_sigma: float = 0.9
    surface_site_count: int = 3
    surface_pages_per_topic: int = 5
    post_form_fraction: float = 0.1
    browse_link_fraction: float = 0.2
    results_per_page: int = 10
    range_value_count: int = 10
    domains: tuple[str, ...] = field(default_factory=tuple)
    domain_weights: tuple[float, ...] = field(default_factory=tuple)

    def effective_domains(self) -> list[str]:
        return list(self.domains) if self.domains else domain_names()

    def effective_weights(self) -> list[float]:
        names = self.effective_domains()
        if self.domain_weights and len(self.domain_weights) == len(names):
            return list(self.domain_weights)
        # Weight by commercial value + 0.5 so popular domains get more sites,
        # but tail domains (government portals, ...) still appear.
        weights = []
        for name in names:
            spec = next(spec for spec in iter_domains() if spec.name == name)
            weights.append(spec.commercial_value + 0.5)
        return weights


# ---------------------------------------------------------------------------
# Single-site construction
# ---------------------------------------------------------------------------


def build_database(spec: DomainSpec, record_count: int, rng: SeededRng) -> Database:
    """Create and populate the backend database for one site."""
    database = Database(name=f"{spec.name}_db")
    table = database.create_table(spec.schema())
    rows = generate_rows(spec.name, record_count, rng)
    table.insert_many(rows)
    for column in spec.select_inputs:
        if table.schema.has_column(column):
            table.create_index(column)
    return database


def _range_options(low: float, high: float, count: int) -> tuple[str, ...]:
    """Evenly spaced integer bucket boundaries between low and high."""
    if count < 2 or high <= low:
        return (str(int(low)), str(int(high if high > low else low + 1)))
    step = (high - low) / (count - 1)
    values = []
    for index in range(count):
        value = int(round(low + index * step))
        if not values or value != values[-1]:
            values.append(value)
    return tuple(str(value) for value in values)


def build_form(
    spec: DomainSpec,
    database: Database,
    rng: SeededRng,
    method: str = "get",
    results_per_page: int = 10,
    range_value_count: int = 10,
    action_path: str | None = None,
) -> FormTemplate:
    """Build the form template a site exposes for its domain."""
    table = database.table(spec.table_name)
    inputs: list[FormInputSpec] = []

    if spec.has_search_box:
        inputs.append(
            FormInputSpec(
                name=rng.choice(SEARCH_BOX_NAMES),
                kind="text",
                role="search_box",
                label="Keywords",
            )
        )

    for column in spec.select_inputs:
        values = table.distinct_values(column)
        options = tuple(sorted(str(value) for value in values))
        inputs.append(
            FormInputSpec(
                name=column,
                kind="select",
                role="select",
                column=column,
                options=options,
                label=column.replace("_", " "),
            )
        )

    for column, semantic_type in spec.typed_text_inputs.items():
        if semantic_type == "zipcode":
            name = rng.choice(ZIPCODE_NAMES)
        elif semantic_type == "city":
            name = rng.choice(CITY_NAMES)
        elif semantic_type == "date":
            name = rng.choice(DATE_NAMES)
        else:
            name = column
        inputs.append(
            FormInputSpec(
                name=name,
                kind="text",
                role="typed_text",
                column=column,
                semantic_type=semantic_type,
                label=name.replace("_", " "),
            )
        )

    for column in spec.range_inputs:
        stats = table.column_statistics(column)
        if stats.get("count", 0) == 0 or "min" not in stats:
            continue
        options = _range_options(stats["min"], stats["max"], range_value_count)
        pattern = rng.choice(RANGE_NAME_PATTERNS)
        min_name = pattern[0].format(col=column)
        max_name = pattern[1].format(col=column)
        inputs.append(
            FormInputSpec(
                name=min_name,
                kind="select",
                role="range_min",
                column=column,
                options=options,
                label=min_name.replace("_", " "),
            )
        )
        inputs.append(
            FormInputSpec(
                name=max_name,
                kind="select",
                role="range_max",
                column=column,
                options=options,
                label=max_name.replace("_", " "),
            )
        )

    return FormTemplate(
        form_id=f"{spec.name}_form",
        action_path=action_path or rng.choice(ACTION_PATHS),
        method=method,
        table=spec.table_name,
        inputs=inputs,
        search_columns=spec.search_columns,
        results_per_page=results_per_page,
    )


def build_deep_site(
    spec: DomainSpec,
    host: str,
    record_count: int,
    rng: SeededRng,
    method: str = "get",
    results_per_page: int = 10,
    range_value_count: int = 10,
    browse_link_count: int = 0,
    language: str = "en",
) -> DeepWebSite:
    """Build one deep-web site for a domain; its database and form are
    built on the site's first fetch (see :class:`DeepWebSite`)."""
    title = _site_title(spec, host, rng.child("title"))
    description = (
        f"{title}: {spec.description} Search {record_count} {spec.entity_name} records."
    )
    return DeepWebSite(
        host=host,
        title=title,
        spec=spec,
        record_count=record_count,
        rng=rng,
        method=method,
        results_per_page=results_per_page,
        range_value_count=range_value_count,
        description=description,
        language=language,
        browse_link_count=browse_link_count,
    )


def _site_title(spec: DomainSpec, host: str, rng: SeededRng) -> str:
    prefix = rng.choice(vocab.COMPANY_PREFIXES)
    noun = spec.entity_name.title()
    return f"{prefix} {noun} Finder"


# ---------------------------------------------------------------------------
# Whole-web generation
# ---------------------------------------------------------------------------


def generate_deep_sites(config: WebConfig, rng: SeededRng) -> list[DeepWebSite]:
    """Generate the configured number of deep-web sites across domains."""
    names = config.effective_domains()
    weights = config.effective_weights()
    specs = {spec.name: spec for spec in iter_domains()}
    sites: list[DeepWebSite] = []
    for index in range(config.total_deep_sites):
        domain_name = rng.weighted_choice(names, weights)
        spec = specs[domain_name]
        record_count = rng.bounded_int_lognormal(
            config.size_mu, config.size_sigma, config.min_records, config.max_records
        )
        method = "post" if rng.maybe(config.post_form_fraction) else "get"
        browse_links = 3 if rng.maybe(config.browse_link_fraction) else 0
        host = f"{domain_name.replace('_', '')}{index}.example.com"
        site = build_deep_site(
            spec,
            host=host,
            record_count=record_count,
            rng=rng.child(f"site/{index}"),
            method=method,
            results_per_page=config.results_per_page,
            range_value_count=config.range_value_count,
            browse_link_count=browse_links,
        )
        sites.append(site)
    return sites


def generate_surface_sites(config: WebConfig, rng: SeededRng) -> list[SurfaceSite]:
    """Generate surface-web sites covering head topics."""
    topics = [
        SurfaceTopic(slug=_slug(name), name=name, page_count=config.surface_pages_per_topic)
        for name in vocab.CELEBRITIES + vocab.POPULAR_PRODUCTS
    ]
    sites: list[SurfaceSite] = []
    if config.surface_site_count <= 0:
        return sites
    chunks = _split(topics, config.surface_site_count)
    for index, chunk in enumerate(chunks):
        host = f"portal{index}.example.com"
        sites.append(
            SurfaceSite(
                host=host,
                title=f"Portal {index}",
                topics=chunk,
                rng=rng.child(f"surface/{index}"),
            )
        )
    return sites


def generate_web(config: WebConfig | None = None) -> Web:
    """Generate the full simulated web described by ``config``."""
    config = config or WebConfig()
    rng = SeededRng(config.seed)
    web = Web()
    web.register_all(generate_deep_sites(config, rng.child("deep")))
    web.register_all(generate_surface_sites(config, rng.child("surface")))
    return web


def _slug(name: str) -> str:
    return "".join(char if char.isalnum() else "-" for char in name.lower()).strip("-")


def _split(items: list, parts: int) -> list[list]:
    """Split a list into ``parts`` near-equal chunks (no empty chunks)."""
    parts = max(1, min(parts, len(items)))
    size = (len(items) + parts - 1) // parts
    return [items[start : start + size] for start in range(0, len(items), size)]
