"""Query-log generation.

The paper's long-tail analysis needs a query stream whose frequency
distribution is a power law with a heavy tail and whose *head* is dominated
by popular topics already served well by the surface web, while the *tail*
contains specific structured queries answerable only from deep-web content.
The generator builds such a stream from the simulated web itself: head
queries from surface-site topics, tail queries from individual deep-web
records (so there is a ground-truth "which form site holds the answer" for
every tail query).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import SeededRng
from repro.util.text import tokenize
from repro.util.zipf import ZipfSampler
from repro.webspace.site import DeepWebSite
from repro.webspace.surface_site import SurfaceSite
from repro.webspace.web import Web

KIND_HEAD = "head"
KIND_TAIL = "tail"

_HEAD_TEMPLATES = ["{topic}", "{topic} news", "{topic} review", "{topic} photos", "buy {topic}"]

# Domain-aware tail query templates; fields reference record columns.
_TAIL_TEMPLATES: dict[str, list[str]] = {
    "used_cars": ["used {make} {model} {year}", "{year} {make} {model} {city}", "{make} {model} {color}"],
    "real_estate": ["{bedrooms} bedroom {property_type} {city}", "{property_type} for sale {city} {state}"],
    "apartments": ["{bedrooms} bedroom apartment {city}", "apartment {amenity} {city}"],
    "jobs": ["{title} jobs {city}", "{title} {company}", "{category} jobs {state}"],
    "recipes": ["{cuisine} {main_ingredient} recipe", "{main_ingredient} {cuisine} dish"],
    "books": ["{title} {author}", "{author} {genre} book"],
    "events": ["{category} {city} {event_date}", "{title} tickets"],
    "government": ["{topic} {kind} {state}", "{topic} {year} regulation", "{agency} {topic}"],
    "store_locator": ["{category} store {city}", "{title} {city} {zipcode}"],
    "media_catalog": ["{title} {category}", "{creator} {genre}"],
}


@dataclass(frozen=True)
class Query:
    """One unique query of the log."""

    text: str
    kind: str
    frequency: int = 0
    rank: int = 0
    target_host: str = ""
    target_table: str = ""
    target_record_id: object = None


@dataclass
class QueryLog:
    """A set of unique queries with frequencies (rank 1 = most frequent)."""

    queries: list[Query] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    @property
    def total_volume(self) -> int:
        return sum(query.frequency for query in self.queries)

    def frequencies(self) -> list[int]:
        """Frequencies in rank order (descending)."""
        return [query.frequency for query in sorted(self.queries, key=lambda q: q.rank)]

    def by_kind(self, kind: str) -> list[Query]:
        return [query for query in self.queries if query.kind == kind]

    def head(self, count: int) -> list[Query]:
        """The ``count`` most frequent queries."""
        return sorted(self.queries, key=lambda q: q.rank)[:count]

    def tail(self, skip: int) -> list[Query]:
        """Every query ranked below ``skip``."""
        return sorted(self.queries, key=lambda q: q.rank)[skip:]


@dataclass(frozen=True)
class QueryLogConfig:
    """Knobs for query-log generation."""

    total_volume: int = 20000
    zipf_exponent: float = 1.05
    head_variants_per_topic: int = 3
    tail_record_fraction: float = 0.25
    max_tail_per_site: int = 40
    head_rank_share: float = 0.7


class QueryLogGenerator:
    """Builds a :class:`QueryLog` from a simulated web."""

    def __init__(self, web: Web, rng: SeededRng) -> None:
        self.web = web
        self.rng = rng

    # -- population construction --------------------------------------------

    def head_population(self, config: QueryLogConfig) -> list[Query]:
        """Head queries derived from surface-site topics."""
        queries: list[Query] = []
        for site in self.web.surface_sites():
            for topic in site.topics:
                templates = self.rng.sample(_HEAD_TEMPLATES, config.head_variants_per_topic)
                for template in templates:
                    queries.append(
                        Query(
                            text=template.format(topic=topic.name.lower()),
                            kind=KIND_HEAD,
                            target_host=site.host,
                        )
                    )
        return queries

    def tail_population(self, config: QueryLogConfig) -> list[Query]:
        """Tail queries derived from individual deep-web records."""
        queries: list[Query] = []
        for site in self.web.deep_sites():
            queries.extend(self._site_tail_queries(site, config))
        return queries

    def _site_tail_queries(self, site: DeepWebSite, config: QueryLogConfig) -> list[Query]:
        rng = self.rng.child(f"tail/{site.host}")
        queries: list[Query] = []
        templates = _TAIL_TEMPLATES.get(site.domain_name, [])
        for table in site.database.tables():
            keys = table.primary_keys()
            sample_size = min(
                config.max_tail_per_site,
                max(1, int(len(keys) * config.tail_record_fraction)),
            )
            for key in rng.sample(keys, sample_size):
                row = table.get(key)
                if row is None:
                    continue
                text = self._render_tail_query(row, templates, rng)
                if not text:
                    continue
                queries.append(
                    Query(
                        text=text,
                        kind=KIND_TAIL,
                        target_host=site.host,
                        target_table=table.name,
                        target_record_id=key,
                    )
                )
        return queries

    @staticmethod
    def _render_tail_query(
        row: dict, templates: list[str], rng: SeededRng
    ) -> str:
        if templates:
            template = rng.choice(templates)
            try:
                text = template.format(**row)
            except (KeyError, IndexError):
                text = ""
            if text:
                return " ".join(tokenize(text))
        # Generic fallback: leading title tokens plus one categorical value.
        title_tokens = tokenize(str(row.get("title", "")), drop_stopwords=True)[:4]
        extra = ""
        for candidate in ("city", "topic", "category", "state"):
            if row.get(candidate):
                extra = str(row[candidate])
                break
        return " ".join(tokenize(" ".join(title_tokens) + " " + extra))

    # -- frequency assignment ---------------------------------------------------

    def generate(self, config: QueryLogConfig | None = None) -> QueryLog:
        """Build the full log: population + Zipf frequencies.

        Head queries are placed (mostly) in the top ranks and tail queries
        below them, with a little shuffling so the boundary is not artificial.
        """
        config = config or QueryLogConfig()
        head = self.rng.shuffle(self.head_population(config))
        tail = self.rng.shuffle(self.tail_population(config))
        if not head and not tail:
            return QueryLog([])
        # Interleave: the first `head_rank_share` of head queries take the top
        # ranks; remaining head queries are mixed into the tail region.
        split = int(len(head) * config.head_rank_share)
        top = head[:split]
        rest = self.rng.shuffle(head[split:] + tail)
        ordered = top + rest
        sampler = ZipfSampler(n=len(ordered), exponent=config.zipf_exponent)
        counts = sampler.sample_counts(self.rng.child("volume"), config.total_volume)
        queries = []
        for index, (query, count) in enumerate(zip(ordered, counts), start=1):
            queries.append(
                Query(
                    text=query.text,
                    kind=query.kind,
                    frequency=count,
                    rank=index,
                    target_host=query.target_host,
                    target_table=query.target_table,
                    target_record_id=query.target_record_id,
                )
            )
        return QueryLog(queries)
