"""Deterministic load generation for the serving frontend.

A load test is only evidence if it can be replayed: the generator draws
a seeded Zipf stream over a fixed query population, so two runs with the
same web and seed produce the *identical* sequence of queries -- which
is what lets the equivalence tests pin cached, uncached and concurrent
serving against each other, and what makes the ``serve_*`` workloads of
``bench/`` comparable across runs.

The population mirrors where real traffic would land across the three
content routes:

* **head/tail queries** from :class:`~repro.search.querylog.QueryLogGenerator`
  -- head queries about surface-site topics (answered by crawled pages),
  tail queries derived from individual deep-web records (answered by
  surfaced pages);
* **vocab queries** assembled from the ``repro.datagen`` vocabularies --
  structured attribute combinations (make/model, amenity/city, agency
  topics) of the kind WebTables documents answer.

Frequencies follow a Zipf law over the ranked population (the paper's
Section 3.2 long-tail shape), so a result cache sees realistic head
re-hits while the tail stays cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.datagen import vocab
from repro.search.querylog import (
    KIND_HEAD,
    KIND_TAIL,
    QueryLogConfig,
    QueryLogGenerator,
)
from repro.util.rng import SeededRng
from repro.util.zipf import ZipfSampler
from repro.webspace.web import Web

KIND_VOCAB = "vocab"
KIND_STRUCTURED = "structured"
KIND_TABLE = "table"


@dataclass(frozen=True)
class WorkloadQuery:
    """One request of a serving workload."""

    text: str
    k: int = 10
    kind: str = KIND_HEAD
    rank: int = 0


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs for workload generation."""

    zipf_exponent: float = 1.05
    #: Cap on vocab-derived population entries (0 disables the route).
    max_vocab_queries: int = 150
    log: QueryLogConfig = field(default_factory=QueryLogConfig)


def vocab_queries(limit: int = 150) -> list[str]:
    """Structured attribute-combination queries from the datagen vocab.

    Deterministic by construction (plain constants, fixed iteration
    order); ``limit`` truncates the assembled list.
    """
    queries: list[str] = []
    for make, models in vocab.CAR_MAKES_MODELS.items():
        for model in models[:2]:
            queries.append(f"used {make} {model}".lower())
    for city in vocab.CITY_NAMES[:24]:
        queries.append(f"apartment {city}".lower())
    for topic in vocab.GOV_TOPICS[:16]:
        queries.append(f"{topic} regulation")
    for cuisine, ingredient in zip(vocab.CUISINES, vocab.INGREDIENTS):
        queries.append(f"{cuisine} {ingredient} recipe")
    for category in vocab.STORE_CATEGORIES[:8]:
        queries.append(f"{category} store")
    return queries[: max(0, limit)]


def structured_queries(limit: int = 120) -> list[str]:
    """``field:value`` filter queries from the datagen vocab.

    The shapes the federated planner parses into structured filters --
    single- and two-attribute combinations over the car, apartment and
    recipe domains.  Deterministic by construction.
    """
    queries: list[str] = []
    for make, models in vocab.CAR_MAKES_MODELS.items():
        queries.append(f"make:{make}".lower())
        for model in models[:1]:
            queries.append(f"make:{make} model:{model}".lower())
    for city in vocab.CITY_NAMES[:16]:
        queries.append(f"city:{city}".lower().replace(" ", "_"))
    for cuisine in vocab.CUISINES[:8]:
        queries.append(f"cuisine:{cuisine} vegetarian".lower())
    return queries[: max(0, limit)]


def table_lookup_queries(limit: int = 60) -> list[str]:
    """Attribute-combination queries (the WebTables lookup shape).

    Every query is a run of schema attribute names from one domain spec
    -- the kind of query ``webtable`` documents (whose text leads with
    the table header) answer, and which the planner recognizes as a
    table lookup once the corpus statistics know the attributes.
    """
    from repro.datagen.domains import iter_domains

    queries: list[str] = []
    for spec in iter_domains():
        columns = [name for name in spec.form_columns if name]
        for width in (2, 3):
            if len(columns) >= width:
                queries.append(" ".join(columns[:width]))
    # Deterministic dedup, preserving first-seen order.
    seen: set[str] = set()
    unique = [q for q in queries if not (q in seen or seen.add(q))]
    return unique[: max(0, limit)]


class WorkloadGenerator:
    """Builds seeded, replayable query streams over a simulated web."""

    def __init__(
        self,
        web: Web,
        seed: int | str = "workload",
        config: WorkloadConfig | None = None,
    ) -> None:
        self.web = web
        self.config = config or WorkloadConfig()
        self._seed = seed
        self._rng = SeededRng(seed)
        self._population: list[WorkloadQuery] | None = None
        self._stream_rng: SeededRng | None = None
        # Mixed-stream state persists like _stream_rng: consecutive
        # mixed_stream calls continue the sequence instead of replaying it.
        self._mixed_mode_rng: SeededRng | None = None
        self._mixed_rngs: dict[str, SeededRng] = {}

    def population(self) -> list[WorkloadQuery]:
        """The ranked unique-query population (rank 1 = most popular).

        Ranks come from a seeded shuffle of the merged head/tail/vocab
        populations, so no route monopolizes the head of the Zipf curve.
        Built once and cached; duplicate texts keep their best rank.
        """
        if self._population is not None:
            return self._population
        generator = QueryLogGenerator(self.web, self._rng.child("query-log"))
        candidates: list[tuple[str, str]] = [
            (query.text, KIND_HEAD) for query in generator.head_population(self.config.log)
        ]
        candidates += [
            (query.text, KIND_TAIL) for query in generator.tail_population(self.config.log)
        ]
        candidates += [
            (text, KIND_VOCAB) for text in vocab_queries(self.config.max_vocab_queries)
        ]
        seen: set[str] = set()
        unique = []
        for text, kind in self._rng.child("ranks").shuffle(candidates):
            if text and text not in seen:
                seen.add(text)
                unique.append((text, kind))
        self._population = [
            WorkloadQuery(text=text, kind=kind, rank=rank)
            for rank, (text, kind) in enumerate(unique, start=1)
        ]
        return self._population

    def stream(self, count: int, k: int = 10) -> list[WorkloadQuery]:
        """Draw a Zipf-weighted stream of ``count`` requests.

        Popular ranks repeat (cache hits); the tail appears once or not
        at all.  The same generator instance yields a continuing stream
        across calls; a fresh generator with the same seed replays the
        identical sequence from the start.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        population = self.population()
        if not population or count == 0:
            return []
        sampler = ZipfSampler(n=len(population), exponent=self.config.zipf_exponent)
        if self._stream_rng is None:
            self._stream_rng = self._rng.child("stream")
        return [
            replace(population[sampler.sample_rank(self._stream_rng) - 1], k=k)
            for _ in range(count)
        ]

    def fault_schedule(
        self,
        error_rate: float = 0.2,
        timeout_rate: float = 0.05,
        latency_mean: float = 0.0,
        outage_hosts: int = 0,
        outage_window: tuple[int, int] = (5, 20),
        agents: tuple[str, ...] | None = None,
    ):
        """A seeded chaos schedule over this web's hosts.

        Builds a :class:`~repro.resilience.faults.FaultPlan` giving every
        registered host its own failure profile: the requested base
        ``error_rate``/``timeout_rate``/``latency_mean`` scaled by a
        per-host jitter factor in [0.5, 1.5], plus (for ``outage_hosts``
        sampled hosts) one hard outage over fetch indices
        ``[outage_window[0], outage_window[1])``.  Everything derives from
        named children of the generator seed over the sorted host list, so
        the same ``(web, seed)`` always yields the identical schedule --
        the chaos-soak counterpart of the replayable query stream.
        ``agents`` restricts injection (e.g. ``(AGENT_VIRTUAL,)`` faults
        only query-time fetches).
        """
        from repro.resilience.faults import FaultPlan, FaultSpec

        hosts = sorted(site.host for site in self.web.sites())
        rng = self._rng.child("fault-schedule")
        specs: dict[str, FaultSpec] = {}
        for host in hosts:
            host_rng = rng.child(host)
            scale = lambda rate: min(1.0, rate * (0.5 + host_rng.random()))
            specs[host] = FaultSpec(
                error_rate=scale(error_rate),
                timeout_rate=scale(timeout_rate),
                latency_mean=latency_mean * (0.5 + host_rng.random()),
            )
        if outage_hosts > 0 and hosts:
            start, stop = outage_window
            for host in rng.child("outages").sample(hosts, outage_hosts):
                specs[host] = replace(specs[host], outages=((start, stop),))
        return FaultPlan(
            seed=f"{self._seed}/faults",
            hosts=specs,
            agents=agents,
        )

    def replica_fault_schedule(
        self,
        shard_count: int,
        replicas: int,
        kill: int = 1,
        outage_window: tuple[int, int] = (5, 20),
        error_rate: float = 0.0,
        timeout_rate: float = 0.0,
    ):
        """A seeded kill/revive schedule over cluster replica names.

        The cluster counterpart of :meth:`fault_schedule`: ``kill``
        replicas (sampled from the full ``shard{i}/replica{j}`` roster by
        a named child of the generator seed) go down hard for scatter
        indices ``[outage_window[0], outage_window[1])`` -- dead while the
        soak is mid-flight, revived after -- and every replica optionally
        gets base ``error_rate``/``timeout_rate`` noise (an injected
        timeout models a straggler, which triggers a hedge).  Gated on
        the ``cluster`` agent, so a plan shared with the fetch tier never
        touches web hosts.
        """
        from repro.cluster.node import AGENT_CLUSTER, replica_name
        from repro.resilience.faults import FaultPlan, FaultSpec

        if shard_count <= 0 or replicas <= 0:
            raise ValueError(
                f"shard_count and replicas must be positive, got "
                f"{shard_count}x{replicas}"
            )
        roster = [
            replica_name(shard, replica)
            for shard in range(shard_count)
            for replica in range(replicas)
        ]
        if not 0 <= kill <= len(roster):
            raise ValueError(f"kill must be in [0, {len(roster)}], got {kill}")
        base = FaultSpec(error_rate=error_rate, timeout_rate=timeout_rate)
        specs = {name: base for name in roster}
        start, stop = outage_window
        rng = self._rng.child("replica-faults")
        for name in rng.child("outages").sample(roster, kill):
            specs[name] = replace(specs[name], outages=((start, stop),))
        return FaultPlan(
            seed=f"{self._seed}/replica-faults",
            hosts=specs,
            agents=(AGENT_CLUSTER,),
        )

    def mixed_stream(
        self,
        count: int,
        k: int = 10,
        ratios: tuple[float, float, float] = (0.6, 0.25, 0.15),
    ) -> list[WorkloadQuery]:
        """A seeded mixed-mode stream: keyword, structured and
        table-lookup queries interleaved at the given ratios.

        This is the federated planner's workload shape: each request is
        one of three modes -- a keyword query drawn Zipf-style from the
        head/tail/vocab population, a ``field:value`` structured query,
        or an attribute-combination table lookup, each mode with its own
        Zipf-ranked population.  The per-request mode choice and all
        three samplers derive from named children of the generator seed,
        so a fresh generator with the same web and seed replays the
        stream bit for bit; the same generator instance continues the
        sequence across calls (like :meth:`stream`, whose sequence is
        unaffected by interleaving).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if len(ratios) != 3 or any(r < 0 for r in ratios) or sum(ratios) <= 0:
            raise ValueError(f"ratios must be three non-negative weights, got {ratios}")
        populations: dict[str, list[WorkloadQuery]] = {
            "keyword": self.population(),
            KIND_STRUCTURED: [
                WorkloadQuery(text=text, kind=KIND_STRUCTURED, rank=rank)
                for rank, text in enumerate(structured_queries(), start=1)
            ],
            KIND_TABLE: [
                WorkloadQuery(text=text, kind=KIND_TABLE, rank=rank)
                for rank, text in enumerate(table_lookup_queries(), start=1)
            ],
        }
        modes = [mode for mode, pop in populations.items() if pop]
        weights = [ratios[("keyword", KIND_STRUCTURED, KIND_TABLE).index(m)] for m in modes]
        if not modes or count == 0:
            return []
        if self._mixed_mode_rng is None:
            self._mixed_mode_rng = self._rng.child("mixed-mode")
        mode_rng = self._mixed_mode_rng
        samplers = {}
        for mode, pop in populations.items():
            if pop:
                if mode not in self._mixed_rngs:
                    self._mixed_rngs[mode] = self._rng.child(f"mixed-{mode}")
                samplers[mode] = (
                    ZipfSampler(n=len(pop), exponent=self.config.zipf_exponent),
                    self._mixed_rngs[mode],
                )
        out: list[WorkloadQuery] = []
        for _ in range(count):
            mode = mode_rng.weighted_choice(modes, weights)
            sampler, rng = samplers[mode]
            out.append(replace(populations[mode][sampler.sample_rank(rng) - 1], k=k))
        return out
