"""The seven workloads.  Names are fixed; later issues cite them.

Each workload drives the system through the pinned public surface only
(``bench/README.md`` lists it), is a closed loop of one client thread,
and checks every answer it timed against an oracle in an untimed
verification pass over the same inputs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from repro.api import DeepWebService, SurfacingConfig, WebConfig
from repro.cluster import ClusterBackend
from repro.pipeline.observer import PipelineObserver
from repro.search.engine import SearchEngine
from repro.serve.frontend import QueryFrontend
from repro.serve.loadgen import WorkloadGenerator, structured_queries, table_lookup_queries
from repro.util.text import tokenize

from bench import loadgen
from bench.spec import PLAN_SHAPES
from bench.trace import StageSpans, TraceSummary, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
AGENT_SURFACER = "surfacer"
AGENT_USER = "user"
CACHE_COUNTERS = ("hits", "misses", "evictions", "invalidations")
CLUSTER_COUNTERS = ("scatters", "tasks", "hedges", "failovers", "deadline_misses")
TOP_K = 10


def record_path(workload: str, scale: str, seed: int, traced: int) -> Path:
    """Where one run's record lands; the scale is in the name so a ``tiny``
    test run never overwrites a reportable record."""
    return OUT_DIR / f"{workload}.{scale}.seed{seed}.trace{traced}.json"


def spans_path(workload: str, scale: str) -> Path:
    """Where the first traced pass of a run is flushed."""
    return OUT_DIR / f"{workload}.{scale}.trace.jsonl"


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``tiny`` exists so ``bench/tests`` can run the whole
    harness in seconds; its numbers are not reportable."""

    name: str
    sites: int
    max_records: int
    sites_per_cold_web: int
    serve_hit_requests: int
    serve_miss_requests: int
    federated_requests: int
    cluster_requests: int
    ingest_writes: int
    restart_queries: int

    @property
    def reportable(self) -> bool:
        return self.name == "full"


SCALES = {
    "full": Scale("full", 40, 300, 15, 20_000, 2_000, 200, 1_000, 200, 200),
    "tiny": Scale("tiny", 4, 60, 2, 400, 120, 40, 60, 10, 20),
}
READS_PER_WRITE = 8
#: Webs a ``surface_cold`` pass surfaces.
COLD_WEBS = 2
HELD_OUT_SHARE = 0.2


@dataclass
class PassResult:
    """One timed pass: ``ops`` operations in ``wall_s`` seconds."""

    wall_s: float
    cpu_s: float
    ops: int
    #: Per-operation latencies, the same operations in the same order in
    #: every pass of a run.
    latencies: list[float]
    #: The pass cut into consecutive segments of a few milliseconds each
    #: (wall clock, process CPU); across passes the harness keeps each
    #: segment's fastest reading (``harness.BestCase``).
    segment_wall: list[float]
    segment_cpu: list[float]
    #: Where an operation spans several segments: the ``[first, end)``
    #: segments of each, so its best latency can be put together from theirs.
    op_segments: list[tuple[int, int]] | None = None
    #: Counters and part-times of the pass, by workload.
    extra: dict[str, float] = field(default_factory=dict)
    #: Digest of what the pass produced, where the oracle compares passes.
    digest: str = ""
    #: Set by the harness on a traced pass.
    trace: TraceSummary | None = None
    gc_collections: int = 0


def timed_loop(call: Callable, items: Sequence, segment_ops: int, burst: int = 1,
               collect: list | None = None) -> PassResult:
    """Closed loop, one client: the next call starts when the last returned.
    Every ``burst`` calls give one latency (their mean; calls of a few
    microseconds are not timed one by one), every ``segment_ops`` calls one
    segment.  ``collect`` (verification passes only) keeps the answers."""
    if collect is not None:
        answer = call

        def call(item):
            collect.append(answer(item))

    clock, cpu_clock = time.perf_counter, time.process_time
    latencies: list[float] = []
    record = latencies.append
    segment_wall: list[float] = []
    segment_cpu: list[float] = []
    cpu_started = cpu_clock()
    started = clock()
    for segment_start in range(0, len(items), segment_ops):
        segment_end = min(segment_start + segment_ops, len(items))
        cpu_before = cpu_clock()
        wall_before = clock()
        for first in range(segment_start, segment_end, burst):
            chunk = items[first : min(first + burst, segment_end)]
            before = clock()
            for item in chunk:
                call(item)
            record((clock() - before) / len(chunk))
        segment_wall.append(clock() - wall_before)
        segment_cpu.append(cpu_clock() - cpu_before)
    wall = clock() - started
    return PassResult(
        wall, cpu_clock() - cpu_started, len(items), latencies, segment_wall, segment_cpu
    )


def build_world(scale: Scale, seed: int = loadgen.WORLD_SEED, sites: int | None = None,
                observers: Sequence[PipelineObserver] = ()) -> DeepWebService:
    """The service over one generated web, not yet crawled or surfaced."""
    builder = (
        DeepWebService.build()
        .web(
            WebConfig(
                total_deep_sites=sites if sites is not None else scale.sites,
                surface_site_count=3,
                max_records=scale.max_records,
                seed=seed,
            )
        )
        .surfacing(SurfacingConfig(max_urls_per_form=200))
    )
    for observer in observers:
        builder = builder.observer(observer)
    return builder.create()


def surfaced_world(scale: Scale) -> DeepWebService:
    service = build_world(scale)
    service.crawl(max_pages=1500)
    service.surface()
    return service


def surfacer_fetches(service: DeepWebService) -> int:
    return service.web.load_meter.total(agent=AGENT_SURFACER)


def keyword_population(service: DeepWebService) -> list[str]:
    generator = WorkloadGenerator(service.web, seed=loadgen.POPULATION_SEED)
    return [query.text for query in generator.population()]


class Workload:
    """Set-up, a repeatable timed pass, and an oracle."""

    name = ""
    #: Pin the process to one CPU before set-up (see ``ClusterScatter``).
    pinned = False
    #: Run every pass in a forked child of its own (see ``SurfaceCold``).
    isolated = False

    def __init__(self, seed: int, scale: Scale, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.service: DeepWebService | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self) -> object:
        """Everything generated from the seed, for ``inputs_sha256``."""
        raise NotImplementedError

    def warmup(self) -> None:
        self.prepare()
        self.one_pass()

    def prepare(self) -> None:
        """Untimed, untraced work a pass needs done first."""

    def one_pass(self) -> PassResult:
        """The same operations in the same order every time it is called."""
        raise NotImplementedError

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        """Replay the timed inputs untimed against the oracle; returns
        ``(answers checked, answers wrong)``."""
        raise NotImplementedError

    def fetches_per_indexed_url(self, passes: list[PassResult]) -> float:
        """Surfacer-agent fetches per URL that reached the index."""
        return surfacer_fetches(self.service) / self.service.report().urls_indexed

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        """Per-layer numbers that do not come from spans."""
        return {}

    def layer_violations(self, metrics: dict[str, float]) -> list[str]:
        """Expectations on the traced pass that, broken, fail the run."""
        return []

    def close(self) -> None:
        """Release threads and files."""


# -- surface_cold -------------------------------------------------------------


class StageTimer(PipelineObserver):
    """Per-stage segments, from outside the pipeline.  A site takes some
    65 ms, a stage run some 9: the stage runs of a site, and then what is left
    of the site around them, are its segments."""

    def __init__(self) -> None:
        self.segment_wall: list[float] = []
        self.segment_cpu: list[float] = []
        #: The ``[first, end)`` segments of each site.
        self.site_segments: list[tuple[int, int]] = []
        self._site = self._stage = (0.0, 0.0)
        self._first_segment = 0

    @staticmethod
    def _now() -> tuple[float, float]:
        return time.perf_counter(), time.process_time()

    def on_site_start(self, site, index, total) -> None:
        self._first_segment = len(self.segment_wall)
        self._site = self._now()

    def on_stage_start(self, stage_name, ctx) -> None:
        self._stage = self._now()

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        wall, cpu = self._now()
        self.segment_wall.append(wall - self._stage[0])
        self.segment_cpu.append(cpu - self._stage[1])

    def on_site_end(self, site, result, index, total) -> None:
        wall, cpu = self._now()
        first = self._first_segment
        self.segment_wall.append(wall - self._site[0] - sum(self.segment_wall[first:]))
        self.segment_cpu.append(cpu - self._site[1] - sum(self.segment_cpu[first:]))
        self.site_segments.append((first, len(self.segment_wall)))


def surfacing_digest(service: DeepWebService, results: Sequence) -> str:
    """Digest of what a surfacing run produced: per-site outcomes plus the
    index contents (order-free, timing-free)."""
    sites = sorted(
        (
            result.host, result.domain, result.forms_found, result.forms_surfaced,
            result.urls_generated, result.urls_indexed, result.probes_issued,
            result.analysis_load, result.records_covered,
        )
        for result in results
    )
    documents = sorted(
        (doc.url, doc.title, hashlib.sha1(doc.text.encode()).hexdigest(), doc.source)
        for doc in service.engine.documents()
    )
    return loadgen.inputs_sha256({"sites": sites, "documents": documents})


class SurfaceCold(Workload):
    """A pass surfaces ``COLD_WEBS`` freshly generated webs, site order drawn
    from the seed.  Surfacing fills caches keyed by page content (the
    process-wide analysis cache, the per-service probe cache, the sites'
    own), so a process can surface a web cold only once: every pass runs in a
    forked child of its own, which starts from the parent's state -- code
    paths warm, webs generated, nothing surfaced -- without touching any
    cache API.  op = site."""

    name = "surface_cold"
    isolated = True

    def _fresh(self, web_seed: int, sites: int) -> tuple[DeepWebService, StageTimer, list]:
        timer = StageTimer()
        observers: list[PipelineObserver] = [timer]
        if self.tracer is not None:
            observers.append(StageSpans(self.tracer))
        service = build_world(self.scale, seed=web_seed, sites=sites, observers=observers)
        order = loadgen.shuffled(
            self.seed, self.name, f"site-order/{web_seed}", service.web.deep_sites()
        )
        return service, timer, order

    def setup(self) -> None:
        self.webs = [
            self._fresh(loadgen.SURFACE_WEB_SEED_BASE + index, self.scale.sites_per_cold_web)
            for index in range(COLD_WEBS)
        ]

    def inputs(self) -> object:
        return [[site.host for site in order] for _service, _timer, order in self.webs]

    def warmup(self) -> None:
        # Warms code paths, not content: a web no timed pass shares pages with.
        service, _timer, order = self._fresh(loadgen.SURFACE_WEB_SEED_BASE - 1, 2)
        service.surface(order)

    def one_pass(self) -> PassResult:
        segment_wall: list[float] = []
        segment_cpu: list[float] = []
        op_segments: list[tuple[int, int]] = []
        digests: list[str] = []
        extra = dict.fromkeys(
            ("fetches", "urls_indexed", "urls_generated", "probes_issued",
             "probe_hits", "probe_misses", "degraded_sites"), 0.0,
        )
        wall = cpu = 0.0
        for service, timer, order in self.webs:
            cpu_started = time.process_time()
            started = time.perf_counter()
            results = service.surface(order)
            web_wall = time.perf_counter() - started
            web_cpu = time.process_time() - cpu_started
            op_segments += [
                (first + len(segment_wall), end + len(segment_wall))
                for first, end in timer.site_segments
            ]
            # What surface() did outside the sites is the web's last segment.
            segment_wall += [*timer.segment_wall, web_wall - sum(timer.segment_wall)]
            segment_cpu += [*timer.segment_cpu, web_cpu - sum(timer.segment_cpu)]
            wall += web_wall
            cpu += web_cpu
            report = service.report()
            extra["fetches"] += surfacer_fetches(service)
            extra["urls_indexed"] += report.urls_indexed
            extra["urls_generated"] += report.urls_generated
            extra["probes_issued"] += report.probes_issued
            extra["probe_hits"] += report.probe_cache.get("hits", 0)
            extra["probe_misses"] += report.probe_cache.get("misses", 0)
            extra["degraded_sites"] += sum(
                1 for result in results if result.degraded or result.fetch_errors
            )
            digests.append(surfacing_digest(service, results))
        latencies = [sum(segment_wall[first:end]) for first, end in op_segments]
        return PassResult(
            wall, cpu, len(latencies), latencies, segment_wall, segment_cpu,
            op_segments=op_segments, extra=extra, digest=loadgen.inputs_sha256(digests),
        )

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        """Every pass, traced or not, in whichever child, must have produced
        the same sites and index; and this process, surfacing the first web
        once cold and once more with the analysis cache warm, the same both
        times."""
        failed = int(sum(result.extra["degraded_sites"] for result in passes))
        replays = []
        for _replay in range(2):
            service, _timer, order = self._fresh(
                loadgen.SURFACE_WEB_SEED_BASE, self.scale.sites_per_cold_web
            )
            replays.append(surfacing_digest(service, service.surface(order)))
        if len({result.digest for result in passes}) != 1 or replays[0] != replays[1]:
            failed += passes[0].ops
        return sum(result.ops for result in passes), failed

    def fetches_per_indexed_url(self, passes: list[PassResult]) -> float:
        return passes[-1].extra["fetches"] / passes[-1].extra["urls_indexed"]

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        counted = traced[-1].extra
        probe_lookups = counted["probe_hits"] + counted["probe_misses"]
        return {
            "core.probes_issued": counted["probes_issued"],
            "core.probe_cache_hit_ratio": (
                counted["probe_hits"] / probe_lookups if probe_lookups else 0.0
            ),
            "pipeline.indexed_per_generated": counted["urls_indexed"] / counted["urls_generated"],
        }


# -- serve_hit / serve_miss ---------------------------------------------------


class ServeStream(Workload):
    """A Zipf keyword stream through ``QueryFrontend.serve``; op = query."""

    cache_size = 0
    #: Requests per segment and per latency sample (see ``timed_loop``).
    segment_ops = 10
    burst = 1
    #: Bounds the traced pass's hit ratio must respect.
    hit_ratio_floor = 0.0
    hit_ratio_ceiling = 1.0

    def _request_count(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        self.service = surfaced_world(self.scale)
        stream = loadgen.KeywordStream(self.seed, self.name, keyword_population(self.service))
        self.texts = [request.text for request in stream.requests(self._request_count())]
        self.frontend = QueryFrontend(self.service.engine, workers=2, cache_size=self.cache_size)

    def inputs(self) -> object:
        return self.texts

    def one_pass(self) -> PassResult:
        before = dict(self.frontend.cache.stats())
        result = timed_loop(self.frontend.serve, self.texts, self.segment_ops, self.burst)
        after = self.frontend.cache.stats()
        result.extra = {key: after[key] - before[key] for key in CACHE_COUNTERS}
        return result

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        answers: list = []
        timed_loop(self.frontend.serve, self.texts, self.segment_ops, collect=answers)
        search = self.service.engine.search
        expected = {text: search(text, k=TOP_K) for text in set(self.texts)}
        wrong = sum(1 for text, answer in zip(self.texts, answers) if answer != expected[text])
        return len(answers), wrong

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        delta = traced[-1].extra
        lookups = delta["hits"] + delta["misses"]
        # Informational: the same stream through the worker pool.  Two
        # workers share one GIL on two cores; measured here it swings
        # 2.4k-3.5k queries/s on identical input, so it gates nothing.
        pooled = self.frontend.serve_workload(self.texts, default_k=TOP_K)
        return {
            "serve.cache_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "serve.cache_evictions": float(delta["evictions"]),
            "serve.cache_invalidations": float(delta["invalidations"]),
            "serve.shed": float(pooled.shed),
            "serve.pool_ops_per_s": pooled.stats.qps,
        }

    def layer_violations(self, metrics: dict[str, float]) -> list[str]:
        ratio = metrics["serve.cache_hit_ratio"]
        # The bounds describe the full-size population; the tiny one is a
        # few dozen queries and any cache holds most of it.
        if self.scale.reportable and not (
            self.hit_ratio_floor <= ratio <= self.hit_ratio_ceiling
        ):
            return [
                f"serve.cache_hit_ratio {ratio:.3f} outside "
                f"[{self.hit_ratio_floor}, {self.hit_ratio_ceiling}]"
            ]
        return []

    def close(self) -> None:
        self.frontend.close()


class ServeHit(ServeStream):
    """Cache (4096) larger than the population, timed after the warm-up
    pass: every request is a hit.  Cache and frontend bookkeeping do all
    the work; ``search`` and ``store`` none."""

    name = "serve_hit"
    cache_size = 4096
    hit_ratio_floor = 0.99
    segment_ops = 1000
    #: A hit takes about 2.4 us, some twenty-five clock reads.  Timed one by
    #: one, its upper percentiles measure the clock and the CPU cache, not the
    #: program: p99 read 5.6-8.7 us from process to process while p50 stayed
    #: within 2.37-2.46.  In bursts of 20 the p99 reads 4.1-4.5 us.
    burst = 20

    def _request_count(self) -> int:
        return self.scale.serve_hit_requests


class ServeMiss(ServeStream):
    """Cache of 16 entries (1.5 % of the population; measured hit ratio
    0.29): the median request is a miss.  At 64 entries the ratio is 0.51
    and the median silently becomes a hit."""

    name = "serve_miss"
    cache_size = 16
    hit_ratio_ceiling = 0.45

    def _request_count(self) -> int:
        return self.scale.serve_miss_requests


# -- federated_mixed ----------------------------------------------------------


def plan_shape(result) -> str:
    return "_".join(result.plan.route_names)


class FederatedMixed(Workload):
    """60/25/15 keyword / ``field:value`` / table-lookup requests through
    ``service.query``; structured requests may probe live forms under a
    fetch budget (no wall-clock budget, so the work done is the same on
    any machine).  No plan cache.  op = query."""

    name = "federated_mixed"

    def setup(self) -> None:
        self.service = surfaced_world(self.scale)
        started = time.perf_counter()
        self.service.harvest_tables()
        self.harvest_s = time.perf_counter() - started
        # Registers every deep site with the virtual-integration router;
        # otherwise the first live plan would pay for it.
        self.service.vertical  # noqa: B018
        stream = loadgen.MixedStream(
            self.seed, self.name, keyword_population(self.service),
            structured_queries(), table_lookup_queries(),
        )
        self.requests = stream.requests(self.scale.federated_requests)
        self.reference: list | None = None
        self.last_results: list = []

    def inputs(self) -> object:
        return [[request.mode, request.text, request.live] for request in self.requests]

    def _query(self, request: loadgen.Request):
        return self.service.query(
            request.text, k=TOP_K, min_per_source=2, live=request.live, live_fetch_budget=4
        )

    def warmup(self) -> None:
        answers: list = []
        timed_loop(self._query, self.requests, 1, collect=answers)
        self.reference = [answer.results for answer in answers]

    def one_pass(self) -> PassResult:
        return timed_loop(self._query, self.requests, 1)  # a request takes 3 ms

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        """A replay must give the warm-up pass's results, none degraded."""
        self.last_results = []
        timed_loop(self._query, self.requests, 1, collect=self.last_results)
        wrong = sum(
            1 for answer, expected in zip(self.last_results, self.reference)
            if answer.degraded or answer.results != expected
        )
        return len(self.last_results), wrong

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        metrics = {
            "webtables.harvest_s": self.harvest_s,
            "query.live_fetches": 0.0,
            "query.degraded_plans": 0.0,
            **{f"query.plans.{shape}": 0.0 for shape in PLAN_SHAPES},
        }
        route_metric = {
            "indexed": "query.route.indexed_s",
            "webtables": "query.route.webtables_s",
            "live-vertical": "query.route.live_s",
        }
        for answer in self.last_results:
            metrics[f"query.plans.{plan_shape(answer)}"] += 1
            metrics["query.live_fetches"] += answer.live_fetches_spent
            metrics["query.degraded_plans"] += answer.degraded
            for outcome in answer.routes:
                name = route_metric[outcome.route]
                metrics[name] = metrics.get(name, 0.0) + outcome.seconds
        return metrics


# -- cluster_scatter ----------------------------------------------------------


class ClusterScatter(Workload):
    """The ``serve_miss`` token lists against ``ClusterBackend`` 8x2, and
    against the single index it wraps.  All sixteen node threads share one
    GIL, so the process is pinned to one CPU: unpinned this measured
    600-1300 queries/s from run to run, pinned 1350-1580.  op = query."""

    name = "cluster_scatter"
    pinned = True

    def setup(self) -> None:
        self.service = surfaced_world(self.scale)
        self.backend = self.service.engine.backend
        records = self.backend.export_records()
        self.cluster = ClusterBackend(shard_count=8, replicas=2, deadline_seconds=30)
        started = time.perf_counter()
        for record in records:
            self.cluster.add(record)
        self.load_docs_per_s = len(records) / (time.perf_counter() - started)
        stream = loadgen.KeywordStream(
            self.seed, ServeMiss.name, keyword_population(self.service)
        )
        self.texts = [request.text for request in stream.requests(self.scale.cluster_requests)]
        self.token_lists = [tokenize(text) for text in self.texts]

    # Looked up per pass, not in set-up: a bound method taken before the
    # tracer wraps the class would bypass the wrapper.
    def _timed(self, backend, collect: list | None = None) -> PassResult:
        return timed_loop(
            partial(backend.search, limit=TOP_K), self.token_lists, 5, collect=collect
        )

    def inputs(self) -> object:
        return self.texts

    def one_pass(self) -> PassResult:
        before = self.cluster.cluster_stats()
        result = self._timed(self.cluster)
        after = self.cluster.cluster_stats()
        result.extra = {
            key: float(getattr(after, key) - getattr(before, key)) for key in CLUSTER_COUNTERS
        }
        return result

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        """Cluster rankings equal single-index rankings: hits, scores, order."""
        scattered: list = []
        direct: list = []
        self._timed(self.cluster, collect=scattered)
        self._timed(self.backend, collect=direct)
        wrong = sum(1 for got, expected in zip(scattered, direct) if got != expected)
        if self.cluster.consume_degraded():
            wrong = max(wrong, 1)
        return len(scattered), wrong

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        counted = traced[-1].extra
        # The baseline beside it: same tokens, same process, same pinned CPU.
        direct = [self._timed(self.backend) for _ in untraced]
        direct_wall = sum(result.wall_s for result in direct)
        cluster_wall = sum(result.wall_s for result in untraced)
        return {
            "cluster.direct_ops_per_s": sum(result.ops for result in direct) / direct_wall,
            "cluster.overhead_ratio": cluster_wall / direct_wall,
            "cluster.tasks_per_query": (
                counted["tasks"] / counted["scatters"] if counted["scatters"] else 0.0
            ),
            "cluster.hedges": counted["hedges"],
            "cluster.failovers": counted["failovers"],
            "cluster.deadline_misses": counted["deadline_misses"],
            "cluster.load_docs_per_s": self.load_docs_per_s,
        }

    def close(self) -> None:
        self.cluster.close()


# -- ingest_search ------------------------------------------------------------


class IngestSearch(Workload):
    """Writes beside reads: a fresh ``SearchEngine`` holding the first 80 %
    of the surfaced documents, then per held-out page one ``add_page`` and
    eight ``frontend.serve`` calls (cache 4096, invalidated by every
    write).  The engine is rebuilt, untimed, for every pass.  op = write
    or query; latencies are the reads'."""

    name = "ingest_search"

    def setup(self) -> None:
        self.service = surfaced_world(self.scale)
        records = self.service.engine.backend.export_records()
        held_out_from = len(records) - int(len(records) * HELD_OUT_SHARE)
        self.preload = records[:held_out_from]
        held_out = records[held_out_from : held_out_from + self.scale.ingest_writes]
        self.final_records = self.preload + held_out
        fetch = self.service.web.fetch
        self.writes = [
            (fetch(record.url, agent=AGENT_USER), record.source, record.annotations)
            for record in held_out
        ]
        stream = loadgen.KeywordStream(self.seed, self.name, keyword_population(self.service))
        self.texts = [
            request.text for request in stream.requests(len(self.writes) * READS_PER_WRITE)
        ]

    def inputs(self) -> object:
        return {"writes": [page.url for page, _s, _a in self.writes], "reads": self.texts}

    def prepare(self) -> None:
        self.engine = SearchEngine()
        self.engine.ingest_records(self.preload)
        self.frontend = QueryFrontend(self.engine, workers=2, cache_size=4096)

    def one_pass(self) -> PassResult:
        engine, frontend = self.engine, self.frontend
        clock, cpu_clock = time.perf_counter, time.process_time
        serve, add_page = frontend.serve, engine.add_page
        texts = self.texts
        latencies: list[float] = []
        record = latencies.append
        segment_wall: list[float] = []
        segment_cpu: list[float] = []
        write_s = 0.0
        cpu_started = cpu_clock()
        started = clock()
        # One segment per write and the reads that follow it.
        for index, (page, source, annotations) in enumerate(self.writes):
            cpu_before = cpu_clock()
            wall_before = clock()
            add_page(page, source=source, annotations=annotations)
            write_s += clock() - wall_before
            for text in texts[index * READS_PER_WRITE : (index + 1) * READS_PER_WRITE]:
                before = clock()
                serve(text)
                record(clock() - before)
            segment_wall.append(clock() - wall_before)
            segment_cpu.append(cpu_clock() - cpu_before)
        wall = clock() - started
        cpu = cpu_clock() - cpu_started
        frontend.close()
        return PassResult(
            wall, cpu, len(self.writes) + len(texts), latencies, segment_wall, segment_cpu,
            extra={"write_s": write_s, "writes": float(len(self.writes))},
        )

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        """After every write the frontend must answer what the engine would
        (a stale cache entry shows here), and the engine written page by
        page must rank like one bulk-loaded with the same documents."""
        self.prepare()
        engine, frontend = self.engine, self.frontend
        checked = wrong = 0
        for index, (page, source, annotations) in enumerate(self.writes):
            engine.add_page(page, source=source, annotations=annotations)
            for text in self.texts[index * READS_PER_WRITE : (index + 1) * READS_PER_WRITE]:
                checked += 1
                wrong += frontend.serve(text) != engine.search(text, k=TOP_K)
        frontend.close()
        bulk = SearchEngine()
        bulk.ingest_records(self.final_records)
        for text in self.texts[:200]:
            checked += 1
            wrong += engine.search(text, k=TOP_K) != bulk.search(text, k=TOP_K)
        return checked, wrong

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        writes = sum(result.extra["writes"] for result in untraced)
        write_s = sum(result.extra["write_s"] for result in untraced)
        return {"store.ingest_docs_per_s": writes / write_s}


# -- restart ------------------------------------------------------------------


class Restart(Workload):
    """``snapshot`` -> ``restore`` -> the first queries on the restored
    service.  op = cycle; latencies are the first queries', which carry any
    work ``restore`` deferred."""

    name = "restart"

    def setup(self) -> None:
        self.service = surfaced_world(self.scale)
        stream = loadgen.KeywordStream(self.seed, self.name, keyword_population(self.service))
        self.texts = [request.text for request in stream.requests(self.scale.restart_queries)]
        self.directory = OUT_DIR / f"restart-{os.getpid()}"
        self.path = self.directory / "snapshot.json"
        self._cycle = 0
        if self.tracer is not None:
            self.tracer.auto_op = False

    def inputs(self) -> object:
        return self.texts

    def _cycle_once(self, collect: list | None = None) -> tuple[PassResult, DeepWebService]:
        if self.tracer is not None:
            self.tracer.op_id = self._cycle
        self._cycle += 1
        self.directory.mkdir(parents=True, exist_ok=True)
        clock, cpu_clock = time.perf_counter, time.process_time
        cpu_started = cpu_clock()
        started = clock()
        self.service.snapshot(self.path)
        snapshot_cpu = cpu_clock()
        snapshot_done = clock()
        restored = DeepWebService.restore(self.path)
        restore_cpu = cpu_clock()
        restore_done = clock()
        queries = timed_loop(partial(restored.search, k=TOP_K), self.texts, 10, collect=collect)
        wall = clock() - started
        # Segments: the snapshot, the restore, then the queries by tens.
        result = PassResult(
            wall, cpu_clock() - cpu_started, 1, queries.latencies,
            [snapshot_done - started, restore_done - snapshot_done, *queries.segment_wall],
            [snapshot_cpu - cpu_started, restore_cpu - snapshot_cpu, *queries.segment_cpu],
            extra={
                "snapshot_s": snapshot_done - started,
                "restore_s": restore_done - snapshot_done,
                "first_queries_s": queries.wall_s,
                "snapshot_bytes": float(self.path.stat().st_size),
            },
        )
        return result, restored

    def one_pass(self) -> PassResult:
        return self._cycle_once()[0]

    def verify(self, passes: list[PassResult]) -> tuple[int, int]:
        """The restored service answers like the original and did no
        surfacing to get there."""
        answers: list = []
        _result, restored = self._cycle_once(collect=answers)
        wrong = sum(
            1 for text, answer in zip(self.texts, answers)
            if answer != self.service.search(text, k=TOP_K)
        )
        self.restored_surfacing_fetches = surfacer_fetches(restored)
        if self.restored_surfacing_fetches:
            wrong = max(wrong, 1)
        return len(answers), wrong

    def layer_metrics(
        self, untraced: list[PassResult], traced: list[PassResult]
    ) -> dict[str, float]:
        cycles = len(untraced)
        mean = lambda key: sum(result.extra[key] for result in untraced) / cycles
        snapshot_bytes = mean("snapshot_bytes")
        return {
            "persist.snapshot_s": mean("snapshot_s"),
            "persist.restore_ready_s": mean("restore_s") + mean("first_queries_s"),
            "persist.first_queries_s": mean("first_queries_s"),
            "persist.snapshot_mb": snapshot_bytes / 1e6,
            "persist.bytes_per_doc": snapshot_bytes / len(self.service.engine.documents()),
            "persist.restored_surfacing_fetches": float(self.restored_surfacing_fetches),
        }

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SurfaceCold, ServeHit, ServeMiss, FederatedMixed, ClusterScatter, IngestSearch, Restart,
    )
}
