"""The unified service facade over the deep-web reproduction.

:class:`DeepWebService` wraps web generation, the baseline crawl, the
staged surfacing pipeline and the search index behind one object with a
fluent builder:

    from repro.api import DeepWebService, SurfacingConfig, WebConfig

    service = (
        DeepWebService.build()
        .web(WebConfig(total_deep_sites=8, seed=21))
        .surfacing(SurfacingConfig(max_urls_per_form=200))
        .create()
    )
    service.crawl(max_pages=500)
    results = service.surface()
    hits = service.search("red toyota camry")
    print(service.report())

Site surfacing -- ``surface()`` -- goes through one loop,
:meth:`~repro.pipeline.pipeline.SurfacingPipeline.surface_many`, which
writes every site straight into the shared index; for services
built with ``persist()`` each site is also one sqlite transaction, so a
run is checkpointed per site and resumable.

Storage is pluggable through the unified content store: pass
``.store(ClusterBackend(shard_count=4))`` to the builder to hash-partition
the index across shards (rankings stay identical to the in-memory
default).  The facade has two reads: ``search(q, k)``, the engine's
top-k over the shared index (what ``service.frontend.serve`` caches),
and ``query(q, ...)``, the federated read through :mod:`repro.query` --
one plan (indexed + webtables + a budgeted live form probe) ranking
surfaced pages, crawled pages and harvested webtables in one list, with
per-hit provenance and per-route budget accounting in ``report()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Mapping

from repro.core.surfacer import SiteSurfacingResult, SurfacingConfig
from repro.pipeline.observer import MetricsObserver, PipelineObserver, ProgressObserver
from repro.pipeline.pipeline import SurfacingPipeline
from repro.query.executor import PlannerStats, PlanResult, QueryExecutor
from repro.query.planner import QueryPlanner
from repro.search.crawler import CrawlStats, Crawler
from repro.search.engine import SearchEngine, SearchResult
from repro.serve.frontend import QueryFrontend
from repro.store.backend import StorageBackend, StoreStats
from repro.resilience.faults import FaultPlan, FaultyWeb, ScriptedFaults
from repro.resilience.retry import BreakerRegistry, ResilientWeb, RetryPolicy
from repro.webspace.site import DeepWebSite
from repro.virtual.vertical import VerticalSearchEngine
from repro.webspace.sitegen import WebConfig, generate_web
from repro.webspace.web import Web
from repro.webtables.corpus import HarvestState, TableCorpus, harvest_web

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.backend import ClusterStats


@dataclass
class ServiceReport:
    """Aggregate outcome of everything the service has done so far."""

    sites_total: int
    sites_surfaced: int
    forms_found: int
    forms_surfaced: int
    post_forms_skipped: int
    urls_generated: int
    urls_indexed: int
    records_covered: int
    probes_issued: int
    analysis_load: int
    elapsed_seconds: float
    crawl: CrawlStats | None = None
    #: The per-site results every total above is summed from.
    sites: list[SiteSurfacingResult] = field(default_factory=list)
    #: The prober's counters over every site (hits/misses/inferred/hit_rate
    #: and the number of non-monotone forms; the memos themselves are
    #: per-site and dropped); rendered only when probes were actually
    #: issued, keeping probe-free reports stable.
    probe_cache: dict[str, float] = field(default_factory=dict)
    stage_metrics: dict[str, object] = field(default_factory=dict)
    #: Federated-read provenance: plans executed, routes taken, hits kept
    #: per route, live fetches consumed, blend sizes.
    query_planning: dict[str, object] = field(default_factory=dict)
    #: The store's own snapshot: backend kind, doc counts (per source tag
    #: and per shard).
    store: StoreStats | None = None
    #: The cluster's own snapshot, when the store is a ``ClusterBackend``.
    cluster: ClusterStats | None = None
    #: Persistence provenance -- for persisted/restored services the
    #: store and snapshot paths, completed sites and the snapshot age.
    storage: dict[str, object] = field(default_factory=dict)
    #: Fault/degradation accounting: meter error/retry totals, per-host
    #: outcomes, injected-fault counts and breaker states.  Empty (and
    #: unrendered) on a fault-free run, keeping clean reports byte-stable.
    resilience: dict[str, object] = field(default_factory=dict)

    def lines(self) -> list[str]:
        """A deterministic, human-readable rendering (no wall-clock)."""
        out = [
            f"sites surfaced: {self.sites_surfaced}/{self.sites_total} "
            f"(forms {self.forms_surfaced}/{self.forms_found}, "
            f"{self.post_forms_skipped} POST forms skipped)",
            f"urls: {self.urls_indexed} indexed of {self.urls_generated} generated",
            f"records exposed: {self.records_covered}",
            f"off-line load: {self.analysis_load} fetches, {self.probes_issued} probes",
        ]
        hits = int(self.probe_cache.get("hits", 0))
        misses = int(self.probe_cache.get("misses", 0))
        if hits or misses:
            rate = hits / (hits + misses)
            line = (
                f"probe cache: {hits} hits, {misses} misses ({rate:.1%} hit rate), "
                f"{int(self.probe_cache.get('inferred', 0))} inferred empty without a fetch"
            )
            non_monotone = int(self.probe_cache.get("non_monotone_forms", 0))
            if non_monotone:
                line += f"; {non_monotone} non-monotone forms (never inferred)"
            out.append(line)
        if self.crawl is not None:
            out.append(f"baseline crawl: {self.crawl.fetched} fetched, {self.crawl.indexed} indexed")
        if self.store is not None:
            line = f"storage: {self.store.backend} backend, {self.store.documents} documents"
            if self.storage.get("restored_from"):
                line += " (restored from snapshot)"
            out.append(line)
            if self.store.by_source:
                counts = ", ".join(f"{tag}={n}" for tag, n in self.store.by_source.items())
                out.append(f"index by source: {counts}")
        if self.cluster is not None:
            out.extend(self.cluster.lines())
        if self.resilience:
            line = (
                f"resilience: {self.resilience.get('fetch_errors', 0)} fetch errors, "
                f"{self.resilience.get('fetch_retries', 0)} retries"
            )
            injected = self.resilience.get("injected")
            if injected:
                kinds = ", ".join(f"{kind}={count}" for kind, count in injected.items())
                line += f", injected [{kinds}]"
            breakers = self.resilience.get("breakers")
            if breakers:
                open_hosts = ",".join(breakers.get("open", [])) or "none"
                line += (
                    f", breakers: {breakers.get('trips', 0)} trips, "
                    f"{breakers.get('skips', 0)} refused, open={open_hosts}"
                )
            out.append(line)
        if self.query_planning.get("degraded_plans"):
            out.append(
                f"degraded plans: {self.query_planning['degraded_plans']} "
                "(partial results, never cached)"
            )
        if self.query_planning.get("plans"):
            routes = ", ".join(
                f"{route}={count}"
                for route, count in self.query_planning.get("routes_taken", {}).items()
            )
            out.append(
                f"query planning: {self.query_planning['plans']} plans "
                f"(routes {routes or 'none'}), "
                f"{self.query_planning.get('live_fetches', 0)} live fetches, "
                f"{self.query_planning.get('blended_results', 0)} blended results"
            )
        for row in self.sites:
            coverage = f"{row.coverage.true_coverage:.0%}" if row.coverage else "n/a"
            line = (
                f"  {row.host:<38s} domain={row.domain:<14s} urls={row.urls_indexed:<4d} "
                f"coverage={coverage} offline_load={row.analysis_load}"
            )
            if row.fetch_errors or row.fetch_retries:
                line += f" errors={row.fetch_errors} retries={row.fetch_retries}"
                if row.degraded:
                    line += " degraded"
            out.append(line)
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


class DeepWebServiceBuilder:
    """Fluent configuration for :class:`DeepWebService`."""

    def __init__(self) -> None:
        self._web: Web | None = None
        self._web_config: WebConfig | None = None
        self._store: StorageBackend | None = None
        self._surfacing: SurfacingConfig | None = None
        self._observers: list[PipelineObserver] = []
        self._serving: dict[str, object] = {}
        self._persist_dir: Path | None = None
        self._fault_plan: FaultPlan | ScriptedFaults | None = None
        self._resilience: tuple[RetryPolicy | None, BreakerRegistry | None] | None = None

    def web(self, web: Web | WebConfig) -> "DeepWebServiceBuilder":
        """Attach an existing :class:`Web` or a :class:`WebConfig` to generate one."""
        if isinstance(web, Web):
            self._web, self._web_config = web, None
        elif isinstance(web, WebConfig):
            self._web, self._web_config = None, web
        else:
            raise TypeError(f"web() expects a Web or WebConfig, got {type(web).__name__}")
        return self

    def store(self, backend: StorageBackend) -> "DeepWebServiceBuilder":
        """Back the service's search engine with a specific storage
        backend (``SqliteBackend(path)``, ``ClusterBackend(...)``); mutually
        exclusive with :meth:`persist`."""
        self._store = backend
        return self

    def surfacing(self, config: SurfacingConfig) -> "DeepWebServiceBuilder":
        self._surfacing = config
        return self

    def observer(self, observer: PipelineObserver) -> "DeepWebServiceBuilder":
        self._observers.append(observer)
        return self

    def progress(self, stream: IO[str] | None = None) -> "DeepWebServiceBuilder":
        """Attach a deterministic per-site progress printer."""
        return self.observer(ProgressObserver(stream))

    def persist(self, path: str | Path) -> "DeepWebServiceBuilder":
        """Give the service a durable home directory.

        The content store becomes a
        :class:`~repro.persist.SqliteBackend` at ``<path>/store.sqlite3``,
        surfacing writes each site straight into it inside one sqlite
        transaction that also records the completed site in that same
        file, and ``service.snapshot()`` defaults to
        ``<path>/snapshot.sqlite3``.  Reopening the same directory resumes:
        stored documents reload, and an interrupted ``surface()`` skips
        the completed sites with output identical to an uninterrupted
        run.  An exception anywhere inside a site rolls that site off
        disk and retires the store until the directory is reopened.
        Mutually exclusive with :meth:`store` (persistence must own the
        storage backend)."""
        self._persist_dir = Path(path)
        return self

    def faults(self, plan: FaultPlan | ScriptedFaults) -> "DeepWebServiceBuilder":
        """Inject a deterministic fault plan into every ``Web.fetch``.

        The service's web is wrapped in a
        :class:`~repro.resilience.faults.FaultyWeb` at :meth:`create`; the
        plan decides per ``(host, fetch index)`` whether a fetch raises a
        typed :class:`~repro.webspace.web.FetchError`.  Combine with
        :meth:`resilience` to also retry and circuit-break those faults.
        Every fetch consumer (crawler, prober, vertical engine) shares the
        wrapped web.  For a faulted twin built fault-free, pass a plan with
        ``enabled=False`` and flip ``plan.enabled`` once set-up is done."""
        self._fault_plan = plan
        return self

    def resilience(
        self,
        policy: RetryPolicy | None = None,
        breakers: BreakerRegistry | None = None,
    ) -> "DeepWebServiceBuilder":
        """Wrap every fetch in retry/backoff and per-host circuit breakers.

        Defaults: a standard :class:`~repro.resilience.retry.RetryPolicy`
        and a fresh :class:`~repro.resilience.retry.BreakerRegistry` with
        default breaker settings."""
        self._resilience = (policy, breakers if breakers is not None else BreakerRegistry())
        return self

    def serving(
        self,
        workers: int = 4,
        cache_size: int = 1024,
        ttl_seconds: float | None = None,
        queue_limit: int | None = None,
    ) -> "DeepWebServiceBuilder":
        """Configure the query-serving frontend (``service.frontend``):
        worker-pool width, result-cache capacity and TTL, and the bounded
        admission queue.  Without this call the frontend still exists,
        with :class:`~repro.serve.frontend.QueryFrontend` defaults."""
        self._serving = dict(
            workers=workers,
            cache_size=cache_size,
            ttl_seconds=ttl_seconds,
            queue_limit=queue_limit,
        )
        return self

    def create(self) -> "DeepWebService":
        web = self._web if self._web is not None else generate_web(self._web_config or WebConfig())
        if self._fault_plan is not None:
            web = FaultyWeb(web, self._fault_plan)
        if self._resilience is not None:
            policy, breakers = self._resilience
            web = ResilientWeb(web, policy=policy, breakers=breakers)
        if self._store is not None and self._persist_dir is not None:
            raise ValueError("pass at most one of store(), persist()")
        store = self._store
        if self._persist_dir is not None:
            # Imported lazily: repro.persist builds on this module.
            from repro.persist import SqliteBackend

            store = SqliteBackend(self._persist_dir / "store.sqlite3")
        metrics = MetricsObserver()
        pipeline = SurfacingPipeline(
            web,
            SearchEngine(backend=store),
            self._surfacing,
            observers=[metrics, *self._observers],
        )
        return DeepWebService(
            pipeline=pipeline,
            metrics=metrics,
            serving=self._serving,
            web_config=self._web_config,
            persist_dir=self._persist_dir,
        )


class DeepWebService:
    """One object that surfaces, indexes, searches and reports."""

    def __init__(
        self,
        pipeline: SurfacingPipeline,
        metrics: MetricsObserver | None = None,
        serving: Mapping[str, object] | None = None,
        web_config: WebConfig | None = None,
        persist_dir: Path | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.metrics = metrics or MetricsObserver()
        if self.metrics not in self.pipeline.observers:
            self.pipeline.observers.append(self.metrics)
        self.results: list[SiteSurfacingResult] = []
        self.crawl_stats: CrawlStats | None = None
        self._corpus: TableCorpus | None = None
        self._harvest = HarvestState()
        self._serving = dict(serving or {})
        self._frontend: QueryFrontend | None = None
        #: Federated read path: one planner + executor pair per service,
        #: sharing one provenance-stats sink surfaced by :meth:`report`.
        self.planner_stats = PlannerStats()
        self._planner: QueryPlanner | None = None
        self._executor: QueryExecutor | None = None
        self._vertical: VerticalSearchEngine | None = None
        #: The config the web was generated from, when known -- what lets
        #: a snapshot restore regenerate the identical world.
        self.web_config = web_config
        self.persist_dir = persist_dir
        self._snapshot_path: Path | None = None
        self._snapshot_created_at: float | None = None
        self._restored_from: Path | None = None
        #: No frontend of this service starts below this cache generation:
        #: what a restore carried over, raised to :attr:`cache_generation`
        #: whenever a closed frontend is replaced.
        self._cache_generation_floor = 0

    @classmethod
    def build(cls) -> DeepWebServiceBuilder:
        return DeepWebServiceBuilder()

    # -- convenience accessors ----------------------------------------------

    @property
    def web(self) -> Web:
        return self.pipeline.web

    @property
    def engine(self) -> SearchEngine:
        return self.pipeline.engine

    @property
    def config(self) -> SurfacingConfig:
        return self.pipeline.config

    @property
    def store(self) -> StorageBackend:
        """The storage backend every content layer writes into."""
        return self.engine.backend

    @property
    def corpus(self) -> TableCorpus:
        """The WebTables corpus, wired to the shared content store: every
        table it admits also lands in the index as a ``webtable`` document."""
        if self._corpus is None:
            self._corpus = TableCorpus(ingestor=self.engine.ingestor)
        return self._corpus

    @property
    def frontend(self) -> QueryFrontend:
        """The query-serving frontend over the shared index: worker pool,
        bounded admission queue, and a result cache invalidated on every
        ingest (created lazily; configure with the builder's
        :meth:`~DeepWebServiceBuilder.serving`).  A frontend the caller
        closed (e.g. via ``with service.frontend:``) is replaced with a
        fresh one on the next access, so the serving path never sticks
        in a refused state.  It serves keyword strings (``serve``, answers
        identical to :meth:`search`); replay a workload with
        ``serve_workload``.  Federated queries go through :meth:`query`."""
        if self._frontend is None or self._frontend.closed:
            self._cache_generation_floor = self.cache_generation
            self._frontend = QueryFrontend(self.engine, **self._serving)
            self._frontend.cache.advance_generation(self._cache_generation_floor)
        return self._frontend

    @property
    def cache_generation(self) -> int:
        """The highest serving-cache generation stamped so far -- by the
        current frontend, any it replaced, or the process this service was
        restored from.  What a snapshot records."""
        live = self._frontend.cache.generation if self._frontend is not None else 0
        return max(self._cache_generation_floor, live)

    @property
    def vertical(self) -> VerticalSearchEngine:
        """The live virtual-integration engine over this service's web.

        Created on first access -- building its source registry registers
        every deep site (homepage fetches under the ``virtual`` agent)
        and lands accepted sources in the shared store as
        ``vertical-source`` documents, so only plans that opted into
        live probing (``query(..., live=True)``) ever pay that cost."""
        if self._vertical is None:
            self._vertical = VerticalSearchEngine(
                self.web, ingestor=self.engine.ingestor
            )
            self._vertical.register_sites(self.web.deep_sites())
        return self._vertical

    @property
    def planner(self) -> QueryPlanner:
        """The federated query planner (routing scores, store stats and
        corpus statistics in; explicit, replayable plans out)."""
        if self._planner is None:
            self._planner = QueryPlanner(
                self.engine,
                vertical_provider=lambda: self.vertical,
                corpus_provider=lambda: self.corpus,
            )
        return self._planner

    @property
    def executor(self) -> QueryExecutor:
        """The plan executor: runs routes under budgets, blends with
        provenance, refreshes the table harvest incrementally."""
        if self._executor is None:
            self._executor = QueryExecutor(
                self.engine,
                vertical_provider=lambda: self.vertical,
                refresh=self.harvest_tables,
                stats=self.planner_stats,
            )
        return self._executor

    # -- persistence --------------------------------------------------------

    def snapshot(self, path: str | Path | None = None) -> Path:
        """Write a whole-service snapshot: index, surfacing results, crawl
        stats, WebTables corpus (and therefore the AcsDb), harvest
        bookkeeping and the serving-cache generation.

        The snapshot is a standalone sqlite file in the store's own
        layout, written atomically.  With no ``path`` it lands at
        ``<persist_dir>/snapshot.sqlite3`` (services built with
        ``persist()``).  Restore with :meth:`restore`; the restored
        service serves queries immediately with zero re-surfacing."""
        if path is None:
            if self.persist_dir is None:
                raise ValueError(
                    "snapshot() needs an explicit path unless the service "
                    "was built with persist()"
                )
            path = self.persist_dir / "snapshot.sqlite3"
        from repro.persist.snapshot import snapshot_service

        return snapshot_service(self, path)

    @classmethod
    def restore(cls, path: str | Path, web: Web | None = None) -> "DeepWebService":
        """Rebuild a service from a :meth:`snapshot` file.

        The web's site list is regenerated from the snapshotted
        :class:`WebConfig`, each site's database built on first fetch
        (pass ``web=`` for a service built from an explicit :class:`Web`),
        and must be the site list the snapshot pins.  The stored index is
        loaded, not re-indexed, into a fresh in-memory backend.  Rankings,
        scores and doc ids are identical to the snapshotted service, and
        serving starts without re-crawling, re-surfacing, re-harvesting or
        re-indexing."""
        from repro.persist.snapshot import restore_service

        return restore_service(path, web=web)

    # -- operations ---------------------------------------------------------

    def crawl(self, max_pages: int = 500) -> CrawlStats:
        """Run the baseline link-following crawl into the shared index."""
        self.crawl_stats = Crawler(self.web, self.engine).crawl(max_pages=max_pages)
        return self.crawl_stats

    def surface(
        self, sites: Iterable[DeepWebSite] | None = None
    ) -> list[SiteSurfacingResult]:
        """Surface every deep-web site (or the supplied subset), replacing
        previously stored results (and their stage metrics) once the run
        has succeeded; a run that raises leaves both as they were.  Under
        :meth:`~DeepWebServiceBuilder.persist`, a run that raises anywhere
        inside a site also rolls that site off disk and retires the store:
        reopen the directory to resume."""
        targets = list(sites) if sites is not None else self.web.deep_sites()
        # Only persist() owns a sqlite store, and with it the resume record.
        store = self.store if self.persist_dir is not None else None
        kept = self.metrics.totals
        self.metrics.reset()
        try:
            self.results = self.pipeline.surface_many(targets, store=store)
        except BaseException:
            self.metrics.totals = kept
            raise
        return self.results

    def search(self, query: str, k: int = 10) -> list[SearchResult]:
        """Query the shared index (crawled + surfaced documents, plus
        whatever other layers -- webtables, vertical sources -- have
        landed in the store)."""
        return self.engine.search(query, k=k)

    def harvest_tables(self, detail_pages_per_site: int = 10) -> int:
        """Mine the indexed web for WebTables raw material
        (:func:`~repro.webtables.corpus.harvest_web`; the corpus is wired
        to this service's store): admitted tables land there as
        ``webtable`` documents.  Incremental, idempotent, immediate on a
        settled corpus; returns how many tables this call admitted."""
        return harvest_web(self.web, self.corpus, self._harvest, detail_pages_per_site)

    def query(
        self,
        query: str,
        k: int = 20,
        min_per_source: int = 0,
        live: bool = False,
        live_fetch_budget: int | None = None,
        include_webtables: bool | None = None,
    ) -> PlanResult:
        """The federated read: :attr:`planner` plans ``query`` (keywords
        vs ``field:value`` filters, routed on the vertical registry, store
        and corpus signals) and :attr:`executor` runs the plan under its budgets,
        recording provenance for :meth:`report`.  ``live=True`` allows a
        budgeted query-time probe of routed form sites;
        ``include_webtables=None`` lets corpus statistics decide the
        webtables route, and ``False`` keeps the plan indexed-only --
        byte-identical to the pre-planner cross-corpus read.

        ``.results`` is the global top-k plus a floor: every source tag
        matching anywhere contributes at least ``min_per_source``
        results when it has them, so the list may exceed ``k`` and stays
        score-ordered (ties by doc id).  ``k <= 0`` and empty/whitespace
        queries return nothing without harvesting or probing (the floor
        tops up a ranking, it never manufactures one); a source with
        fewer matches than the floor contributes what it has (no
        padding); repeated calls return the identical list.
        """
        return self.executor.execute(
            self.planner.plan(
                query,
                k=k,
                min_per_source=min_per_source,
                live=live,
                live_fetch_budget=live_fetch_budget,
                include_webtables=include_webtables,
            )
        )

    def cluster_stats(self) -> ClusterStats | None:
        """Scatter-gather accounting when the store is a
        :class:`~repro.cluster.ClusterBackend` (shape, hedges, deadline
        misses, degraded searches, dead replicas); ``None`` otherwise."""
        stats_fn = getattr(self.store, "cluster_stats", None)
        return stats_fn() if callable(stats_fn) else None

    def _storage_section(self) -> dict[str, object]:
        """The report's persistence provenance (paths, snapshot age)."""
        section: dict[str, object] = {}
        store_path = getattr(self.store, "path", None)
        if store_path is not None:
            section["store_path"] = str(store_path)
        if self.persist_dir is not None:
            section["persist_dir"] = str(self.persist_dir)
            section["completed_sites"] = self.store.completed_sites
        if self._snapshot_path is not None:
            section["snapshot_path"] = str(self._snapshot_path)
            if self._snapshot_created_at is not None:
                section["snapshot_age_seconds"] = max(
                    0.0, time.time() - self._snapshot_created_at
                )
        if self._restored_from is not None:
            section["restored_from"] = str(self._restored_from)
        return section

    def _resilience_section(self) -> dict[str, object]:
        """Fault/degradation accounting for :meth:`report`, summed over
        every fault and retry layer the web is wrapped in.

        Returns ``{}`` on a fault-free service (no resilience wrappers and
        a clean meter), so clean-run reports render byte-identically to
        pre-resilience builds."""
        meter = self.web.load_meter
        errors = meter.errors()
        retries = meter.retries()
        injected: dict[str, int] = {}
        registries: list[BreakerRegistry] = []  # distinct: layers may share one
        layer: Web | None = self.web
        while layer is not None:
            if isinstance(layer, FaultyWeb):
                for kind, count in layer.fault_counts().items():
                    injected[kind] = injected.get(kind, 0) + count
            breakers = layer.breakers if isinstance(layer, ResilientWeb) else None
            if breakers is not None and breakers not in registries:
                registries.append(breakers)
            layer = getattr(layer, "inner", None)
        trips = sum(registry.trips() for registry in registries)
        skips = sum(registry.skips() for registry in registries)
        if not errors and not retries and not injected and not trips and not skips:
            # Installed-but-idle wrappers stay invisible: a clean run's
            # report is byte-identical with or without the resilience tier.
            return {}
        section: dict[str, object] = {
            "fetch_errors": errors,
            "fetch_retries": retries,
        }
        outcomes = [meter.outcome(host) for host in meter.hosts()]
        hosts = {o.host: o for o in outcomes if o.errors or o.retries}
        if hosts:
            section["hosts"] = hosts
        if injected:
            section["injected"] = dict(sorted(injected.items()))
        if trips or skips:
            section["breakers"] = {
                "trips": trips,
                "skips": skips,
                "open": sorted(
                    {host for registry in registries for host in registry.open_hosts()}
                ),
            }
        return section

    def report(self) -> ServiceReport:
        """Summarize everything surfaced and indexed so far."""
        return ServiceReport(
            sites_total=len(self.results),
            sites_surfaced=sum(1 for result in self.results if result.urls_indexed > 0),
            forms_found=sum(result.forms_found for result in self.results),
            forms_surfaced=sum(result.forms_surfaced for result in self.results),
            post_forms_skipped=sum(result.post_forms_skipped for result in self.results),
            urls_generated=sum(result.urls_generated for result in self.results),
            urls_indexed=sum(result.urls_indexed for result in self.results),
            records_covered=sum(result.records_covered for result in self.results),
            probes_issued=sum(result.probes_issued for result in self.results),
            analysis_load=sum(result.analysis_load for result in self.results),
            elapsed_seconds=sum(result.elapsed_seconds for result in self.results),
            crawl=self.crawl_stats,
            sites=list(self.results),
            probe_cache=self.pipeline.prober.stats(),
            stage_metrics=self.metrics.as_dict(),
            query_planning=self.planner_stats.as_dict(),
            store=self.engine.store_stats(),
            cluster=self.cluster_stats(),
            storage=self._storage_section(),
            resilience=self._resilience_section(),
        )
