"""The query-serving frontend: the read path under concurrent traffic.

The paper's surfacing approach only matters because surfaced content is
served inside a regular web-search stack that absorbs enormous query
volume.  :class:`QueryFrontend` is that stack's front door for the
reproduction: it sits on top of a :class:`~repro.search.engine.SearchEngine`
(and therefore whatever :class:`~repro.store.backend.StorageBackend` is
behind it) and provides

* a :class:`~repro.serve.cache.QueryResultCache` -- LRU + TTL, keyed on
  the normalized query and ``k``, stamped with a corpus generation the
  frontend bumps from an ingest listener, so writes through *any*
  content layer invalidate cached rankings automatically;
* a thread-pool request executor with a bounded admission queue:
  :meth:`submit` sheds load once ``queue_limit`` requests are in flight
  (a production frontend degrades by refusing, not by queueing without
  bound), while :meth:`serve_workload` defaults to blocking backpressure
  so replayed workloads are lossless and deterministic;
* :class:`ServeStats` -- served/shed/cache-hit counters and latency
  percentiles over everything served so far.

Results are exactly what :meth:`SearchEngine.search` returns for the
same query and ``k``: the cache stores the ranked tuples verbatim and
scoring is deterministic, so cached, uncached and concurrent serving are
byte-identical (``tests/serve/`` pins this).

Thread-safety: serving is read-only on the engine plus CPython-atomic
lazy-cache fills in the inverted index, so any number of workers may
serve concurrently.  Writes (crawl/surface/ingest) must not run *during*
a concurrent batch -- quiesce serving first; the ingest listener then
invalidates cached results before the next query is answered.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.query.executor import PlanResult, QueryExecutor
from repro.query.plan import QueryPlan
from repro.search.engine import SearchEngine, SearchResult
from repro.serve.cache import QueryResultCache, normalize_query
from repro.serve.loadgen import WorkloadQuery
from repro.store.records import IngestRecord
from repro.util.stats import percentile


@dataclass(frozen=True)
class ServeStats:
    """A snapshot of frontend traffic counters and latency percentiles.

    Latencies are seconds per request (cache lookup + ranking), measured
    with the injected clock; ``qps`` is populated for workload runs
    (served / wall-clock) and 0.0 on cumulative snapshots.
    """

    served: int
    shed: int
    cache_hits: int
    cache_misses: int
    latency_p50: float
    latency_p90: float
    latency_p99: float
    latency_mean: float
    latency_max: float
    elapsed_seconds: float = 0.0
    qps: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return (self.cache_hits / lookups) if lookups else 0.0

    @staticmethod
    def from_counters(
        served: int,
        shed: int,
        cache_hits: int,
        cache_misses: int,
        latencies: Sequence[float],
        elapsed_seconds: float = 0.0,
    ) -> "ServeStats":
        if latencies:
            ordered = sorted(latencies)  # percentile()'s re-sort is then linear
            p50 = percentile(ordered, 50.0)
            p90 = percentile(ordered, 90.0)
            p99 = percentile(ordered, 99.0)
            mean = sum(ordered) / len(ordered)
            top = ordered[-1]
        else:
            p50 = p90 = p99 = mean = top = 0.0
        return ServeStats(
            served=served,
            shed=shed,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            latency_p50=p50,
            latency_p90=p90,
            latency_p99=p99,
            latency_mean=mean,
            latency_max=top,
            elapsed_seconds=elapsed_seconds,
            qps=(served / elapsed_seconds) if elapsed_seconds > 0 else 0.0,
        )

    def lines(self) -> list[str]:
        """A deterministic, human-readable rendering."""
        out = [
            f"served: {self.served} ({self.shed} shed)",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%} hit rate)",
            f"latency: p50={self.latency_p50 * 1000:.3f}ms "
            f"p90={self.latency_p90 * 1000:.3f}ms "
            f"p99={self.latency_p99 * 1000:.3f}ms "
            f"max={self.latency_max * 1000:.3f}ms",
        ]
        if self.qps:
            out.append(f"throughput: {self.qps:.0f} queries/s over {self.elapsed_seconds:.2f}s")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


@dataclass
class WorkloadOutcome:
    """What a replayed workload produced.

    ``results`` is position-aligned with the input stream: one ranked
    list per query, or ``None`` where the request was shed (only possible
    with ``shed_on_overload=True``).
    """

    results: list[list[SearchResult] | None]
    stats: ServeStats

    @property
    def served(self) -> int:
        return self.stats.served

    @property
    def shed(self) -> int:
        return self.stats.shed


class QueryFrontend:
    """Serves queries over the shared index with caching and admission control."""

    def __init__(
        self,
        engine: SearchEngine,
        workers: int = 4,
        cache_size: int = 1024,
        ttl_seconds: float | None = None,
        queue_limit: int | None = None,
        latency_window: int = 10_000,
        clock: Callable[[], float] = time.perf_counter,
        executor: QueryExecutor | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if queue_limit is not None and queue_limit <= 0:
            raise ValueError(f"queue_limit must be positive, got {queue_limit}")
        if latency_window <= 0:
            raise ValueError(f"latency_window must be positive, got {latency_window}")
        self.engine = engine
        self.workers = workers
        #: In-flight request bound: submissions beyond this are shed (or
        #: block, under backpressure) instead of queueing without limit.
        self.queue_limit = queue_limit if queue_limit is not None else workers * 8
        # The cache shares the injected clock so TTL expiry is as
        # deterministic in tests as the latency measurements are.
        self.cache = QueryResultCache(
            max_entries=cache_size, ttl_seconds=ttl_seconds, clock=clock
        )
        self._clock = clock
        self._pool: ThreadPoolExecutor | None = None
        self._slots = threading.BoundedSemaphore(self.queue_limit)
        self._lock = threading.Lock()
        self._served = 0
        self._shed = 0
        #: Optional federated-plan executor; without one, ``serve_plan``
        #: refuses (the frontend alone cannot harvest or probe).  Plan
        #: provenance is counted once, in the executor's ``PlannerStats``.
        self._plan_executor = executor
        # Cumulative percentiles cover the most recent window only, so a
        # long-lived frontend holds a bounded history; workload runs
        # collect their own exact latencies from the futures.
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._closed = False
        engine.ingestor.add_listener(self._on_ingest)

    # -- write invalidation --------------------------------------------------

    def _on_ingest(self, record: IngestRecord, doc_id: int) -> None:
        """Every new document anywhere in the store invalidates cached
        rankings (scores depend on corpus-global statistics, so *all*
        entries are stale, not just ones matching the new page)."""
        self.cache.bump_generation()

    # -- serving -------------------------------------------------------------

    def _degraded_searches(self) -> int:
        """Searches the backend has served degraded so far (a cluster
        that lost a shard; always 0 for backends without the notion).

        A ranking is cached only if this did not move while it was
        computed: caching a degraded one would keep serving the shrunken
        answer after the replicas recover.  With several workers a
        healthy ranking may go uncached because a concurrent search
        degraded; a degraded one never gets in.
        """
        backend = getattr(self.engine, "backend", None)
        return getattr(backend, "degraded_searches", 0)

    def serve(self, query: str, k: int = 10) -> list[SearchResult]:
        """Answer one query synchronously (cache first, then the engine)."""
        return self._serve_timed(query, k)[0]

    def _serve_timed(
        self, query: str, k: int
    ) -> tuple[list[SearchResult], float, str | None]:
        """Serve one query, returning ``(results, latency, cache_outcome)``.

        ``cache_outcome`` is ``"hit"``, ``"miss"`` or ``None`` (empty
        query: no lookup happened).  Workload runs count their own
        hits/misses from it so concurrent traffic through other entry
        points cannot pollute a workload's reported stats.
        """
        if self._closed:
            # A closed frontend no longer hears ingests, so serving from
            # its cache could silently return stale rankings.
            raise RuntimeError("frontend is closed")
        started = self._clock()
        key = normalize_query(query)
        cache_outcome: str | None = None
        if not key:
            # The empty-query contract: nothing to rank, nothing to cache
            # (an empty key must not occupy a cache slot or skew hit rates).
            results: list[SearchResult] = []
        else:
            # The generation must be read before ranking: a write landing
            # mid-search would otherwise stamp a pre-write ranking as fresh.
            generation = self.cache.generation
            cached = self.cache.get(key, k)
            if cached is not None:
                results = list(cached)
                cache_outcome = "hit"
            else:
                degraded_before = self._degraded_searches()
                results = self.engine.search(query, k=k)
                if self._degraded_searches() == degraded_before:
                    self.cache.put(key, k, results, generation=generation)
                cache_outcome = "miss"
        latency = self._clock() - started
        with self._lock:
            self._served += 1
            self._latencies.append(latency)
        return results, latency, cache_outcome

    def serve_plan(self, plan: QueryPlan) -> PlanResult:
        """Serve one federated :class:`QueryPlan`.

        Cacheable plans (no live route) are keyed on the plan
        fingerprint, generation-stamped exactly like string queries, so
        any ingest invalidates them before the next serve.  Plans with a
        live route are *never* cached: every serve runs the budgeted
        probe, so a fresh query-time result can never be stale-served.
        Empty plans return an empty result without executing, caching or
        probing anything.
        """
        if self._closed:
            raise RuntimeError("frontend is closed")
        if self._plan_executor is None:
            raise RuntimeError(
                "this frontend has no plan executor; construct it with "
                "QueryFrontend(engine, executor=...) or use service.frontend"
            )
        started = self._clock()
        if plan.is_empty:
            outcome = PlanResult(plan=plan)
            # Keep the shared provenance sink in step with the executor
            # path, which also records empty plans.
            self._plan_executor.stats.record(outcome)
        elif not plan.cacheable:
            outcome = self._plan_executor.execute(plan)
        else:
            key = plan.fingerprint()
            generation = self.cache.generation
            cached = self.cache.get(key, plan.k)
            if cached is not None:
                outcome = PlanResult(plan=plan, hits=list(cached), cached=True)
                # Cache hits still count as plans in the shared provenance
                # stats (routes/budgets stay zero: nothing re-ran).
                self._plan_executor.stats.record(outcome)
            else:
                degraded_before = self._degraded_searches()
                outcome = self._plan_executor.execute(plan)
                if (
                    not outcome.degraded
                    and self._degraded_searches() == degraded_before
                ):
                    # A degraded outcome is partial (fetch failures or a
                    # lost shard dropped hits); caching it would keep
                    # serving the shrunken answer after recovery.
                    self.cache.put(
                        key, plan.k, tuple(outcome.hits), generation=generation
                    )
        latency = self._clock() - started
        with self._lock:
            self._served += 1
            self._latencies.append(latency)
        return outcome

    def submit(self, query: str, k: int = 10) -> Future | None:
        """Enqueue one query on the worker pool.

        Returns ``None`` -- the request was *shed* -- when ``queue_limit``
        requests are already in flight.  The returned future resolves to
        the same list :meth:`serve` would produce.
        """
        if not self._slots.acquire(blocking=False):
            with self._lock:
                self._shed += 1
            return None
        return self._submit_held(self.serve, query, k)

    def _submit_held(self, fn, query: str, k: int) -> Future:
        """Submit with an admission slot already held (released on completion)."""
        try:
            future = self._executor().submit(fn, query, k)
        except BaseException:
            self._slots.release()
            raise
        future.add_done_callback(lambda _future: self._slots.release())
        return future

    def serve_workload(
        self,
        queries: Iterable[WorkloadQuery | str],
        default_k: int = 10,
        shed_on_overload: bool = False,
    ) -> WorkloadOutcome:
        """Replay a query stream through the worker pool.

        With the default blocking backpressure every query is served and
        ``results`` is a lossless, deterministic replay (byte-identical
        to serving the stream serially).  With ``shed_on_overload=True``
        requests beyond the admission queue are dropped and their
        ``results`` slots are ``None`` -- the load-test mode.
        """
        started = self._clock()
        futures: list[Future | None] = []
        workload_shed = 0
        for item in queries:
            text, k = self._query_of(item, default_k)
            if shed_on_overload:
                if not self._slots.acquire(blocking=False):
                    with self._lock:
                        self._shed += 1
                    workload_shed += 1
                    futures.append(None)
                    continue
            else:
                self._slots.acquire()
            futures.append(self._submit_held(self._serve_timed, text, k))
        # Gather *every* future before letting an exception escape: a
        # raising result() must not abandon in-flight requests ungathered
        # (their admission slots would drain behind the caller's back and
        # a second failure would be silently lost).  The first exception
        # is re-raised once, after the whole replay has settled.
        outcomes: list[tuple[list[SearchResult], float, str | None] | None] = []
        failure: BaseException | None = None
        for future in futures:
            if future is None:
                outcomes.append(None)
                continue
            try:
                outcomes.append(future.result())
            except BaseException as error:
                if failure is None:
                    failure = error
                outcomes.append(None)
        if failure is not None:
            raise failure
        elapsed = self._clock() - started
        results: list[list[SearchResult] | None] = [
            outcome[0] if outcome is not None else None for outcome in outcomes
        ]
        latencies = [outcome[1] for outcome in outcomes if outcome is not None]
        # Stats come from workload-local accumulators, never from deltas
        # of the frontend-global counters: a background thread serving
        # directly during the replay must not pollute this workload's
        # served/shed/hit-rate numbers.
        stats = ServeStats.from_counters(
            served=len(latencies),
            shed=workload_shed,
            cache_hits=sum(1 for o in outcomes if o is not None and o[2] == "hit"),
            cache_misses=sum(1 for o in outcomes if o is not None and o[2] == "miss"),
            latencies=latencies,
            elapsed_seconds=elapsed,
        )
        return WorkloadOutcome(results=results, stats=stats)

    @staticmethod
    def _query_of(item: WorkloadQuery | str, default_k: int) -> tuple[str, int]:
        if isinstance(item, str):
            return item, default_k
        return item.text, item.k

    # -- stats / lifecycle ---------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed frontend refuses every
        request; build a fresh one to resume serving)."""
        return self._closed

    def stats(self) -> ServeStats:
        """Cumulative counters since the frontend was created."""
        with self._lock:
            return ServeStats.from_counters(
                served=self._served,
                shed=self._shed,
                cache_hits=self.cache.hits,
                cache_misses=self.cache.misses,
                latencies=list(self._latencies),
            )

    def _executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("frontend is closed")
        # Lazy creation must happen under the lock: two threads racing the
        # first submit would otherwise each build a pool, and the loser's
        # pool (with its worker threads) leaks without a shutdown.
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="query-frontend"
                )
            return self._pool

    def close(self) -> None:
        """Drain the pool and unsubscribe from the ingestor; the frontend
        rejects both submissions and direct serves afterwards (without
        the listener its cache could go stale undetected)."""
        self._closed = True
        self.engine.ingestor.remove_listener(self._on_ingest)
        self.cache.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "QueryFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
