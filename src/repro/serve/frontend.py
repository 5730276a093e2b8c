"""The query-serving frontend: the read path under concurrent traffic.

The paper's surfacing approach only matters because surfaced content is
served inside a regular web-search stack that absorbs enormous query
volume.  :class:`QueryFrontend` is that stack's front door for the
reproduction: it sits on top of a :class:`~repro.search.engine.SearchEngine`
(and therefore whatever :class:`~repro.store.backend.StorageBackend` is
behind it) and provides

* a :class:`~repro.serve.cache.QueryResultCache` -- LRU + TTL, keyed on
  the normalized query and ``k`` (or a federated plan's fingerprint),
  stamped with a corpus generation the frontend bumps from an ingest
  listener, so writes through *any* content layer invalidate cached
  rankings automatically.  Strings (:meth:`serve`) and plans
  (:meth:`serve_plan`) share one request core, so the cache, the
  degraded refusal and the latency booking are written once;
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

    def serve(self, query: str, k: int = 10) -> list[SearchResult]:
        """Answer one query synchronously (cache first, then the engine).

        An empty query or a non-positive ``k`` is answered ``[]`` without
        a cache lookup, a stored entry or any scoring."""
        return self._serve_timed(query, k)[0]

    def _serve_timed(
        self, query: str, k: int
    ) -> tuple[list[SearchResult], float, str | None]:
        # The key is the normalized string plus ``k``, computed before
        # anything is parsed or planned, so a hit does neither.
        key = normalize_query(query) if k > 0 else ""
        return self._request(key, k, _answer_query, query)

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
        key = plan.fingerprint() if plan.cacheable and not plan.is_empty else None
        return self._request(key, plan.k, _answer_plan, plan)[0]

    def _request(self, key: str | None, k: int, answer_with: Callable, request) -> tuple:
        """The one read core: ``(answer, latency, cache_outcome)``.

        An empty ``key`` is never looked up or stored (an empty request,
        or a plan with a live route).  ``answer_with(self, request, k,
        cached)`` returns ``(answer, hits)``: built from ``cached`` on a
        hit, else computed, ``hits`` being what may be cached (``None``
        for a partial answer); it is module-level so a hit allocates no
        bound method.  Workload runs count ``cache_outcome`` (``"hit"``,
        ``"miss"`` or ``None``) themselves, so traffic through other
        entry points cannot pollute their stats.
        """
        if self._closed:
            # A closed frontend no longer hears ingests, so serving from
            # its cache could silently return stale rankings.
            raise RuntimeError("frontend is closed")
        started = self._clock()
        if not key:
            answer = answer_with(self, request, k, None)[0]
            cache_outcome = None
        else:
            # The generation must be read before computing: a write landing
            # mid-search would otherwise stamp a pre-write ranking as fresh.
            generation = self.cache.generation
            cached = self.cache.get(key, k)
            if cached is not None:
                answer = answer_with(self, request, k, cached)[0]
                cache_outcome = "hit"
            else:
                # A search the backend served degraded (a cluster that lost
                # a shard) is partial; caching it would keep serving the
                # shrunken answer after the replicas recover.  With several
                # workers a healthy answer may go uncached because a
                # concurrent search degraded; a degraded one never gets in.
                backend = self.engine.backend
                degraded_before = backend.degraded_searches
                answer, hits = answer_with(self, request, k, None)
                if hits is not None and backend.degraded_searches == degraded_before:
                    self.cache.put(key, k, hits, generation=generation)
                cache_outcome = "miss"
        latency = self._clock() - started
        with self._lock:
            self._served += 1
            self._latencies.append(latency)
        return answer, latency, cache_outcome

    def submit(self, query: str, k: int = 10) -> Future | None:
        """Enqueue one query on the worker pool.

        Returns ``None`` -- the request was *shed* -- when ``queue_limit``
        requests are already in flight.  The returned future resolves to
        the same list :meth:`serve` would produce.
        """
        return self._admit(self.serve, query, k, block=False)

    def _admit(self, fn, query: str, k: int, block: bool) -> Future | None:
        """Run ``fn(query, k)`` on the pool under an admission slot
        (released on completion).  Without ``block`` a full queue sheds
        the request -- counted, ``None`` returned -- instead of waiting."""
        if block:
            self._slots.acquire()
        elif not self._slots.acquire(blocking=False):
            with self._lock:
                self._shed += 1
            return None
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
        for item in queries:
            text, k = (item, default_k) if isinstance(item, str) else (item.text, item.k)
            futures.append(self._admit(self._serve_timed, text, k, block=not shed_on_overload))
        # Gather *every* future before letting an exception escape: a
        # raising result() must not abandon in-flight requests ungathered
        # (their admission slots would drain behind the caller's back and
        # a second failure would be silently lost).  The first exception
        # is re-raised once, after the whole replay has settled.
        outcomes: list[tuple[list[SearchResult], float, str | None] | None] = []
        failure: BaseException | None = None
        for future in futures:
            try:
                outcomes.append(future.result() if future is not None else None)
            except BaseException as error:
                failure = failure or error
                outcomes.append(None)
        if failure is not None:
            raise failure
        elapsed = self._clock() - started
        served = [outcome for outcome in outcomes if outcome is not None]
        # Stats come from workload-local accumulators, never from deltas
        # of the frontend-global counters: a background thread serving
        # directly during the replay must not pollute this workload's
        # served/shed/hit-rate numbers.
        stats = ServeStats.from_counters(
            served=len(served),
            shed=futures.count(None),
            cache_hits=sum(1 for outcome in served if outcome[2] == "hit"),
            cache_misses=sum(1 for outcome in served if outcome[2] == "miss"),
            latencies=[outcome[1] for outcome in served],
            elapsed_seconds=elapsed,
        )
        results = [outcome[0] if outcome is not None else None for outcome in outcomes]
        return WorkloadOutcome(results=results, stats=stats)

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


# -- request kinds (the ``answer_with`` of ``QueryFrontend._request``) ---------


def _answer_query(
    frontend: QueryFrontend, query: str, k: int, cached
) -> tuple[list[SearchResult], list[SearchResult] | None]:
    """A string request: the engine's top-k."""
    if cached is not None:
        return list(cached), None
    results = frontend.engine.search(query, k=k) if k > 0 else []
    return results, results


def _answer_plan(
    frontend: QueryFrontend, plan: QueryPlan, k: int, cached
) -> tuple[PlanResult, list | None]:
    """A plan request: the executor's result (which records every plan it
    runs, the empty one included)."""
    executor = frontend._plan_executor
    if executor is None:
        raise RuntimeError(
            "this frontend has no plan executor; construct it with "
            "QueryFrontend(engine, executor=...) or use service.frontend"
        )
    if cached is None:
        outcome = executor.execute(plan)
        # A degraded outcome lost hits to fetch failures or a lost shard.
        return outcome, None if outcome.degraded else outcome.hits
    outcome = PlanResult(plan=plan, hits=list(cached), cached=True)
    # Cache hits still count as plans in the shared provenance stats
    # (routes/budgets stay zero: nothing re-ran).
    executor.stats.record(outcome)
    return outcome, None
