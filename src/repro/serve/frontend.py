"""The query-serving frontend: the read path under concurrent traffic.

The paper's surfacing approach only matters because surfaced content is
served inside a regular web-search stack that absorbs enormous query
volume.  :class:`QueryFrontend` is that stack's front door for the
reproduction: it sits on top of a :class:`~repro.search.engine.SearchEngine`
(and therefore whatever :class:`~repro.store.backend.StorageBackend` is
behind it) and provides

* a :class:`~repro.serve.cache.QueryResultCache` -- an LRU keyed on
  the normalized query and ``k``, stamped with a corpus generation the
  frontend bumps from an ingest listener, so writes through *any*
  content layer invalidate cached rankings automatically.  A ranking the
  backend served degraded is never cached, and nothing expires on a
  timer: only a write makes an entry stale;
* a worker pool that :meth:`serve_workload` replays a query stream
  through: every request is served (nothing is shed), so a replay is
  lossless and deterministic;
* :class:`ServeStats` -- served/cache-hit counts and latency percentiles
  of one :meth:`serve_workload` replay, counted from that replay's own
  requests.  Timing belongs to the replay: :meth:`serve` reads no clock.

A hit does four things: the closed check, one lookup in the frontend's
alias map (raw request text -> normalized key, at most ``cache_size``
texts, cleared wholesale when full), one locked LRU lookup and one list
copy.  It does not tokenize, score, read the clock or read the
generation; a text the alias map has not seen is normalized as on a miss.

Federated queries (``field:value``, tables, live probes) do not pass
through here: ``DeepWebService.query`` plans and executes them directly.

Results are exactly what :meth:`SearchEngine.search` returns for the
same query and ``k``: the cache stores the ranked tuples verbatim and
scoring is deterministic, so cached, uncached and concurrent serving are
byte-identical (``tests/serve/`` pins this).

Thread-safety: any number of workers may serve while writes
(crawl/surface/ingest) run.  The inverted index locks its writes,
scoring and export, and the catalog stores a document before indexing
it, so every ranked id resolves and a single-store ranking taken during
a write is the ranking after some prefix of the writes.  The cluster
coordinator does the same and reads its df and length counters under
the lock its writes take.  The ingest listener invalidates cached
results before the next query; a ranking computed across a write is
stamped with the generation read before it, so it is never served
again as fresh.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.search.engine import SearchEngine, SearchResult
from repro.serve.cache import QueryResultCache, normalize_query
from repro.serve.loadgen import WorkloadQuery
from repro.store.records import IngestRecord
from repro.util.stats import percentile


@dataclass(frozen=True)
class ServeStats:
    """A snapshot of frontend traffic counters and latency percentiles.

    Latencies are seconds per request (cache lookup + ranking), measured
    with the injected clock; ``qps`` is served / wall-clock when an
    elapsed time is given, else 0.0.
    """

    served: int
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
            f"served: {self.served}",
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
    list per query.
    """

    results: list[list[SearchResult]]
    stats: ServeStats

    @property
    def shed(self) -> int:
        """Always 0: a replay serves every request.  Kept because the
        benchmark's ``serve.shed`` metric still reads it."""
        return 0


class QueryFrontend:
    """Serves queries over the shared index through a result cache."""

    def __init__(
        self,
        engine: SearchEngine,
        workers: int = 4,
        cache_size: int = 1024,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.engine = engine
        self.workers = workers
        self.cache = QueryResultCache(max_entries=cache_size)
        self._clock = clock
        #: Raw request text -> normalized key, at most ``cache_size`` texts.
        self._aliases: dict[str, str] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
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
        a cache lookup, a stored entry or any scoring.  Nothing here reads
        the clock; :meth:`serve_workload` times its requests itself."""
        return self._answer(query, k)[0]

    def _serve_timed(
        self, query: str, k: int
    ) -> tuple[list[SearchResult], float, str | None]:
        """:meth:`_answer` timed on the injected clock, for
        :meth:`serve_workload`: ``(ranking, latency, cache_outcome)``."""
        started = self._clock()
        results, cache_outcome = self._answer(query, k)
        return results, self._clock() - started, cache_outcome

    def _answer(self, query: str, k: int) -> tuple[list[SearchResult], str | None]:
        """The one read core: ``(ranking, cache_outcome)``.

        Workload runs count ``cache_outcome`` (``"hit"``, ``"miss"`` or
        ``None`` for an empty request, which is never looked up or stored)
        themselves, so traffic through other entry points cannot pollute
        their stats.
        """
        if self._closed:
            # A closed frontend no longer hears ingests, so serving from
            # its cache could silently return stale rankings.
            raise RuntimeError("frontend is closed")
        # The key is the normalized string plus ``k``.  A request text seen
        # before maps to its key in one dict lookup, so a hit does no
        # tokenizing or scoring.
        key = self._aliases.get(query)
        if key is None:
            key = normalize_query(query)
            with self._lock:
                if len(self._aliases) >= self.cache.max_entries:
                    self._aliases.clear()  # wholesale at the cap, as Url's parse memo
                else:
                    self._aliases[query] = key
        if not key or k <= 0:
            return [], None
        cached = self.cache.get(key, k)
        if cached is not None:
            return list(cached), "hit"
        # The generation must be read before computing: a write landing
        # mid-search would otherwise stamp a pre-write ranking as fresh.
        generation = self.cache.generation
        # A search the backend served degraded (a cluster that lost a
        # shard) is partial; caching it would keep serving the shrunken
        # answer after the replicas recover.  With several workers a
        # healthy answer may go uncached because a concurrent search
        # degraded; a degraded one never gets in.
        backend = self.engine.backend
        degraded_before = backend.degraded_searches
        results = self.engine.search(query, k=k)
        if backend.degraded_searches == degraded_before:
            self.cache.put(key, k, results, generation=generation)
        return results, "miss"

    def serve_workload(
        self, queries: Iterable[WorkloadQuery | str], default_k: int = 10
    ) -> WorkloadOutcome:
        """Replay a query stream through the worker pool.

        Every query is served, so ``results`` is a lossless, deterministic
        replay (byte-identical to serving the stream serially).
        """
        started = self._clock()
        pool = self._executor()
        futures: list[Future] = []
        for item in queries:
            text, k = (item, default_k) if isinstance(item, str) else (item.text, item.k)
            futures.append(pool.submit(self._serve_timed, text, k))
        # Gather *every* future before letting an exception escape: a
        # raising result() must not abandon in-flight requests ungathered
        # (a second failure would be silently lost).  The first exception
        # is re-raised once, after the whole replay has settled.
        outcomes: list[tuple[list[SearchResult], float, str | None]] = []
        failure: BaseException | None = None
        for future in futures:
            try:
                outcomes.append(future.result())
            except BaseException as error:
                failure = failure or error
        if failure is not None:
            raise failure
        elapsed = self._clock() - started
        # Stats come from workload-local accumulators, never from deltas
        # of the frontend-global counters: a background thread serving
        # directly during the replay must not pollute this workload's
        # served/hit-rate numbers.
        stats = ServeStats.from_counters(
            served=len(outcomes),
            cache_hits=sum(1 for outcome in outcomes if outcome[2] == "hit"),
            cache_misses=sum(1 for outcome in outcomes if outcome[2] == "miss"),
            latencies=[outcome[1] for outcome in outcomes],
            elapsed_seconds=elapsed,
        )
        return WorkloadOutcome(results=[outcome[0] for outcome in outcomes], stats=stats)

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed frontend refuses every
        request; build a fresh one to resume serving)."""
        return self._closed

    def _executor(self) -> ThreadPoolExecutor:
        # The closed check and the lazy creation share the lock close()
        # takes: two racing first replays would otherwise each build a
        # pool, and a close() landing between the check and the build
        # would leave a pool (and its worker threads) nobody shuts down.
        with self._lock:
            if self._closed:
                raise RuntimeError("frontend is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="query-frontend"
                )
            return self._pool

    def close(self) -> None:
        """Drain the pool and unsubscribe from the ingestor; the frontend
        rejects both replays and direct serves afterwards (without the
        listener its cache could go stale undetected)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            self._aliases.clear()
        self.engine.ingestor.remove_listener(self._on_ingest)
        self.cache.clear()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
