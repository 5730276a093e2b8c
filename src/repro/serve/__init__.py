"""The query-serving subsystem: the read path under production traffic.

Everything the other layers ingest and shard is only useful if it can be
*served* -- at volume, concurrently, with result caching.  This package
provides:

* :class:`QueryFrontend` -- the read entry point over the shared
  :class:`~repro.search.engine.SearchEngine`: a worker pool for workload
  replays and an LRU :class:`QueryResultCache` invalidated automatically
  on every ingest (nothing is shed and nothing expires on a timer);
* :class:`ServeStats` / :class:`WorkloadOutcome` -- traffic counters,
  latency percentiles and lossless workload replays;
* :class:`WorkloadGenerator` -- seeded Zipf query streams over the
  head/tail query log and the datagen vocabularies, plus
  ``mixed_stream`` (keyword / ``field:value`` structured / table-lookup
  queries at configurable ratios), so load and equivalence tests replay
  bit-for-bit.

Frontend results are byte-identical to calling ``engine.search``
directly (``tests/serve/`` pins cached, concurrent and post-invalidation
serving against the plain engine path).
"""

from repro.serve.cache import QueryResultCache, normalize_query
from repro.serve.frontend import QueryFrontend, ServeStats, WorkloadOutcome
from repro.serve.loadgen import (
    KIND_STRUCTURED,
    KIND_TABLE,
    KIND_VOCAB,
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadQuery,
    structured_queries,
    table_lookup_queries,
    vocab_queries,
)

__all__ = [
    "KIND_STRUCTURED",
    "KIND_TABLE",
    "KIND_VOCAB",
    "QueryFrontend",
    "QueryResultCache",
    "ServeStats",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadOutcome",
    "WorkloadQuery",
    "normalize_query",
    "structured_queries",
    "table_lookup_queries",
    "vocab_queries",
]
