"""The cluster coordinator: a storage backend over replicated shard nodes.

:class:`ClusterBackend` is the one hash-partitioned backend.  Documents
and doc ids live in the coordinator, as the
:class:`~repro.store.backend.StorageBackend` base class keeps them; each
document's token stream routes to a shard by a stable CRC32 hash of its
URL (:func:`~repro.cluster.node.shard_of`) and is indexed by *every*
replica of that shard, and searches scatter one accumulate task per
shard through a :class:`~repro.cluster.executor.ScatterGatherExecutor`
(walked in the calling thread under a deadline, with replica failover
and injected-fault hedging) and merge the partial accumulators back into
one ranked list.

Two invariants make it safe to put in front of real traffic:

* **Clean-path byte-identity.**  The BM25 ingredients that couple shards
  together -- document count, total token length, per-term document
  frequency -- are tracked by the *coordinator* at ingest time as exact
  integer sums, so the idf map and average length handed to each shard
  are precisely what a single global index would compute.  Partial
  accumulators merge disjointly (a document lives in one shard), so with
  every shard answering, rankings and scores are bit-identical to
  :class:`~repro.store.memory.InMemoryBackend`.
* **Degradation is shrinkage, never substitution.**  When a shard misses
  its deadline or every replica is dead or failing, its documents simply
  drop out of the merge.  Because the scoring ingredients come from the
  coordinator (not from the surviving shards), the remaining hits keep
  *identical* scores -- the degraded result is a strict subset of the
  healthy one, the same PR 7 invariant the fetch tier degrades to, and
  :func:`~repro.resilience.chaos.compare_degraded` asserts it wholesale.
  ``degraded_searches`` counts the searches served that way; callers
  (the frontend, the chaos harness) compare it around a search.

Document reads (``get``, ``documents``, ...) are the catalog's; the
postings reads (``export_records``, ``dump_index``) are coordinator-side
and synchronous against replica 0 of each shard -- replicas are
byte-identical by construction, including dead ones, since kill/revive
only gates *query* serving.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from repro.cluster.executor import ScatterGatherExecutor
from repro.cluster.node import ShardNode, shard_of
from repro.resilience.faults import FaultPlan, ScriptedFaults
from repro.search.inverted_index import InvertedIndex, bm25_idf, rank_accumulator
from repro.store.backend import StorageBackend, StoreStats, records_from_terms
from repro.store.records import IngestRecord


@dataclass(frozen=True)
class ClusterStats:
    """A snapshot of cluster shape and scatter-gather behaviour."""

    shard_count: int
    replicas: int
    documents: int
    alive_replicas: int
    dead_replicas: tuple[str, ...]
    scatters: int
    tasks: int
    hedges: int
    hedge_wins: int
    deadline_misses: int
    failovers: int
    degraded_searches: int
    injected: dict[str, int]
    replica_serves: dict[str, int]

    def lines(self) -> list[str]:
        """Human-readable rendering (what service reports print)."""
        lines = [
            f"cluster: {self.shard_count} x {self.replicas} replicas, "
            f"{self.documents} documents",
            f"cluster scatters: {self.scatters} ({self.tasks} tasks, "
            f"{self.failovers} failovers)",
            f"cluster hedges: {self.hedges} ({self.hedge_wins} won), "
            f"deadline misses: {self.deadline_misses}, "
            f"degraded searches: {self.degraded_searches}",
        ]
        if self.dead_replicas:
            lines.append("cluster dead replicas: " + ", ".join(self.dead_replicas))
        if self.injected:
            parts = [f"{kind}={count}" for kind, count in self.injected.items()]
            lines.append("cluster injected faults: " + ", ".join(parts))
        return lines


class ClusterBackend(StorageBackend):
    """Replicated scatter-gather storage with single-index semantics."""

    kind = "cluster"

    def __init__(
        self,
        shard_count: int = 8,
        replicas: int = 1,
        deadline_seconds: float = 0.25,
        fault_plan: FaultPlan | ScriptedFaults | None = None,
    ) -> None:
        if shard_count <= 0:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        super().__init__()
        self.shard_count = shard_count
        self.replicas = replicas
        self.replica_sets: list[list[ShardNode]] = [
            [ShardNode(shard, replica) for replica in range(replicas)]
            for shard in range(shard_count)
        ]
        self.executor = ScatterGatherExecutor(self.replica_sets, deadline_seconds, fault_plan)
        # Coordinator-held scoring ingredients: exact integer sums kept at
        # ingest time, so degraded merges still score with full-corpus
        # numbers (subset-with-identical-scores, never rescored survivors).
        # Written and read under ``_lock``, so a search sees all three at
        # the same write.
        self._document_count = 0
        self._total_length = 0
        self._df: Counter[str] = Counter()
        self._lock = threading.Lock()
        #: Searches served with a shard missing so far; only ever grows.
        #: The one degraded signal: the serving frontend compares it around
        #: a search to keep degraded rankings out of its cache, the chaos
        #: harness to know which plans may have shrunk.
        self.degraded_searches = 0
        self._degraded_consumed = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        # Nothing to release: the nodes run in the caller's thread.  Kept
        # so a cluster closes like any other backend.
        pass

    # -- replica management ----------------------------------------------------

    def node(self, name: str) -> ShardNode:
        """Look a replica up by its ``shard{i}/replica{j}`` name."""
        return {node.name: node for nodes in self.replica_sets for node in nodes}[name]

    def kill(self, name: str) -> None:
        self.node(name).kill()

    def revive(self, name: str) -> None:
        self.node(name).revive()

    # -- writes --------------------------------------------------------------

    def _index(self, doc_id: int, record: IngestRecord) -> None:
        # Every replica of the owning shard stays byte-identical, dead or
        # alive -- kill/revive gates query serving only, so a revived
        # replica answers with current data (no catch-up protocol).
        for node in self.replica_sets[shard_of(record.url, self.shard_count)]:
            node.add(doc_id, record.tokens)
        with self._lock:
            self._document_count += 1
            self._total_length += len(record.tokens)
            for term in set(record.tokens):
                self._df[term] += 1

    def export_records(self) -> list[IngestRecord]:
        """The stored corpus as re-ingestable records, term-sorted streams
        rebuilt from replica 0's postings (shards hold disjoint doc ids)."""
        streams: dict[int, list[str]] = {}
        for replica_set in self.replica_sets:
            streams.update(replica_set[0].index.document_terms())
        return records_from_terms(self._documents.values(), streams)

    def dump_index(self) -> tuple[list[int], list[tuple[str, bytes, bytes]]]:
        """The dump of one index over the whole corpus: the exported records
        re-added to a scratch index, which builds exactly those postings."""
        index = InvertedIndex()
        for doc_id, record in enumerate(self.export_records(), 1):
            index.add_document(doc_id, record.tokens)
        lengths, postings = index.dump()
        return list(lengths.values()), postings

    # -- querying ------------------------------------------------------------

    def search(
        self,
        query_tokens: Sequence[str],
        limit: int | None = None,
        per_source: bool = False,
    ) -> list[tuple[int, float]]:
        """Scatter the query across shards, merge one ranked list.

        The idf map and average length come from the coordinator's
        ingest-time sums, so every shard -- and every *surviving* shard
        when some fail -- scores with exactly the numbers a single global
        index would use.
        """
        tokens = list(query_tokens)
        with self._lock:
            document_count = self._document_count
            if not tokens or not document_count:
                return []
            average_length = self._total_length / document_count
            idf_by_term: dict[str, float] = {}
            for term in tokens:
                if term not in idf_by_term:
                    idf_by_term[term] = bm25_idf(document_count, self._df.get(term, 0))
        outcomes = self.executor.scatter(
            lambda node: lambda: node.accumulate(tokens, idf_by_term, average_length)
        )
        accumulator: dict[int, float] = {}
        degraded = False
        for outcome in outcomes:
            if outcome.ok:
                accumulator.update(outcome.value)  # disjoint doc-id sets
            else:
                degraded = True
        if degraded:
            with self._lock:
                self.degraded_searches += 1
        return rank_accumulator(
            accumulator, limit, self._sources.__getitem__ if per_source else None
        )

    def consume_degraded(self) -> bool:
        """Whether ``degraded_searches`` moved since the last call (the
        form ``bench/``'s oracle reads the counter in)."""
        with self._lock:
            seen, self._degraded_consumed = self._degraded_consumed, self.degraded_searches
            return self.degraded_searches > seen

    # -- stats ---------------------------------------------------------------

    def stats(self) -> StoreStats:
        return replace(
            super().stats(),
            shard_documents=tuple(
                len(replica_set[0].index) for replica_set in self.replica_sets
            ),
        )

    def cluster_stats(self) -> ClusterStats:
        nodes = [node for replica_set in self.replica_sets for node in replica_set]
        dead = tuple(node.name for node in nodes if not node.alive)
        executor = self.executor
        with executor.lock:
            return ClusterStats(
                shard_count=self.shard_count,
                replicas=self.replicas,
                documents=len(self),
                alive_replicas=len(nodes) - len(dead),
                dead_replicas=dead,
                scatters=executor.scatters,
                tasks=executor.tasks,
                hedges=executor.hedges,
                hedge_wins=executor.hedge_wins,
                deadline_misses=executor.deadline_misses,
                failovers=executor.failovers,
                degraded_searches=self.degraded_searches,
                injected=dict(sorted(executor.injected.items())),
                replica_serves={
                    node.name: node.tasks_served for node in nodes if node.tasks_served
                },
            )
