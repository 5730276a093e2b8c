"""One shard replica: a postings index and its liveness.

A :class:`ShardNode` is the process-level model of one shard server.  It
owns a private :class:`~repro.search.inverted_index.InvertedIndex` over
its shard's token streams -- postings only; the documents themselves
live in the coordinator's catalog.  Query work runs in the calling
thread (the scatter-gather executor's): the node has no thread of its
own and no admission limit, so any number of callers may search it at
once (the index locks its own reads and writes).

``kill()`` / ``revive()`` model replica failure for chaos soaks: a dead
node refuses query work.  The *write* path deliberately keeps every
replica of a shard in sync even while dead (re-sync/catch-up protocols
are out of scope), so a revived replica serves current data immediately.
"""

from __future__ import annotations

import threading
import zlib
from typing import Sequence

from repro.search.inverted_index import InvertedIndex

#: The agent name cluster fault plans gate on (mirrors the fetch-side
#: ``AGENT_*`` constants in :mod:`repro.webspace.loadmeter`).
AGENT_CLUSTER = "cluster"


def shard_of(url: str, shard_count: int) -> int:
    """Stable URL -> shard routing (CRC32, hash-seed independent)."""
    return zlib.crc32(url.encode("utf-8")) % shard_count


def replica_name(shard_index: int, replica_index: int) -> str:
    """The canonical node name fault plans and stats key on."""
    return f"shard{shard_index}/replica{replica_index}"


class ShardNode:
    """One replica of one shard: a postings index that can be killed."""

    def __init__(self, shard_index: int, replica_index: int) -> None:
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.name = replica_name(shard_index, replica_index)
        self.index = InvertedIndex()
        self._lock = threading.Lock()
        self._alive = True
        #: Per-replica fault-plan index (consumed only for governed tasks,
        #: mirroring :class:`~repro.resilience.faults.FaultyWeb` semantics).
        self._fault_index = 0
        #: Tasks this replica ran; the executor counts them under its lock.
        self.tasks_served = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Take the replica out of query serving (writes stay in sync)."""
        self._alive = False

    def revive(self) -> None:
        self._alive = True

    # -- write path (coordinator thread; replicas stay byte-identical) -------

    def add(self, doc_id: int, tokens: Sequence[str]) -> None:
        self.index.add_document(doc_id, tokens)

    # -- query work ----------------------------------------------------------

    def next_fault_index(self) -> int:
        with self._lock:
            index = self._fault_index
            self._fault_index += 1
            return index

    def accumulate(
        self,
        tokens: Sequence[str],
        idf_by_term: dict[str, float],
        average_length: float,
    ) -> dict[int, float]:
        """This shard's BM25 contributions under corpus-global ingredients.

        The partial accumulator merges exactly (a document lives in one
        shard only), so the coordinator's merged ranking is bit-identical
        to a single global index.
        """
        partial: dict[int, float] = {}
        self.index.accumulate(tokens, idf_by_term, average_length, partial)
        return partial
