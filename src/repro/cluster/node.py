"""One shard replica: a mailbox worker over a shard's postings.

A :class:`ShardNode` is the process-level model of one shard server.  It
owns a private :class:`~repro.search.inverted_index.InvertedIndex` over
its shard's token streams -- postings only; the documents themselves
live in the coordinator's catalog -- and runs its query work on its
*own* daemon thread, started by the first submit, which drains one
``SimpleQueue`` inbox in order (no node ever touches another node's
state: promoting a node to a real process would not change any caller).
Admission control
is an in-flight counter checked against ``inflight_limit`` under the
node's lock: past it the node refuses new work instead of queueing
without bound, the same degradation contract the
:class:`~repro.serve.frontend.QueryFrontend` applies at the top of the
stack.

Accepted work comes back as an :class:`Attempt`, which the worker settles
exactly once -- ran, raised, or cancelled before the worker reached it
(then ``fn`` never runs) -- in this order: value or exception stored,
admission slot returned, ``result()`` unblocked, ``on_done(attempt)``
called on the worker thread.

``kill()`` / ``revive()`` model replica failure for chaos soaks: a dead
node refuses query work.  The *write* path deliberately keeps every
replica of a shard in sync even while dead (re-sync/catch-up protocols
are out of scope), so a revived replica serves current data immediately.
"""

from __future__ import annotations

import queue
import threading
import zlib
from typing import Callable, Sequence

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


class Attempt:
    """One accepted unit of work on a node's worker (see the module docstring)."""

    __slots__ = ("node", "fn", "args", "on_done", "value", "error", "cancelled", "_settled")

    def __init__(self, node: "ShardNode", fn: Callable[..., object], args: tuple, on_done) -> None:
        self.node = node
        self.fn = fn
        self.args = args
        self.on_done = on_done
        self.value: object | None = None
        self.error: BaseException | None = None
        self.cancelled = False
        # Held from birth, released once by the worker: the settled flag.
        self._settled = threading.Lock()
        self._settled.acquire()

    def cancel(self) -> None:
        """Ask the worker to skip this attempt if it has not started it."""
        self.cancelled = True

    def result(self, timeout: float | None = None) -> object:
        """The value ``fn`` returned (``None`` if skipped), or its exception."""
        if not self._settled.acquire(timeout=-1 if timeout is None else timeout):
            raise TimeoutError(f"{self.node.name}: no result within {timeout}s")
        self._settled.release()
        if self.error is not None:
            raise self.error
        return self.value


class ShardNode:
    """One replica of one shard: a postings index + a private worker."""

    def __init__(
        self,
        shard_index: int,
        replica_index: int,
        k1: float = 1.5,
        b: float = 0.75,
        inflight_limit: int = 8,
    ) -> None:
        if inflight_limit <= 0:
            raise ValueError(f"inflight_limit must be positive, got {inflight_limit}")
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.name = replica_name(shard_index, replica_index)
        self.index = InvertedIndex(k1=k1, b=b)
        self.inflight_limit = inflight_limit
        self._lock = threading.Lock()
        #: The worker thread and the inbox it drains; both ``None`` until
        #: the first submit and again after ``close()``.
        self._worker: threading.Thread | None = None
        self._inbox: queue.SimpleQueue | None = None
        self._alive = True
        self._inflight = 0
        #: Per-replica fault-plan index (consumed only for governed tasks,
        #: mirroring :class:`~repro.resilience.faults.FaultyWeb` semantics).
        self._fault_index = 0
        self.tasks_served = 0
        self.refused = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Take the replica out of query serving (writes stay in sync)."""
        self._alive = False

    def revive(self) -> None:
        self._alive = True

    def close(self) -> None:
        """Finish what the inbox holds, then stop and join the worker."""
        with self._lock:
            worker, self._worker = self._worker, None
            inbox, self._inbox = self._inbox, None
        if worker is not None:
            inbox.put(None)
            worker.join()

    # -- write path (coordinator thread; replicas stay byte-identical) -------

    def add(self, doc_id: int, tokens: Sequence[str]) -> None:
        self.index.add_document(doc_id, tokens)

    # -- query work ----------------------------------------------------------

    def next_fault_index(self) -> int:
        with self._lock:
            index = self._fault_index
            self._fault_index += 1
            return index

    def try_submit(self, fn, *args, on_done=None) -> Attempt | None:
        """Run ``fn(*args)`` on this node's worker, or refuse.

        Returns ``None`` when the node is dead or its admission limit is
        reached -- the caller (the scatter-gather executor) treats both
        as this replica failing the request and falls over to another.
        """
        if not self._alive:
            return None
        attempt = Attempt(self, fn, args, on_done)
        # Posted under the lock, so an attempt can never land behind the
        # stop sentinel of a concurrent ``close()``.
        with self._lock:
            if self._inflight >= self.inflight_limit:
                self.refused += 1
                return None
            if self._worker is None:
                inbox: queue.SimpleQueue = queue.SimpleQueue()
                worker = threading.Thread(
                    target=self._drain, args=(inbox,), name=self.name, daemon=True
                )
                worker.start()  # before any book-keeping: a failed start leaks nothing
                self._worker, self._inbox = worker, inbox
            self._inflight += 1
            self.tasks_served += 1
            self._inbox.put(attempt)
        return attempt

    def _drain(self, inbox: queue.SimpleQueue) -> None:
        """The worker loop: settle attempts in arrival order until ``None``."""
        while (attempt := inbox.get()) is not None:
            if not attempt.cancelled:
                try:
                    attempt.value = attempt.fn(*attempt.args)
                except BaseException as error:  # re-raised by Attempt.result()
                    attempt.error = error
            with self._lock:
                self._inflight -= 1
            attempt._settled.release()
            if attempt.on_done is not None:
                attempt.on_done(attempt)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return f"<ShardNode {self.name} {state} docs={len(self.index)}>"
