"""Scatter-gather over shard replicas: deadlines, hedging, failover.

The executor is the cluster's read-side coordinator: one task per shard,
walked in shard order in the calling thread, each placed on one replica
chosen by a per-shard round-robin cursor, under

* a **per-scatter deadline** on the injected clock, checked before each
  shard starts -- a shard whose turn comes too late is dropped from the
  merge (the backend degrades to an exact-score subset: fewer hits,
  never wrong ones); a running shard is never interrupted;
* **replica failover** -- a dead or erroring replica hands the attempt
  to the next candidate;
* **hedged duplicates** -- an attempt injected as a straggler makes the
  next replica tried a hedge of it.

The nodes share the caller's thread (and one interpreter lock), so a
wall-clock hedge on a sibling could never outrun the straggler it races:
hedging is driven by the fault plan alone.

Failures are *injected* through the same seeded
:class:`~repro.resilience.faults.FaultPlan` / ``ScriptedFaults`` duck
type the fetch path uses, keyed on ``(replica name, per-replica task
index)`` under the ``cluster`` agent: an ``outage`` window models a
killed-then-revived replica, an ``error`` a failed response, a
``timeout`` a straggler that never answers (triggering a hedge without
any wall-clock stall).  Decisions are pure functions of
``(seed, replica, index)``, so chaos soaks replay deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.node import AGENT_CLUSTER, ShardNode
from repro.resilience.faults import (
    KIND_ERROR,
    KIND_OUTAGE,
    KIND_TIMEOUT,
    FaultPlan,
    ScriptedFaults,
)

#: Why a shard produced no response (``ShardOutcome.reason``).
REASON_DEADLINE = "deadline"
REASON_DOWN = "down"
REASON_ERROR = "error"
REASON_STALLED = "stalled"


@dataclass
class ShardOutcome:
    """One shard's contribution to a scatter (or why it has none)."""

    shard: int
    value: object | None = None
    attempts: int = 0
    #: An attempt duplicated a straggler (if the shard is ok, the hedge won).
    hedged: bool = False
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None


class ScatterGatherExecutor:
    """Places one task per shard on replicas, under a deadline."""

    def __init__(
        self,
        replica_sets: Sequence[Sequence[ShardNode]],
        deadline_seconds: float = 0.25,
        fault_plan: FaultPlan | ScriptedFaults | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not replica_sets or any(not replicas for replicas in replica_sets):
            raise ValueError("every shard needs at least one replica")
        if deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be positive, got {deadline_seconds}")
        self.replica_sets = [list(replicas) for replicas in replica_sets]
        self.deadline_seconds = deadline_seconds
        self.fault_plan = fault_plan
        self._clock = clock
        #: Guards the routing cursors and the cumulative counters below,
        #: which ``ClusterBackend.cluster_stats()`` reads under it.
        self.lock = threading.Lock()
        self._cursors = [0] * len(self.replica_sets)
        self.scatters = 0
        self.tasks = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.deadline_misses = 0
        self.failovers = 0
        self.injected: dict[str, int] = {}

    # -- routing -------------------------------------------------------------

    def _pick(self, shard: int, tried: set[int]) -> ShardNode | None:
        """The next untried live replica, walking on from the shard's cursor."""
        replicas = self.replica_sets[shard]
        with self.lock:
            cursor = self._cursors[shard]
            for offset in range(len(replicas)):
                node = replicas[(cursor + offset) % len(replicas)]
                if node.replica_index not in tried and node.alive:
                    self._cursors[shard] = (cursor + 1) % len(replicas)
                    return node
        return None

    # -- fault injection -------------------------------------------------------

    def _consult_plan(self, node: ShardNode) -> str | None:
        """The injected verdict for this attempt (``None`` = run it).

        Governed attempts consume the replica's fault index; ungoverned
        ones do not, so enabling an agent filter never shifts the fault
        sequence -- the same contract as :class:`FaultyWeb`.
        """
        plan = self.fault_plan
        if plan is None or not plan.applies_to(AGENT_CLUSTER):
            return None
        decision = plan.decide(node.name, node.next_fault_index())
        if decision.ok:
            return None
        with self.lock:
            self.injected[decision.kind] = self.injected.get(decision.kind, 0) + 1
        if decision.kind == KIND_OUTAGE:
            return REASON_DOWN
        if decision.kind == KIND_TIMEOUT:
            return REASON_STALLED
        assert decision.kind == KIND_ERROR
        return REASON_ERROR

    # -- scatter ---------------------------------------------------------------

    def _run_shard(
        self, shard: int, task_factory: Callable[[ShardNode], Callable[[], object]]
    ) -> ShardOutcome:
        """Try replicas in cursor order until one answers.

        An attempt that ends ``down`` or ``error`` makes the next one a
        failover.  An injected ``timeout`` marks it a straggler instead: it
        never answers, so every further attempt for this shard is a hedged
        duplicate of it, not a failover.
        """
        tried: set[int] = set()
        attempts = 0
        hedged = failover = False
        reason = REASON_DOWN
        while (node := self._pick(shard, tried)) is not None:
            tried.add(node.replica_index)
            attempts += 1
            if failover:
                with self.lock:
                    self.failovers += 1
            verdict = self._consult_plan(node)
            if verdict is None and not node.alive:
                verdict = REASON_DOWN  # killed after _pick chose it
            if verdict is None:
                with self.lock:
                    self.tasks += 1
                    node.tasks_served += 1
                    if hedged:
                        self.hedges += 1
                try:
                    value = task_factory(node)()
                except Exception:
                    verdict = REASON_ERROR
                else:
                    if hedged:
                        with self.lock:
                            self.hedge_wins += 1
                    return ShardOutcome(shard, value, attempts, hedged)
            reason = verdict
            failover = verdict != REASON_STALLED
            hedged = hedged or not failover
        return ShardOutcome(shard=shard, attempts=attempts, hedged=hedged, reason=reason)

    def scatter(
        self, task_factory: Callable[[ShardNode], Callable[[], object]]
    ) -> list[ShardOutcome]:
        """Run ``task_factory(node)()`` once per shard, in shard order.

        A shard whose turn comes at or past ``deadline_seconds`` after the
        scatter started is dropped with ``REASON_DEADLINE``.  The returned
        list is ordered by shard index.
        """
        with self.lock:
            self.scatters += 1
        deadline = self._clock() + self.deadline_seconds
        outcomes = []
        for shard in range(len(self.replica_sets)):
            if self._clock() >= deadline:
                with self.lock:
                    self.deadline_misses += 1
                outcomes.append(ShardOutcome(shard=shard, reason=REASON_DEADLINE))
            else:
                outcomes.append(self._run_shard(shard, task_factory))
        return outcomes
