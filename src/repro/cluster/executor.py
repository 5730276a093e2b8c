"""Scatter-gather over shard replicas: deadlines, hedging, failover.

The executor is the cluster's read-side coordinator: one task per shard,
each placed on one replica chosen by a per-shard round-robin cursor.
Every attempt of one scatter reports to that scatter's
single reply queue, and one gather loop takes replies in arrival order
(no shard waits behind a slower sibling), under

* a **per-scatter deadline** -- a shard that cannot produce a response in
  time is dropped from the merge (the backend degrades to the PR 7
  subset invariant: fewer hits, never wrong ones);
* **hedged duplicate requests** -- once the hedge window has passed, every
  shard still waiting on its first attempt with an untried live replica
  gets the same task launched there too (all of them at ``hedge_at``, as
  the window is measured from the scatter's start, not per shard); the
  first response wins and the loser is cancelled;
* **replica failover** -- a dead, refusing (admission-limited) or
  erroring replica hands the attempt to the next candidate while the
  deadline allows.

Failures can also be *injected* through the same seeded
:class:`~repro.resilience.faults.FaultPlan` / ``ScriptedFaults`` duck
type the fetch path uses, keyed on ``(replica name, per-replica task
index)`` under the ``cluster`` agent: an ``outage`` window models a
killed-then-revived replica, an ``error`` a failed response, a
``timeout`` a straggler that never answers inside the hedge window
(triggering a hedge without any wall-clock stall).  Decisions are pure
functions of ``(seed, replica, index)``, so chaos soaks replay
deterministically.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.node import AGENT_CLUSTER, Attempt, ShardNode
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
REASON_REFUSED = "refused"
REASON_ERROR = "error"
REASON_STALLED = "stalled"


@dataclass
class ShardOutcome:
    """One shard's contribution to a scatter (or why it has none)."""

    shard: int
    value: object | None = None
    replica: str | None = None
    attempts: int = 0
    hedged: bool = False
    hedge_won: bool = False
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None


class _ShardState:
    """Book-keeping for one shard while its scatter is in flight."""

    __slots__ = ("shard", "replies", "pending", "tried", "attempts", "hedged", "last_reason")

    def __init__(self, shard: int, replies: queue.SimpleQueue) -> None:
        self.shard = shard
        self.replies = replies
        self.pending: dict[Attempt, bool] = {}  # attempt -> is it a hedge
        self.tried: set[int] = set()
        self.attempts = 0
        self.hedged = False
        self.last_reason: str | None = None

    def reply(self, attempt: Attempt) -> None:
        """``on_done`` of every attempt for this shard (runs on a worker)."""
        self.replies.put((self, attempt))


class ScatterGatherExecutor:
    """Places one task per shard on replicas, under deadlines and hedges."""

    def __init__(
        self,
        replica_sets: Sequence[Sequence[ShardNode]],
        deadline_seconds: float = 0.25,
        hedge_after_seconds: float = 0.05,
        fault_plan: FaultPlan | ScriptedFaults | None = None,
        agent: str = AGENT_CLUSTER,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not replica_sets or any(not replicas for replicas in replica_sets):
            raise ValueError("every shard needs at least one replica")
        if deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be positive, got {deadline_seconds}")
        if hedge_after_seconds < 0:
            raise ValueError(
                f"hedge_after_seconds must be >= 0, got {hedge_after_seconds}"
            )
        self.replica_sets = [list(replicas) for replicas in replica_sets]
        self.deadline_seconds = deadline_seconds
        self.hedge_after_seconds = min(hedge_after_seconds, deadline_seconds)
        self.fault_plan = fault_plan
        self.agent = agent
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

    def _pick(self, state: _ShardState) -> ShardNode | None:
        """The next untried live replica, walking on from the shard's cursor."""
        replicas = self.replica_sets[state.shard]
        with self.lock:
            cursor = self._cursors[state.shard]
            for offset in range(len(replicas)):
                node = replicas[(cursor + offset) % len(replicas)]
                if node.replica_index not in state.tried and node.alive:
                    self._cursors[state.shard] = (cursor + 1) % len(replicas)
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
        if plan is None or not plan.applies_to(self.agent):
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

    # -- scatter / gather ------------------------------------------------------

    def _launch(
        self,
        state: _ShardState,
        task_factory: Callable[[ShardNode], Callable[[], object]],
        as_hedge: bool = False,
        failover: bool = False,
    ) -> bool:
        """Try replicas until one accepts the task; ``False`` if none did.

        ``failover`` says the attempt replaces one that ended ``down``,
        ``refused`` or ``error`` -- true from the second replica this call
        tries, too.  An injected ``timeout`` marks the attempt a straggler
        instead: nothing is pending for it, so the *next* replica tried is
        by definition the hedge (not a failover) -- deterministic hedging
        without a wall-clock stall.
        """
        while True:
            node = self._pick(state)
            if node is None:
                return False
            state.tried.add(node.replica_index)
            state.attempts += 1
            if failover:
                with self.lock:
                    self.failovers += 1
            verdict = self._consult_plan(node)
            if verdict is None:
                attempt = node.try_submit(task_factory(node), on_done=state.reply)
                if attempt is not None:
                    state.hedged = as_hedge or state.hedged
                    state.pending[attempt] = state.hedged
                    with self.lock:
                        self.tasks += 1
                        if state.hedged:
                            self.hedges += 1
                    return True
                verdict = REASON_DOWN if not node.alive else REASON_REFUSED
            state.last_reason = verdict
            failover = verdict != REASON_STALLED
            if not failover:
                # The straggler never answers: every further attempt for
                # this shard is a hedged duplicate of it, not a failover.
                state.hedged = True

    def _fail(self, state: _ShardState, reason: str) -> ShardOutcome:
        for attempt in state.pending:
            attempt.cancel()
        if reason == REASON_DEADLINE:
            with self.lock:
                self.deadline_misses += 1
        return ShardOutcome(
            shard=state.shard,
            attempts=state.attempts,
            hedged=state.hedged,
            reason=reason,
        )

    def scatter(
        self, task_factory: Callable[[ShardNode], Callable[[], object]]
    ) -> list[ShardOutcome]:
        """Run ``task_factory(node)()`` once per shard; gather per-shard.

        Primaries for every shard are placed before the gather starts
        (true fan-out); one loop then takes replies in arrival order and
        hedges or fails over whichever shard needs it.  The returned list
        is ordered by shard index.
        """
        with self.lock:
            self.scatters += 1
        started = self._clock()
        deadline = started + self.deadline_seconds
        hedge_at = started + self.hedge_after_seconds  # never past the deadline
        replies: queue.SimpleQueue = queue.SimpleQueue()
        states = [_ShardState(shard, replies) for shard in range(len(self.replica_sets))]
        outcomes: list[ShardOutcome | None] = [None] * len(states)
        for state in states:
            if not self._launch(state, task_factory):
                outcomes[state.shard] = self._fail(state, state.last_reason or REASON_DOWN)
        unresolved = outcomes.count(None)
        while unresolved:
            now = self._clock()
            if now >= deadline:
                for state in states:
                    if outcomes[state.shard] is None:
                        outcomes[state.shard] = self._fail(state, REASON_DEADLINE)
                break
            if now < hedge_at:
                timeout = hedge_at - now
            else:
                timeout = deadline - now
                # A reply already waiting is taken first: its shard may be
                # about to resolve, and a duplicate for it would be wasted.
                if replies.empty():
                    for state in states:
                        # Still on its first attempt, so unresolved; ``_launch``
                        # places nothing if no untried live replica is left.
                        if len(state.pending) == 1 and not state.hedged:
                            self._launch(state, task_factory, as_hedge=True)
            try:
                state, attempt = replies.get(timeout=timeout)
            except queue.Empty:
                continue
            if outcomes[state.shard] is not None:
                continue  # a loser that was already running when cancelled
            is_hedge = state.pending.pop(attempt)
            if attempt.error is None:
                # First response wins; cancel the losers outright.
                for loser in state.pending:
                    loser.cancel()
                if is_hedge:
                    with self.lock:
                        self.hedge_wins += 1
                outcomes[state.shard] = ShardOutcome(
                    shard=state.shard,
                    value=attempt.value,
                    replica=attempt.node.name,
                    attempts=state.attempts,
                    hedged=state.hedged,
                    hedge_won=is_hedge,
                )
                unresolved -= 1
            else:
                state.last_reason = REASON_ERROR
                if not state.pending and not self._launch(
                    state, task_factory, failover=True
                ):
                    outcomes[state.shard] = self._fail(state, state.last_reason)
                    unresolved -= 1
        return outcomes
