"""ScatterGatherExecutor: hedging, deadlines, failover, routing.

The executor walks the shards in the calling thread, so everything here
is deterministic: injected ``timeout`` faults model stragglers (the
attempt never answers, so the next replica tried *is* the hedge) and
deadline misses are driven by a fake clock.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import (
    AGENT_CLUSTER,
    REASON_DEADLINE,
    REASON_DOWN,
    REASON_ERROR,
    REASON_STALLED,
    ScatterGatherExecutor,
    ShardNode,
    replica_name,
)
from repro.resilience.faults import (
    KIND_ERROR,
    KIND_OUTAGE,
    KIND_TIMEOUT,
    DECISION_OK,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    ScriptedFaults,
)

DEADLINE = 10.0

ERROR = FaultDecision(kind=KIND_ERROR)
TIMEOUT = FaultDecision(kind=KIND_TIMEOUT)
OUTAGE = FaultDecision(kind=KIND_OUTAGE)


def build_nodes(shards: int, replicas: int):
    return [[ShardNode(shard, replica) for replica in range(replicas)] for shard in range(shards)]


def name_task(node: ShardNode):
    """Task factory whose result records which replica served it."""
    return lambda: node.name


class TestScatterBasics:
    def test_one_value_per_shard_in_order(self):
        nodes = build_nodes(4, 1)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        outcomes = executor.scatter(name_task)
        assert [o.shard for o in outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [replica_name(shard, 0) for shard in range(4)]
        assert executor.tasks == 4

    def test_every_task_runs_in_the_calling_thread(self):
        nodes = build_nodes(4, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        for _ in range(2):  # both replicas of every shard
            outcomes = executor.scatter(lambda node: threading.get_ident)
            assert [o.value for o in outcomes] == [threading.get_ident()] * 4

    def test_validation(self):
        nodes = build_nodes(1, 1)
        with pytest.raises(ValueError):
            ScatterGatherExecutor([])
        with pytest.raises(ValueError):
            ScatterGatherExecutor([[]])
        with pytest.raises(ValueError):
            ScatterGatherExecutor(nodes, deadline_seconds=0.0)


class TestRouting:
    def test_round_robin_alternates_replicas(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        served = [executor.scatter(name_task)[0].value for _ in range(4)]
        assert served == [
            replica_name(0, 0),
            replica_name(0, 1),
            replica_name(0, 0),
            replica_name(0, 1),
        ]

    def test_tasks_served_counts_only_attempts_that_ran(self):
        """A dead replica is never charged; a raising task is, since it ran."""
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        for _ in range(4):
            executor.scatter(name_task)
        assert [node.tasks_served for node in nodes[0]] == [2, 2]
        nodes[0][0].kill()
        for _ in range(3):
            executor.scatter(name_task)
        assert [node.tasks_served for node in nodes[0]] == [2, 5]

        def raising(node: ShardNode):
            def run():
                raise RuntimeError(f"boom on {node.name}")

            return run

        nodes[0][0].revive()
        assert not executor.scatter(raising)[0].ok
        assert [node.tasks_served for node in nodes[0]] == [3, 6]
        assert executor.tasks == sum(node.tasks_served for node in nodes[0]) == 9


class KillOnConsult:
    """A fault-plan duck type that kills the replica it is consulted
    about and lets the attempt run: the kill lands after ``_pick`` chose
    the replica but before its task starts."""

    def __init__(self, victim: ShardNode) -> None:
        self.victim = victim

    def applies_to(self, agent: str) -> bool:
        return agent == AGENT_CLUSTER

    def decide(self, name: str, index: int) -> FaultDecision:
        if name == self.victim.name:
            self.victim.kill()
        return DECISION_OK


class TestFailover:
    def test_a_replica_killed_after_pick_fails_over_as_down(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, fault_plan=KillOnConsult(nodes[0][0])
        )
        outcome = executor.scatter(name_task)[0]
        assert outcome.ok and outcome.value == replica_name(0, 1)
        assert outcome.attempts == 2 and executor.failovers == 1
        assert [node.tasks_served for node in nodes[0]] == [0, 1]

    def test_a_shard_whose_last_replica_dies_after_pick_is_down(self):
        nodes = build_nodes(1, 1)
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, fault_plan=KillOnConsult(nodes[0][0])
        )
        outcome = executor.scatter(name_task)[0]
        assert not outcome.ok and outcome.reason == REASON_DOWN
        assert outcome.attempts == 1
        assert executor.tasks == 0 and nodes[0][0].tasks_served == 0

    def test_dead_primary_fails_over_to_live_replica(self):
        nodes = build_nodes(1, 2)
        nodes[0][0].kill()
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        for _ in range(3):
            outcome = executor.scatter(name_task)[0]
            assert outcome.ok and outcome.value == replica_name(0, 1)
        assert executor.failovers == 0  # dead node never tried

    def test_all_replicas_dead_is_a_down_outcome(self):
        nodes = build_nodes(2, 2)
        for node in nodes[1]:
            node.kill()
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        outcomes = executor.scatter(name_task)
        assert outcomes[0].ok
        assert not outcomes[1].ok and outcomes[1].reason == REASON_DOWN

    def test_raising_task_fails_over_then_errors_out(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)

        def task(node: ShardNode):
            def run():
                raise RuntimeError(f"boom on {node.name}")

            return run

        outcome = executor.scatter(task)[0]
        assert not outcome.ok and outcome.reason == REASON_ERROR
        assert outcome.attempts == 2  # both replicas were tried
        assert executor.failovers == 1

    def test_raising_primary_recovers_on_replica(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        raised = []

        def task(node: ShardNode):
            def run():
                if node.replica_index == 0 and not raised:
                    raised.append(node.name)
                    raise RuntimeError("primary down")
                return node.name

            return run

        outcome = executor.scatter(task)[0]
        assert outcome.ok and outcome.value == replica_name(0, 1)
        assert outcome.attempts == 2 and executor.failovers == 1
        # The raising task leaves replica 0 in the rotation: it serves on.
        assert [executor.scatter(task)[0].value for _ in range(2)] == [
            replica_name(0, 0),
            replica_name(0, 1),
        ]
        assert raised == [replica_name(0, 0)]


class TestDeadlines:
    def test_deadline_miss_drops_the_shard(self):
        nodes = build_nodes(2, 1)
        release = threading.Event()
        # A fake clock: the scatter starts at t=0 and every later reading
        # is past the deadline, so the blocked shard is dropped without a
        # wall-clock wait.
        readings = iter([0.0])
        clock = lambda: next(readings, 99.0)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=1.0, clock=clock)

        def task(node: ShardNode):
            if node.shard_index == 1:
                return lambda: release.wait(DEADLINE)
            return lambda: node.name

        try:
            outcomes = executor.scatter(task)
            assert not outcomes[0].ok and outcomes[0].reason == REASON_DEADLINE
            assert not outcomes[1].ok and outcomes[1].reason == REASON_DEADLINE
            assert executor.deadline_misses == 2
        finally:
            release.set()

    @pytest.mark.parametrize("slow", [0, 1, 2, 3])
    def test_the_shard_that_runs_late_is_kept_and_later_ones_dropped(self, slow):
        """The slow shard's task moves the clock past the deadline: it is
        never interrupted, so it answers; every later shard's turn comes
        too late."""
        nodes = build_nodes(4, 1)
        now = [0.0]
        executor = ScatterGatherExecutor(nodes, deadline_seconds=1.0, clock=lambda: now[0])

        def task(node: ShardNode):
            def run():
                if node.shard_index == slow:
                    now[0] = 5.0
                return node.name

            return run

        outcomes = executor.scatter(task)
        assert [o.ok for o in outcomes] == [shard <= slow for shard in range(4)]
        assert [o.value for o in outcomes[: slow + 1]] == [
            replica_name(shard, 0) for shard in range(slow + 1)
        ]
        assert all(o.reason == REASON_DEADLINE for o in outcomes[slow + 1 :])
        assert executor.deadline_misses == 3 - slow and executor.tasks == slow + 1


class TestInjectedFaults:
    def plan(self, script):
        return ScriptedFaults(script, agents=(AGENT_CLUSTER,))

    def test_injected_outage_fails_over(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(
            nodes,
            deadline_seconds=DEADLINE,
            fault_plan=self.plan({replica_name(0, 0): [OUTAGE]}),
        )
        outcome = executor.scatter(name_task)[0]
        assert outcome.ok and outcome.value == replica_name(0, 1)
        assert executor.injected == {KIND_OUTAGE: 1}

    def test_injected_timeout_is_a_hedged_straggler(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(
            nodes,
            deadline_seconds=DEADLINE,
            fault_plan=self.plan({replica_name(0, 0): [TIMEOUT]}),
        )
        outcome = executor.scatter(name_task)[0]
        assert outcome.ok and outcome.value == replica_name(0, 1)
        assert outcome.hedged, "a stalled primary makes the retry a hedge"
        assert executor.hedges == 1 and executor.hedge_wins == 1
        assert executor.failovers == 0, "a hedge is not a replica failure"
        assert executor.injected == {KIND_TIMEOUT: 1}

    def test_injected_error_on_every_replica_fails_the_shard(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(
            nodes,
            deadline_seconds=DEADLINE,
            fault_plan=self.plan(
                {replica_name(0, 0): [ERROR], replica_name(0, 1): [ERROR]}
            ),
        )
        outcome = executor.scatter(name_task)[0]
        assert not outcome.ok and outcome.reason == REASON_ERROR
        assert executor.injected == {KIND_ERROR: 2}

    #: Verdicts for replicas 0, 1, 2 of one shard (``None`` = answers) ->
    #: (reason, hedged, hedges, hedge_wins, failovers).  A failover is an
    #: attempt that replaces a ``down`` or ``error`` one; an attempt after
    #: a straggler is a hedge, counted only when it runs.
    SEQUENCES = {
        "stall-error-answer": ((TIMEOUT, ERROR, None), (None, True, 1, 1, 1)),
        "outage-stall-answer": ((OUTAGE, TIMEOUT, None), (None, True, 1, 1, 1)),
        "error-stall-answer": ((ERROR, TIMEOUT, None), (None, True, 1, 1, 1)),
        "stall-stall-answer": ((TIMEOUT, TIMEOUT, None), (None, True, 1, 1, 0)),
        "stall-everywhere": ((TIMEOUT, TIMEOUT, TIMEOUT), (REASON_STALLED, True, 0, 0, 0)),
        "error-outage-answer": ((ERROR, OUTAGE, None), (None, False, 0, 0, 2)),
        "outage-everywhere": ((OUTAGE, OUTAGE, OUTAGE), (REASON_DOWN, False, 0, 0, 2)),
    }

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_fault_sequences_count_hedges_and_failovers(self, name):
        verdicts, expected = self.SEQUENCES[name]
        nodes = build_nodes(1, 3)
        script = {
            replica_name(0, replica): [verdict]
            for replica, verdict in enumerate(verdicts)
            if verdict is not None
        }
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, fault_plan=self.plan(script)
        )
        outcome = executor.scatter(name_task)[0]
        assert outcome.attempts == 3
        assert outcome.value == (replica_name(0, 2) if outcome.ok else None)
        assert (
            outcome.reason,
            outcome.hedged,
            executor.hedges,
            executor.hedge_wins,
            executor.failovers,
        ) == expected
        assert executor.tasks == (1 if outcome.ok else 0)

    def test_ungoverned_agent_neither_faults_nor_consumes_indices(self):
        nodes = build_nodes(1, 1)
        plan = ScriptedFaults({replica_name(0, 0): [OUTAGE, OUTAGE]}, agents=("virtual",))
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE, fault_plan=plan)
        for _ in range(3):
            assert executor.scatter(name_task)[0].ok
        assert nodes[0][0]._fault_index == 0
        assert executor.injected == {}

    def test_outage_window_kills_then_revives_deterministically(self):
        nodes = build_nodes(1, 1)
        plan = FaultPlan(
            seed="window",
            hosts={replica_name(0, 0): FaultSpec(outages=((1, 3),))},
            agents=(AGENT_CLUSTER,),
        )
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE, fault_plan=plan)
        results = [executor.scatter(name_task)[0].ok for _ in range(5)]
        assert results == [True, False, False, True, True]


class TestConcurrentScatters:
    def test_replies_never_cross_scatters(self):
        """Client threads sharing one executor each gather their own values.

        More clients than cores and a shortened switch interval, so the
        scatters of different clients interleave as finely as they can.
        """
        clients, rounds, shards = 6, 150, 4
        nodes = build_nodes(shards, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        wrong: list[object] = []

        def client(tag: int) -> None:
            expected = [(tag, shard) for shard in range(shards)]
            for _ in range(rounds):
                outcomes = executor.scatter(lambda node: lambda: (tag, node.shard_index))
                if [outcome.value for outcome in outcomes] != expected:
                    wrong.append((tag, outcomes))

        threads = [threading.Thread(target=client, args=(tag,)) for tag in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert executor.scatters == clients * rounds
        assert executor.tasks == clients * rounds * shards
        served = [node.tasks_served for replica_set in nodes for node in replica_set]
        assert sum(served) == executor.tasks
