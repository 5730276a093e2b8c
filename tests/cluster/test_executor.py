"""ScatterGatherExecutor: hedging, deadlines, failover, admission, routing.

Timing-sensitive behaviour is pinned without real stalls wherever
possible: injected ``timeout`` faults model stragglers deterministically
(the attempt never completes, so the next replica tried *is* the hedge),
and deadline misses are driven by a fake clock.  The wall-clock tests
(a genuinely slow primary being out-hedged, a shard stuck to its deadline
beside a sibling that needs a hedge or a failover) use events, not
sleeps, on the assertion path.
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
    REASON_REFUSED,
    ScatterGatherExecutor,
    ShardNode,
    replica_name,
)
from repro.resilience.faults import (
    KIND_ERROR,
    KIND_OUTAGE,
    KIND_TIMEOUT,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    ScriptedFaults,
)

DEADLINE = 10.0

ERROR = FaultDecision(kind=KIND_ERROR)
TIMEOUT = FaultDecision(kind=KIND_TIMEOUT)
OUTAGE = FaultDecision(kind=KIND_OUTAGE)


def build_nodes(shards: int, replicas: int, inflight_limit: int = 8):
    return [
        [
            ShardNode(shard, replica, inflight_limit=inflight_limit)
            for replica in range(replicas)
        ]
        for shard in range(shards)
    ]


def close_all(replica_sets) -> None:
    for replica_set in replica_sets:
        for node in replica_set:
            node.close()


def name_task(node: ShardNode):
    """Task factory whose result records which replica served it."""
    return lambda: node.name


class TestScatterBasics:
    def test_one_value_per_shard_in_order(self):
        nodes = build_nodes(4, 1)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        try:
            outcomes = executor.scatter(name_task)
            assert [o.shard for o in outcomes] == [0, 1, 2, 3]
            assert all(o.ok for o in outcomes)
            assert [o.value for o in outcomes] == [
                replica_name(shard, 0) for shard in range(4)
            ]
            assert executor.tasks == 4
        finally:
            close_all(nodes)

    def test_validation(self):
        nodes = build_nodes(1, 1)
        try:
            with pytest.raises(ValueError):
                ScatterGatherExecutor([])
            with pytest.raises(ValueError):
                ScatterGatherExecutor([[]])
            with pytest.raises(ValueError):
                ScatterGatherExecutor(nodes, deadline_seconds=0.0)
            with pytest.raises(ValueError):
                ScatterGatherExecutor(nodes, hedge_after_seconds=-1.0)
        finally:
            close_all(nodes)


class TestRouting:
    def test_round_robin_alternates_replicas(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        try:
            served = [executor.scatter(name_task)[0].value for _ in range(4)]
            assert served == [
                replica_name(0, 0),
                replica_name(0, 1),
                replica_name(0, 0),
                replica_name(0, 1),
            ]
        finally:
            close_all(nodes)


class TestFailover:
    def test_dead_primary_fails_over_to_live_replica(self):
        nodes = build_nodes(1, 2)
        nodes[0][0].kill()
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        try:
            for _ in range(3):
                outcome = executor.scatter(name_task)[0]
                assert outcome.ok and outcome.value == replica_name(0, 1)
            assert executor.failovers == 0  # dead node never tried
        finally:
            close_all(nodes)

    def test_all_replicas_dead_is_a_down_outcome(self):
        nodes = build_nodes(2, 2)
        for node in nodes[1]:
            node.kill()
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        try:
            outcomes = executor.scatter(name_task)
            assert outcomes[0].ok
            assert not outcomes[1].ok and outcomes[1].reason == REASON_DOWN
        finally:
            close_all(nodes)

    def test_raising_task_fails_over_then_errors_out(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)

        def task(node: ShardNode):
            def run():
                raise RuntimeError(f"boom on {node.name}")

            return run

        try:
            outcome = executor.scatter(task)[0]
            assert not outcome.ok and outcome.reason == REASON_ERROR
            assert outcome.attempts == 2  # both replicas were tried
            assert executor.failovers == 1
        finally:
            close_all(nodes)

    def test_raising_primary_recovers_on_replica(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)

        def task(node: ShardNode):
            def run():
                if node.replica_index == 0:
                    raise RuntimeError("primary down")
                return node.name

            return run

        try:
            outcome = executor.scatter(task)[0]
            assert outcome.ok and outcome.value == replica_name(0, 1)
            assert outcome.attempts == 2
        finally:
            close_all(nodes)


class TestAdmissionControl:
    def test_saturated_replica_refuses_and_fails_over(self):
        nodes = build_nodes(1, 2, inflight_limit=1)
        release = threading.Event()
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        try:
            blocked = nodes[0][0].try_submit(release.wait, DEADLINE)
            assert blocked is not None
            outcome = executor.scatter(name_task)[0]
            assert outcome.ok and outcome.value == replica_name(0, 1)
            release.set()
            assert nodes[0][0].refused == 1
        finally:
            release.set()
            close_all(nodes)

    def test_every_replica_saturated_is_a_refused_outcome(self):
        nodes = build_nodes(1, 2, inflight_limit=1)
        release = threading.Event()
        executor = ScatterGatherExecutor(nodes, deadline_seconds=DEADLINE)
        try:
            held = [node.try_submit(release.wait, DEADLINE) for node in nodes[0]]
            assert all(future is not None for future in held)
            outcome = executor.scatter(name_task)[0]
            assert not outcome.ok and outcome.reason == REASON_REFUSED
            release.set()
        finally:
            release.set()
            close_all(nodes)


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
            release.set()
        finally:
            release.set()
            close_all(nodes)


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
        try:
            outcome = executor.scatter(name_task)[0]
            assert outcome.ok and outcome.value == replica_name(0, 1)
            assert executor.injected == {KIND_OUTAGE: 1}
        finally:
            close_all(nodes)

    def test_injected_timeout_is_a_hedged_straggler(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(
            nodes,
            deadline_seconds=DEADLINE,
            fault_plan=self.plan({replica_name(0, 0): [TIMEOUT]}),
        )
        try:
            outcome = executor.scatter(name_task)[0]
            assert outcome.ok and outcome.value == replica_name(0, 1)
            assert outcome.hedged, "a stalled primary makes the retry a hedge"
            assert executor.hedges == 1
            assert executor.failovers == 0, "a hedge is not a replica failure"
            assert executor.injected == {KIND_TIMEOUT: 1}
        finally:
            close_all(nodes)

    def test_injected_error_on_every_replica_fails_the_shard(self):
        nodes = build_nodes(1, 2)
        executor = ScatterGatherExecutor(
            nodes,
            deadline_seconds=DEADLINE,
            fault_plan=self.plan(
                {replica_name(0, 0): [ERROR], replica_name(0, 1): [ERROR]}
            ),
        )
        try:
            outcome = executor.scatter(name_task)[0]
            assert not outcome.ok and outcome.reason == REASON_ERROR
            assert executor.injected == {KIND_ERROR: 2}
        finally:
            close_all(nodes)

    def test_ungoverned_agent_neither_faults_nor_consumes_indices(self):
        nodes = build_nodes(1, 1)
        plan = ScriptedFaults(
            {replica_name(0, 0): [OUTAGE, OUTAGE]}, agents=("virtual",)
        )
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, fault_plan=plan
        )
        try:
            for _ in range(3):
                assert executor.scatter(name_task)[0].ok
            assert nodes[0][0]._fault_index == 0
            assert executor.injected == {}
        finally:
            close_all(nodes)

    def test_outage_window_kills_then_revives_deterministically(self):
        nodes = build_nodes(1, 1)
        plan = FaultPlan(
            seed="window",
            hosts={replica_name(0, 0): FaultSpec(outages=((1, 3),))},
            agents=(AGENT_CLUSTER,),
        )
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, fault_plan=plan
        )
        try:
            results = [executor.scatter(name_task)[0].ok for _ in range(5)]
            assert results == [True, False, False, True, True]
        finally:
            close_all(nodes)


class TestWallClockHedge:
    def test_slow_primary_is_out_hedged(self):
        nodes = build_nodes(1, 2)
        release = threading.Event()
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, hedge_after_seconds=0.01
        )

        def task(node: ShardNode):
            def run():
                if node.replica_index == 0:
                    assert release.wait(DEADLINE)
                return node.name

            return run

        try:
            outcome = executor.scatter(task)[0]
            assert outcome.ok and outcome.value == replica_name(0, 1)
            assert outcome.hedged and outcome.hedge_won
            assert executor.hedges == 1 and executor.hedge_wins == 1
            assert executor.failovers == 0, "a hedge is not a replica failure"
            release.set()
        finally:
            release.set()
            close_all(nodes)


class TestStalledShardDoesNotStarveItsSiblings:
    """Shard 0 never answers; shard 1 must still get its hedge / failover.

    The deadline is real wall-clock here (shard 0 has to miss it), but the
    stall itself is an event and nothing on the assertion path sleeps.
    """

    DEADLINE_SECONDS = 0.3

    def test_sibling_is_hedged_while_an_earlier_shard_is_stuck(self):
        nodes = build_nodes(2, 2)
        release = threading.Event()
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=self.DEADLINE_SECONDS, hedge_after_seconds=0.01
        )

        def task(node: ShardNode):
            def run():
                if node.shard_index == 0 or node.replica_index == 0:
                    assert release.wait(DEADLINE)
                return node.name

            return run

        try:
            stuck, hedged = executor.scatter(task)
            assert not stuck.ok and stuck.reason == REASON_DEADLINE and stuck.hedged
            assert hedged.ok and hedged.value == replica_name(1, 1)
            assert hedged.hedged and hedged.hedge_won
            assert executor.hedges == 2 and executor.hedge_wins == 1
            assert executor.deadline_misses == 1 and executor.failovers == 0
        finally:
            release.set()
            close_all(nodes)

    def test_sibling_fails_over_while_an_earlier_shard_is_stuck(self):
        nodes = build_nodes(2, 2)
        release = threading.Event()
        # No hedging in this one: the window is the whole deadline.
        executor = ScatterGatherExecutor(
            nodes,
            deadline_seconds=self.DEADLINE_SECONDS,
            hedge_after_seconds=self.DEADLINE_SECONDS,
        )

        def task(node: ShardNode):
            def run():
                if node.shard_index == 0:
                    assert release.wait(DEADLINE)
                elif node.replica_index == 0:
                    raise RuntimeError("primary down")
                return node.name

            return run

        try:
            stuck, recovered = executor.scatter(task)
            assert not stuck.ok and stuck.reason == REASON_DEADLINE
            assert recovered.ok and recovered.value == replica_name(1, 1)
            assert recovered.attempts == 2 and not recovered.hedged
            assert executor.failovers == 1 and executor.hedges == 0
        finally:
            release.set()
            close_all(nodes)


class TestConcurrentScatters:
    def test_replies_never_cross_scatters(self):
        """Client threads sharing one executor each gather their own values.

        More clients than cores and a shortened switch interval, so worker
        replies of different scatters interleave as finely as they can.
        """
        clients, rounds, shards = 6, 150, 4
        nodes = build_nodes(shards, 2, inflight_limit=clients)
        # Hedge window = deadline: a slow box must not add duplicate tasks.
        executor = ScatterGatherExecutor(
            nodes, deadline_seconds=DEADLINE, hedge_after_seconds=DEADLINE
        )
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
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert executor.scatters == clients * rounds
            assert executor.tasks == clients * rounds * shards
            assert all(node._inflight == 0 for replica_set in nodes for node in replica_set)
        finally:
            sys.setswitchinterval(interval)
            close_all(nodes)
