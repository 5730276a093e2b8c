"""ShardNode's mailbox worker and the ``Attempt`` it hands back.

The contract the scatter-gather executor builds on: an accepted attempt
is settled exactly once whatever happens to it (ran, raised, cancelled
in the inbox), settling returns its admission slot, and the worker is a
daemon thread that ``close()`` joins and a later submit restarts.  Every
wait in here is on an event or carries a timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cluster import ShardNode

WAIT = 10.0
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def node():
    shard_node = ShardNode(0, 0, inflight_limit=1)
    yield shard_node
    shard_node.close()


def hold(started: threading.Event, release: threading.Event):
    """A task that says it is running, then occupies the worker until released."""

    def run():
        started.set()
        return release.wait(WAIT)

    return run


def worker_threads(node: ShardNode) -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread.name == node.name]


class TestAttempt:
    def test_cancelled_in_the_inbox_never_runs_but_settles_and_frees_its_slot(self):
        node = ShardNode(0, 0, inflight_limit=2)
        started, release = threading.Event(), threading.Event()
        ran, settled = [], []
        try:
            first = node.try_submit(hold(started, release))
            assert started.wait(WAIT), "the worker never picked the first attempt up"
            queued = node.try_submit(ran.append, "ran", on_done=settled.append)
            assert node._inflight == 2
            queued.cancel()
            release.set()
            assert first.result(timeout=WAIT) is True
            assert queued.result(timeout=WAIT) is None
            node.close()  # joins the worker: on_done has been called by now
            assert ran == [] and settled == [queued] and queued.cancelled
            assert node._inflight == 0
            # Both slots are back: the limit of 2 admits two more.
            assert all(node.try_submit(int) is not None for _ in range(2))
        finally:
            release.set()
            node.close()

    def test_node_at_its_limit_refuses_until_the_running_attempt_settles(self, node):
        started, release = threading.Event(), threading.Event()
        try:
            node.try_submit(hold(started, release))
            assert started.wait(WAIT)
            assert node.try_submit(int) is None and node.refused == 1  # limit is 1
            release.set()
            node.close()
            assert node._inflight == 0
            accepted = node.try_submit(int)
            assert accepted is not None and accepted.result(timeout=WAIT) == 0
        finally:
            release.set()

    def test_raising_fn_surfaces_from_result_and_the_worker_survives(self, node):
        def boom():
            raise RuntimeError("boom")

        failed = node.try_submit(boom)
        with pytest.raises(RuntimeError, match="boom"):
            failed.result(timeout=WAIT)
        with pytest.raises(RuntimeError, match="boom"):
            failed.result(timeout=WAIT)  # settled stays settled
        # The slot came back (the limit is 1) and the same worker serves on.
        (worker,) = worker_threads(node)
        following = node.try_submit(lambda: threading.current_thread())
        assert following is not None and following.result(timeout=WAIT) is worker
        node.close()
        assert node._inflight == 0

    def test_result_times_out_on_an_unsettled_attempt(self, node):
        release = threading.Event()
        try:
            blocked = node.try_submit(release.wait, WAIT)
            with pytest.raises(TimeoutError):
                blocked.result(timeout=0.01)
            release.set()
            assert blocked.result(timeout=WAIT) is True
        finally:
            release.set()

    def test_on_done_runs_on_the_worker_after_the_slot_is_back(self, node):
        seen = []

        def on_done(attempt):
            seen.append((threading.current_thread().name, node._inflight, attempt.value))

        attempt = node.try_submit(lambda: 7, on_done=on_done)
        node.close()
        assert attempt.result(timeout=WAIT) == 7
        assert seen == [(node.name, 0, 7)]


class TestWorkerLifecycle:
    def test_worker_starts_lazily_and_close_joins_it(self, node):
        assert worker_threads(node) == []
        assert node.try_submit(int).result(timeout=WAIT) == 0
        (worker,) = worker_threads(node)
        assert worker.daemon
        node.close()
        assert not worker.is_alive() and worker_threads(node) == []
        node.close()  # idempotent

    def test_submit_after_close_restarts_the_worker(self, node):
        assert node.try_submit(int).result(timeout=WAIT) == 0
        node.close()
        assert node.try_submit(lambda: 5).result(timeout=WAIT) == 5
        assert len(worker_threads(node)) == 1
        node.close()
        assert worker_threads(node) == []

    def test_close_drains_what_the_inbox_already_holds(self):
        node = ShardNode(0, 0, inflight_limit=8)
        attempts = [node.try_submit(lambda i=i: i * i) for i in range(8)]
        node.close()
        assert [attempt.result(timeout=0) for attempt in attempts] == [
            i * i for i in range(8)
        ]

    def test_interpreter_exits_without_close(self):
        """A node thread parked on its inbox must not keep the process alive."""
        script = (
            "from repro.cluster import ClusterBackend\n"
            "from repro.store.records import IngestRecord\n"
            "backend = ClusterBackend(shard_count=2, replicas=2)\n"
            "backend.add(IngestRecord(url='http://h.test/1', host='h.test', title='t',\n"
            "                         text='red car', tokens=['red', 'car'], source='surface'))\n"
            "assert len(backend.search(['car'])) == 1\n"
            "print('searched')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,  # a hang raises TimeoutExpired
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "searched"
