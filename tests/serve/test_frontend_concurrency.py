"""Regression tests for the frontend's concurrency bugs (PR 9).

Each test pins one fixed bug and fails on the pre-fix code:

* lazy pool creation raced outside the lock (two first-submitters each
  built a ThreadPoolExecutor; one leaked unshutdown);
* ``serve_workload`` computed its stats from frontend-global counter
  deltas, so concurrent direct ``serve()`` traffic polluted a workload's
  reported served/hit-rate;
* the first ``future.result()`` that raised propagated immediately,
  abandoning the remaining futures ungathered.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.serve.frontend as frontend_module
from repro.search.engine import SearchEngine
from repro.serve.frontend import QueryFrontend
from repro.store.records import IngestRecord
from repro.util.text import tokenize


def record(doc_id: int, text: str) -> IngestRecord:
    return IngestRecord(
        url=f"http://site.example.com/{doc_id}",
        host="site.example.com",
        title=f"doc {doc_id}",
        text=text,
        tokens=tokenize(text),
        source="surface",
    )


@pytest.fixture
def engine() -> SearchEngine:
    engine = SearchEngine()
    engine.ingest_records(
        [
            record(1, "red toyota camry excellent condition"),
            record(2, "blue honda civic low mileage"),
            record(3, "red ford mustang convertible"),
            record(4, "toyota corolla reliable commuter"),
        ]
    )
    return engine


class TestLazyPoolCreationRace:
    def test_racing_first_submits_build_exactly_one_pool(self, engine, monkeypatch):
        """Many threads racing the first submit must share one pool.

        The instrumented executor stalls inside ``__init__`` to hold the
        ``_pool is None`` window wide open: without the lock around lazy
        creation, several racers construct a pool each and all but the
        last-assigned one leak unshutdown.
        """
        built: list[frontend_module.ThreadPoolExecutor] = []
        build_lock = threading.Lock()
        real_executor = frontend_module.ThreadPoolExecutor

        class CountingExecutor(real_executor):
            def __init__(self, *args, **kwargs):
                with build_lock:
                    built.append(self)
                time.sleep(0.05)  # widen the race window deterministically
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(frontend_module, "ThreadPoolExecutor", CountingExecutor)
        frontend = QueryFrontend(engine, workers=2, queue_limit=64)
        expected = engine.search("toyota", k=2)
        racers = 16
        barrier = threading.Barrier(racers)
        futures: list[object] = []
        futures_lock = threading.Lock()

        def first_submit() -> None:
            barrier.wait(timeout=10)
            future = frontend.submit("toyota", k=2)
            with futures_lock:
                futures.append(future)

        threads = [threading.Thread(target=first_submit) for _ in range(racers)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(built) == 1, (
                f"{len(built)} thread pools were constructed by racing first "
                "submits; lazy creation must be serialized under the lock"
            )
            for future in futures:
                assert future is not None
                assert future.result(timeout=10) == expected
        finally:
            frontend.close()
            for pool in built:  # pre-fix leftovers must not leak threads
                pool.shutdown(wait=False)


class TestWorkloadLocalStats:
    def test_background_serves_do_not_pollute_workload_stats(self, engine):
        """A workload's stats must count only the workload's own requests.

        While the replay is in flight a background thread serves directly
        through the same frontend (one miss + one hit).  Pre-fix the
        workload stats were deltas of the frontend-global counters, so
        those background requests inflated served and the hit rate.
        """
        entered_trigger = threading.Event()
        background_done = threading.Event()

        class InterleavingEngine:
            ingestor = engine.ingestor
            backend = engine.backend

            def search(self, query, k=10):
                if query == "trigger":
                    entered_trigger.set()
                    assert background_done.wait(timeout=10)
                return engine.search(query, k=k)

        frontend = QueryFrontend(InterleavingEngine(), workers=1)

        def background_traffic() -> None:
            assert entered_trigger.wait(timeout=10)
            frontend.serve("background noise", k=2)  # miss
            frontend.serve("background noise", k=2)  # hit
            background_done.set()

        thread = threading.Thread(target=background_traffic)
        thread.start()
        try:
            outcome = frontend.serve_workload(
                ["trigger", "red camry", "blue civic"], default_k=2
            )
        finally:
            thread.join(timeout=10)
            frontend.close()
        stats = outcome.stats
        assert stats.served == 3, "background serves leaked into workload stats"
        assert stats.cache_misses == 3
        assert stats.cache_hits == 0, "background cache hit leaked into workload stats"
        assert stats.shed == 0
        # The frontend-global counters still see all five requests.
        assert frontend._served == 5

    def test_workload_sheds_are_counted_locally(self, engine):
        """Shed counts come from the workload's own refused admissions."""
        release = threading.Event()
        entered = threading.Event()

        class BlockingEngine:
            ingestor = engine.ingestor
            backend = engine.backend

            def search(self, query, k=10):
                entered.set()
                release.wait(timeout=10)
                return engine.search(query, k=k)

        frontend = QueryFrontend(BlockingEngine(), workers=1, queue_limit=2)
        try:
            # Inflate the global shed counter before the workload runs.
            blocked = frontend.submit("toyota", k=2)
            assert blocked is not None and entered.wait(timeout=10)
            queued = frontend.submit("corolla", k=2)  # occupies the last slot
            assert queued is not None
            assert frontend.submit("honda", k=2) is None  # global shed += 1
            release.set()
            assert blocked.result(timeout=10) is not None
            assert queued.result(timeout=10) is not None
            outcome = frontend.serve_workload(
                ["red camry", "blue civic"], default_k=2, shed_on_overload=True
            )
            assert outcome.stats.shed == 0, (
                "pre-workload sheds must not leak into the workload's stats"
            )
            assert frontend.stats().shed == 1
        finally:
            release.set()
            frontend.close()


class TestWorkloadGathersAllFutures:
    def test_failure_mid_workload_gathers_every_future_then_reraises(self, engine):
        """One raising request must not abandon the rest of the replay.

        With one worker, the stream is ``first`` (gated), ``boom``
        (raises), ``last`` (gated).  Pre-fix, ``serve_workload`` raised as
        soon as it consumed ``boom``'s future -- while ``last`` was still
        in flight.  Post-fix it gathers every outcome first and re-raises
        once, so no future is left ungathered and every admission slot has
        drained by the time the caller sees the error.
        """
        release_first = threading.Event()
        release_last = threading.Event()
        entered_first = threading.Event()
        entered_last = threading.Event()

        class GatedEngine:
            ingestor = engine.ingestor
            backend = engine.backend

            def search(self, query, k=10):
                if query == "first":
                    entered_first.set()
                    assert release_first.wait(timeout=10)
                elif query == "boom":
                    raise ValueError("boom")
                elif query == "last":
                    entered_last.set()
                    assert release_last.wait(timeout=10)
                return engine.search(query, k=k)

        frontend = QueryFrontend(GatedEngine(), workers=1, queue_limit=4)
        finished = threading.Event()
        caught: list[BaseException] = []

        def run_workload() -> None:
            try:
                frontend.serve_workload(["first", "boom", "last"], default_k=2)
            except BaseException as error:
                caught.append(error)
            finally:
                finished.set()

        thread = threading.Thread(target=run_workload)
        thread.start()
        try:
            assert entered_first.wait(timeout=10)
            release_first.set()
            # The worker consumes "boom" (its future now holds the error)
            # and moves on to "last", which blocks on its gate.
            assert entered_last.wait(timeout=10)
            assert not finished.wait(timeout=0.5), (
                "serve_workload raised while a request was still in flight; "
                "it must gather every future before re-raising"
            )
            release_last.set()
            assert finished.wait(timeout=10)
        finally:
            release_first.set()
            release_last.set()
            thread.join(timeout=10)
        assert len(caught) == 1 and isinstance(caught[0], ValueError)
        assert str(caught[0]) == "boom"
        # Every admission slot drained (done-callbacks may trail result()
        # by an instant, so poll briefly before judging).
        deadline = time.time() + 5.0
        while time.time() < deadline:
            held = 0
            for _ in range(frontend.queue_limit):
                if frontend._slots.acquire(blocking=False):
                    held += 1
                else:
                    break
            for _ in range(held):
                frontend._slots.release()
            if held == frontend.queue_limit:
                break
        else:
            pytest.fail("admission slots were leaked by the failed workload")
        frontend.close()
