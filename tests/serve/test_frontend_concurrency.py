"""Regression tests for the frontend's concurrency bugs.

Each test pins one fixed bug and fails on the pre-fix code:

* lazy pool creation raced outside the lock (two first replays each
  built a ThreadPoolExecutor; one leaked unshutdown);
* ``close()`` landing while the first replay built the pool left that
  pool, and its worker threads, running with nobody to shut it down;
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
        """Many threads racing the first replay must share one pool.

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
        frontend = QueryFrontend(engine, workers=2)
        expected = engine.search("toyota", k=2)
        racers = 16
        barrier = threading.Barrier(racers)
        replies: list[object] = []
        replies_lock = threading.Lock()

        def first_replay() -> None:
            barrier.wait(timeout=10)
            outcome = frontend.serve_workload(["toyota"], default_k=2)
            with replies_lock:
                replies.extend(outcome.results)

        threads = [threading.Thread(target=first_replay) for _ in range(racers)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(built) == 1, (
                f"{len(built)} thread pools were constructed by racing first "
                "replays; lazy creation must be serialized under the lock"
            )
            assert replies == [expected] * racers
        finally:
            frontend.close()
            for pool in built:  # pre-fix leftovers must not leak threads
                pool.shutdown(wait=False)

    def test_a_close_during_the_first_pool_build_leaks_no_thread(self, engine, monkeypatch):
        """A ``close()`` that lands while the first replay builds the pool
        either waits for the build and shuts the pool down, or comes first
        and the replay is refused: no worker thread outlives both calls.

        Pre-fix the closed check ran outside the lock and ``close()`` read
        the pool without it, so the close found no pool, returned, and the
        pool built after it was never shut down.
        """
        building = threading.Event()
        proceed = threading.Event()
        built: list[frontend_module.ThreadPoolExecutor] = []
        real_executor = frontend_module.ThreadPoolExecutor

        class HeldExecutor(real_executor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                building.set()
                assert proceed.wait(timeout=10)
                super().__init__(*args, **kwargs)

        def frontend_threads() -> set[threading.Thread]:
            return {t for t in threading.enumerate() if t.name.startswith("query-frontend")}

        monkeypatch.setattr(frontend_module, "ThreadPoolExecutor", HeldExecutor)
        before = frontend_threads()
        frontend = QueryFrontend(engine, workers=2)

        def replay() -> None:
            try:
                frontend.serve_workload(["toyota"], default_k=2)
            except RuntimeError:  # the close won the race: a refusal is fine
                pass

        replayer = threading.Thread(target=replay)
        closer = threading.Thread(target=frontend.close)
        try:
            replayer.start()
            assert building.wait(timeout=10)
            closer.start()
            closer.join(timeout=0.2)  # a close() that waits for the build is right
            proceed.set()
            replayer.join(timeout=10)
            closer.join(timeout=10)
            assert not replayer.is_alive() and not closer.is_alive()
            assert frontend.closed
            assert frontend_threads() - before == set(), (
                "a pool built beside close() was never shut down"
            )
        finally:
            proceed.set()
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


class TestWorkloadGathersAllFutures:
    def test_failure_mid_workload_gathers_every_future_then_reraises(self, engine):
        """One raising request must not abandon the rest of the replay.

        With one worker, the stream is ``first`` (gated), ``boom``
        (raises), ``last`` (gated).  Pre-fix, ``serve_workload`` raised as
        soon as it consumed ``boom``'s future -- while ``last`` was still
        in flight.  Post-fix it gathers every outcome first and re-raises
        once, so no future is left ungathered, and the pool serves on.
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

        frontend = QueryFrontend(GatedEngine(), workers=1)
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
        # The failed replay left the pool whole: the next one is served.
        outcome = frontend.serve_workload(["first", "last"], default_k=2)
        assert outcome.results == [engine.search(q, k=2) for q in ("first", "last")]
        frontend.close()
