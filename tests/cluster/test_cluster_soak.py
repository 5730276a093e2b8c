"""Kill/revive soak: the cluster behind the facade, under chaos.

Two identical services over the same seeded world -- one on the default
in-memory store, one on the cluster tier with a seeded replica fault
plan.  ``compare_degraded`` replays a planned workload on both and
asserts the PR 7 invariant mechanically: zero wrong answers, only
degraded subsets (surviving hits keep exact scores), with the shard that
lost every replica coming back mid-soak via its outage window.
"""

from __future__ import annotations

import pytest

from repro.api import DeepWebService, SurfacingConfig, WebConfig
from repro.cluster import AGENT_CLUSTER, ClusterBackend, replica_name
from repro.resilience.chaos import compare_degraded
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve.loadgen import WorkloadGenerator

WEB = WebConfig(total_deep_sites=3, surface_site_count=1, max_records=60, seed=13)
SURFACING = SurfacingConfig(max_urls_per_form=60)
#: Semantics, not timing: nothing in the soak should ever miss this.
DEADLINE = 10.0


def build_clean() -> DeepWebService:
    service = DeepWebService.build().web(WEB).surfacing(SURFACING).create()
    service.surface()
    return service


def build_clustered(fault_plan=None, replicas: int = 2) -> DeepWebService:
    service = (
        DeepWebService.build()
        .web(WEB)
        .surfacing(SURFACING)
        .store(
            ClusterBackend(
                shard_count=4,
                replicas=replicas,
                deadline_seconds=DEADLINE,
                fault_plan=fault_plan,
            )
        )
        .create()
    )
    service.surface()
    return service


@pytest.fixture(scope="module")
def clean_service() -> DeepWebService:
    return build_clean()


def workload_plans(service: DeepWebService, count: int = 24):
    generator = WorkloadGenerator(service.web, seed="cluster-soak")
    return [service.planner.plan(q.text, k=10) for q in generator.stream(count, k=10)]


class TestCleanClusterBehindFacade:
    def test_search_identical_to_memory_backend(self, clean_service):
        faulted = build_clustered()
        try:
            for query in ("used car", "red toyota", "apartment", ""):
                assert faulted.search(query, k=10) == clean_service.search(query, k=10)
            stats = faulted.cluster_stats()
            assert stats is not None and stats.degraded_searches == 0
            assert clean_service.cluster_stats() is None
        finally:
            faulted.store.close()

    def test_report_carries_cluster_section(self):
        service = build_clustered()
        try:
            service.search("used car", k=5)
            report = service.report()
            # The report holds the cluster's own snapshot, not a copy of
            # some of its fields, and renders it once, with its own lines.
            assert report.cluster == service.cluster_stats()
            assert report.cluster.shard_count == 4 and report.cluster.replicas == 2
            assert report.cluster.scatters >= 1
            lines = report.lines()
            assert [line for line in lines if line.startswith("cluster")] == (
                report.cluster.lines()
            )
            header = f"cluster: 4 x 2 replicas, {len(service.store)} documents"
            assert lines.count(header) == 1
        finally:
            service.store.close()


    def test_degraded_result_is_served_but_not_cached(self):
        """A search that lost a shard is answered but never stored."""
        service = build_clustered(replicas=1)
        frontend = service.frontend

        def serve():
            """``(results, whether the cache answered)``"""
            hits_before = frontend.cache.hits
            results = frontend.serve("used car", k=40)
            return results, frontend.cache.hits > hits_before

        try:
            healthy = service.search("used car", k=40)
            service.store.kill(replica_name(1, 0))
            shrunken, _ = serve()
            assert 0 < len(shrunken) < len(healthy)
            assert len(frontend.cache) == 0, "a degraded answer must not be stored"
            service.store.revive(replica_name(1, 0))
            assert serve() == (healthy, False)  # recomputed after revival
            assert serve() == (healthy, True)  # healthy ones are cached
        finally:
            service.store.close()


class TestKillReviveSoak:
    def test_replica_outages_with_failover_stay_byte_identical(self, clean_service):
        """Killing one replica per shard never degrades anything."""
        plan = FaultPlan(
            seed="soak/failover",
            hosts={
                replica_name(shard, 0): FaultSpec(outages=((0, 6),))
                for shard in range(4)
            },
            agents=(AGENT_CLUSTER,),
        )
        faulted = build_clustered(fault_plan=plan)
        try:
            comparison = compare_degraded(
                clean_service, faulted, workload_plans(clean_service)
            )
            assert comparison.ok, comparison.violations
            assert comparison.degraded_plans == 0
            assert faulted.cluster_stats().injected.get("outage", 0) > 0
        finally:
            faulted.store.close()

    def test_whole_shard_outage_degrades_then_recovers(self, clean_service):
        """Both replicas of one shard die mid-soak, then revive.

        While the windows overlap the shard's documents drop out --
        degraded subsets with exact scores, asserted by
        ``compare_degraded``'s widened-universe check -- and once the
        windows close the soak is byte-identical again.  Zero wrong
        answers throughout.
        """
        window = (0, 8)
        plan = FaultPlan(
            seed="soak/shard-loss",
            hosts={
                replica_name(1, 0): FaultSpec(outages=(window,)),
                replica_name(1, 1): FaultSpec(outages=(window,)),
            },
            agents=(AGENT_CLUSTER,),
        )
        faulted = build_clustered(fault_plan=plan)
        try:
            comparison = compare_degraded(
                clean_service, faulted, workload_plans(clean_service, count=30)
            )
            assert comparison.ok, comparison.violations
            assert comparison.degraded_plans > 0, "the outage window must bite"
            stats = faulted.cluster_stats()
            # Each soak search consumes one outage index per shard-1 replica,
            # so exactly the window's worth of searches lost the shard; only
            # those whose top-k actually changed count as degraded *plans*.
            assert stats.degraded_searches == window[1] - window[0]
            assert stats.degraded_searches >= comparison.degraded_plans
            # The window closed mid-soak: later scatters served cleanly.
            assert stats.scatters > stats.degraded_searches
        finally:
            faulted.store.close()

    def test_seeded_replica_schedule_is_replayable(self, clean_service):
        """The loadgen schedule yields identical soaks for identical seeds."""
        outcomes = []
        for _ in range(2):
            generator = WorkloadGenerator(clean_service.web, seed="soak-sched")
            plan = generator.replica_fault_schedule(
                shard_count=4, replicas=2, kill=3, outage_window=(0, 5)
            )
            faulted = build_clustered(fault_plan=plan)
            try:
                comparison = compare_degraded(
                    clean_service, faulted, workload_plans(clean_service)
                )
                assert comparison.ok, comparison.violations
                stats = faulted.cluster_stats()
                outcomes.append(
                    (
                        comparison.degraded_plans,
                        comparison.faulted_hits,
                        stats.injected,
                        stats.degraded_searches,
                    )
                )
            finally:
                faulted.store.close()
        assert outcomes[0] == outcomes[1]

    def test_schedule_validation(self, clean_service):
        generator = WorkloadGenerator(clean_service.web, seed="x")
        with pytest.raises(ValueError):
            generator.replica_fault_schedule(shard_count=0, replicas=1)
        with pytest.raises(ValueError):
            generator.replica_fault_schedule(shard_count=2, replicas=2, kill=5)
