"""Graceful degradation end to end: partial answers, honest provenance.

The contract under test is the no-wrong-answers invariant -- a faulted
execution may return *fewer* results than the fault-free twin, but every
result it does return must be one the fault-free run also produces --
plus the provenance trail (RouteOutcome/PlanResult degraded flags and
planner stats).
"""

from __future__ import annotations

from repro.resilience import (
    BreakerRegistry,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    compare_degraded,
)
from repro.serve.loadgen import KIND_STRUCTURED, WorkloadGenerator
from repro.webspace.loadmeter import AGENT_VIRTUAL


def plan_workload(service, count: int = 60, seed: str = "chaos-degraded"):
    """A seeded mixed workload planned on ``service`` (structured go live)."""
    workload = WorkloadGenerator(service.web, seed=seed).mixed_stream(count, k=8)
    return [
        service.planner.plan(
            query.text, k=query.k, min_per_source=2,
            live=query.kind == KIND_STRUCTURED,
        )
        for query in workload
    ]


def heavy_faults(seed="degraded-test") -> FaultPlan:
    """Virtual-agent-only faults heavy enough to defeat a short retry,
    paused until the twin's set-up is done."""
    return FaultPlan(
        seed=seed,
        default=FaultSpec(error_rate=0.5, timeout_rate=0.1),
        agents=(AGENT_VIRTUAL,),
        enabled=False,
    )


def hosts_down(hosts) -> FaultPlan:
    """Every virtual fetch against ``hosts`` fails (paused until set-up)."""
    return FaultPlan(
        seed=1,
        hosts={host: FaultSpec(error_rate=1.0) for host in hosts},
        agents=(AGENT_VIRTUAL,),
        enabled=False,
    )


def first_live_plan(service):
    """The first live plan of the seeded workload and its live route.

    Twins plan identically, so a plan made on the clean twin names the
    hosts a faulted twin must be built to fail."""
    plan = next(plan for plan in plan_workload(service) if not plan.cacheable)
    return plan, next(route for route in plan.routes if not route.cacheable)


class TestSubsetInvariant:
    def test_faulted_hits_are_a_subset_of_the_fault_free_universe(
        self, clean_service, chaos_factory
    ):
        faulted = chaos_factory(
            heavy_faults(),
            policy=RetryPolicy(max_attempts=2, seed="degraded-test"),
            breakers=BreakerRegistry(),
        )
        plans = plan_workload(clean_service)
        comparison = compare_degraded(clean_service, faulted, plans)
        assert comparison.ok, "\n".join(comparison.violations)
        assert comparison.live_plans > 0
        assert comparison.degraded_plans > 0, "faults this heavy must degrade"
        assert comparison.faulted_hits <= comparison.clean_hits
        assert comparison.failed_host_events > 0

    def test_cacheable_plans_stay_byte_identical_under_faults(
        self, clean_service, chaos_factory
    ):
        """Store-only plans never fetch, so query-time faults cannot touch
        them at all -- not even to shrink them."""
        faulted = chaos_factory(heavy_faults())
        plans = [plan for plan in plan_workload(clean_service) if plan.cacheable]
        assert plans
        for plan in plans:
            assert faulted.executor.execute(plan).hits == clean_service.executor.execute(plan).hits


class TestDegradedDeterminism:
    def test_same_seed_same_degraded_output(self, chaos_factory):
        """Two identical twins under the identical fault plan produce
        byte-identical degraded answers -- chaos runs are replayable."""

        def run():
            service = chaos_factory(
                heavy_faults(),
                policy=RetryPolicy(max_attempts=2, seed="degraded-test"),
            )
            outputs = []
            for plan in plan_workload(service):
                result = service.executor.execute(plan)
                # Project out RouteOutcome.seconds -- wall-clock timing is
                # the one field allowed to differ between identical runs.
                routes = tuple(
                    (o.route, o.produced, o.kept, o.fetches_spent,
                     o.degraded, o.failed_hosts, o.error)
                    for o in result.routes
                )
                outputs.append((result.hits, result.degraded, routes))
            return outputs

        assert run() == run()


class TestDegradedProvenance:
    def test_route_outcome_records_failed_hosts(self, clean_service, chaos_factory):
        plan, live_route = first_live_plan(clean_service)
        dead_host = live_route.hosts[0]
        # Kill exactly one routed host; everything else stays healthy.
        service = chaos_factory(hosts_down([dead_host]))
        result = service.executor.execute(plan)
        assert result.degraded
        assert dead_host in {host for o in result.routes for host in o.failed_hosts}
        outcome = next(o for o in result.routes if o.route == live_route.name)
        assert outcome.degraded
        assert dead_host in outcome.failed_hosts
        assert service.executor.stats.as_dict()["degraded_plans"] >= 1

    def test_degraded_plans_render_in_service_report(self, chaos_factory):
        service = chaos_factory(heavy_faults())
        for plan in plan_workload(service, count=30):
            service.executor.execute(plan)
        lines = service.report().lines()
        assert any(line.startswith("resilience:") for line in lines)
        assert any("degraded plans:" in line for line in lines)


class TestOnePlanCounterOwner:
    def test_report_reads_the_planner_stats_after_mixed_traffic(
        self, clean_service, chaos_factory
    ):
        """Executions -- a clean, two empty and two degraded plans among
        them -- land in one ``PlannerStats``; the report is that owner's
        snapshot."""
        degraded_plan, live_route = first_live_plan(clean_service)
        cacheable = next(plan for plan in plan_workload(clean_service) if plan.cacheable)
        # Every routed live host is hard-down: both executions degrade for sure.
        service = chaos_factory(hosts_down(live_route.hosts))
        service.executor.execute(cacheable)
        service.executor.execute(service.planner.plan("   "))
        service.executor.execute(service.planner.plan(""))
        assert service.executor.execute(degraded_plan).degraded
        assert service.executor.execute(degraded_plan).degraded

        planning = service.planner_stats.as_dict()
        assert service.report().query_planning == planning
        assert planning["plans"] == 5
        assert (planning["empty_plans"], planning["degraded_plans"]) == (2, 2)
        assert "degraded plans: 2 (partial results, never cached)" in service.report().lines()
