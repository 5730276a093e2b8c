"""The no-wrong-answers invariant, checked mechanically.

Graceful degradation in this system promises *shrinkage, never
substitution*: a run under injected faults may return fewer results than
the fault-free run, but every result it does return must be one the
fault-free run also produces.  This module holds the comparison used by
the ``degraded_qps`` bench scenario, the ``--smoke`` degraded-identity
check and the chaos tests:

* **cacheable plans** (no live route) touch only the materialized store,
  so when faults are restricted to query-time agents the faulted execution
  must be *byte-identical* to the clean one -- hits, scores and order.
  One carve-out: a store that can degrade *itself* (the cluster backend
  dropping a shard that missed its deadline) counts it in
  ``degraded_searches``, and then the faulted hits may shrink -- but
  every one of them must appear, score included, in the widened clean
  ranking.  Shrinkage with identical scores, never substitution, never
  rescoring of the survivors;
* **live plans** are compared at identity level ``(url, host, title,
  source)`` against a widened fault-free "universe" execution (every
  route's ``k`` raised, live budget raised, pre-blend contributions kept):
  host failures truncate the live route's per-host pagination -- they
  never reorder it -- so every faulted hit must appear in the universe
  pool.  Scores are excluded deliberately: blend scores are *relative*
  normalizations, so losing a route's best hit legitimately rescales the
  survivors without changing what they are.

The comparison requires both services to hold identical offline stores
(build them identically, or ``snapshot``/``restore`` one from the other,
and inject faults only into query-time agents).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.query.executor import PlanHit, PlanResult
from repro.query.plan import (
    IndexedRoute,
    LiveVerticalRoute,
    QueryPlan,
    WebTablesRoute,
)


def hit_identity(hit: PlanHit) -> tuple[str, str, str, str]:
    """What makes a hit "the same result" across fault conditions."""
    result = hit.result
    return (result.url, result.host, result.title, result.source)


def widen_plan(plan: QueryPlan, k: int = 10_000, live_fetch_budget: int = 64) -> QueryPlan:
    """The fault-free "universe" variant of a plan.

    Every route's ``k`` is raised to ``k`` (capturing matches beyond the
    original top-k that a shrunken faulted blend may legitimately pull
    up) and the live route's budget/result caps are raised so the clean
    probe extracts a superset of any faulted probe's records.
    """
    routes = []
    for route in plan.routes:
        if isinstance(route, (IndexedRoute, WebTablesRoute)):
            routes.append(replace(route, k=k))
        elif isinstance(route, LiveVerticalRoute):
            routes.append(
                replace(
                    route,
                    fetch_budget=max(route.fetch_budget, live_fetch_budget),
                    max_results=k,
                )
            )
        else:  # pragma: no cover - the Route union is closed
            routes.append(route)
    return replace(plan, k=k, routes=tuple(routes))


@dataclass
class DegradedComparison:
    """Outcome of replaying one plan list on a clean and a faulted service."""

    queries: int = 0
    cacheable_plans: int = 0
    live_plans: int = 0
    degraded_plans: int = 0
    clean_hits: int = 0
    faulted_hits: int = 0
    failed_host_events: int = 0
    #: Wall-clock spent in clean / faulted / widened-universe executions.
    clean_seconds: float = 0.0
    faulted_seconds: float = 0.0
    universe_seconds: float = 0.0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"degraded-identity {status}: {self.queries} plans "
            f"({self.live_plans} live, {self.degraded_plans} degraded), "
            f"hits {self.faulted_hits}/{self.clean_hits} faulted/clean, "
            f"{self.failed_host_events} failed-host events"
        )


def _universe_pool(universe: PlanResult) -> set[tuple[str, str, str, str]]:
    """Identities of everything the fault-free run can return.

    Blended hits plus the pre-blend per-route contributions: URL dedup
    across routes keeps only one instance per URL in the blend, but a
    faulted run can legitimately keep the *other* instance (the
    dedup winner flips when one route loses its copy), so both must
    count as fault-free results.
    """
    pool = {hit_identity(hit) for hit in universe.hits}
    for name, results in universe.raw or ():
        for result in results:
            pool.add((result.url, result.host, result.title, result.source))
    return pool


def compare_degraded(
    clean_service,
    faulted_service,
    plans: list[QueryPlan],
    universe_k: int = 10_000,
) -> DegradedComparison:
    """Execute ``plans`` on both services and check the subset invariant.

    ``clean_service`` and ``faulted_service`` are
    :class:`~repro.api.DeepWebService` instances over identical offline
    stores; the faulted one has a fault plan injected.  Violations are
    collected (not raised) so a bench can report them all.
    """
    comparison = DegradedComparison()
    for plan in plans:
        comparison.queries += 1
        started = time.perf_counter()
        clean = clean_service.executor.execute(plan)
        comparison.clean_seconds += time.perf_counter() - started
        # Read around each plan, so the signal is scoped to the execution
        # just run.
        degraded_before = faulted_service.store.degraded_searches
        started = time.perf_counter()
        faulted = faulted_service.executor.execute(plan)
        comparison.faulted_seconds += time.perf_counter() - started
        backend_degraded = faulted_service.store.degraded_searches > degraded_before
        comparison.clean_hits += len(clean.hits)
        comparison.faulted_hits += len(faulted.hits)
        if faulted.degraded:
            comparison.degraded_plans += 1
        comparison.failed_host_events += len(
            {host for outcome in faulted.routes for host in outcome.failed_hosts}
        )
        if plan.cacheable:
            comparison.cacheable_plans += 1
            if faulted.hits == clean.hits:
                continue
            if backend_degraded:
                # The store itself shed work (a cluster shard missed its
                # deadline or lost every replica).  Hits may shrink -- and
                # docs from below the clean top-k may legitimately pull up
                # -- but each faulted hit must match a widened clean hit
                # exactly, score included.
                started = time.perf_counter()
                universe = clean_service.executor.execute(
                    widen_plan(plan, k=universe_k)
                )
                comparison.universe_seconds += time.perf_counter() - started
                pool = {(hit.route, hit.result) for hit in universe.hits}
                missing = [
                    hit for hit in faulted.hits if (hit.route, hit.result) not in pool
                ]
                if not missing:
                    comparison.degraded_plans += 1
                    continue
                comparison.violations.append(
                    f"{plan.fingerprint()}: degraded store returned "
                    f"{len(missing)} hit(s) absent (or rescored) from the "
                    "widened clean ranking"
                )
                continue
            comparison.violations.append(
                f"{plan.fingerprint()}: cacheable plan not byte-identical "
                f"under faults ({len(faulted.hits)} vs {len(clean.hits)} hits)"
            )
            continue
        comparison.live_plans += 1
        started = time.perf_counter()
        universe = clean_service.executor.execute(
            widen_plan(plan, k=universe_k), keep_raw=True
        )
        comparison.universe_seconds += time.perf_counter() - started
        pool = _universe_pool(universe)
        for hit in faulted.hits:
            if hit_identity(hit) not in pool:
                comparison.violations.append(
                    f"{plan.fingerprint()}: faulted hit {hit_identity(hit)} "
                    "absent from the fault-free universe"
                )
    return comparison
