"""Names, units and bounds: the single table ``BENCHMARK.json`` mirrors.

Every workload emits every metric listed here (the driver contract):
the end-to-end ones from the untraced timed passes, the per-layer ones
from the traced run, where a layer a workload bypasses reads 0 -- which
is the prediction the interaction table in ``bench/README.md`` makes.
``bench/tests/test_spec.py`` pins ``BENCHMARK.json`` to this module.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 4
COMMAND = ["python3", "-m", "bench", "run"]
PATHS = ["bench"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only).
    bound: float | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str


WORKLOADS = (
    WorkloadSpec(
        "surface_cold",
        "service.surface() over fresh webs, every content-keyed cache cold: the "
        "offline cost the paper pays; core/pipeline/htmlparse/webspace work, serve/query idle",
    ),
    WorkloadSpec(
        "serve_hit",
        "Zipf keyword stream through QueryFrontend.serve with a cache that fits the "
        "population: hit ratio ~1, so only cache + frontend bookkeeping is measured",
    ),
    WorkloadSpec(
        "serve_miss",
        "the same stream with a 16-entry cache (hit ratio ~0.3): the median request "
        "is a miss, so tokenize/score/heap/result assembly in search+store is measured",
    ),
    WorkloadSpec(
        "federated_mixed",
        "60/25/15 keyword / field:value / table-lookup stream through service.query "
        "with budgeted live probes: the virtual-integration side (query, webtables, virtual)",
    ),
    WorkloadSpec(
        "cluster_scatter",
        "the serve_miss token lists against ClusterBackend 8x2 on one pinned CPU, "
        "beside the single index it wraps: scatter hand-off and merge overhead",
    ),
    WorkloadSpec(
        "ingest_search",
        "one add_page then 8 frontend.serve calls, repeated: writes beside reads, so a "
        "read gain bought with ingest or invalidation cost shows here",
    ),
    WorkloadSpec(
        "restart",
        "snapshot -> restore -> first 200 queries on the restored service: persist "
        "write and read paths plus lazy work deferred into the first queries",
    ),
)

# Exact counts repeat bit for bit and get 0.01; memory moves by under 1 %
# (2 % on ``restart``, whose heap grows with the cycles a run fits in) and
# gets 0.10.  The timings get the most the driver allows: on this 2-vCPU VM
# the same pure-Python loop, timed in consecutive 4 s windows, reads
# 54.9-62.2 ms per iteration, and whole runs are at times 1.8 times slower
# for minutes (bench/README.md, "Noise floor"), so a tighter gate would
# referee the host, not the change.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("latency_p50_us", "us", "lower", 0.25),
    Metric("latency_tail_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("fetches_per_indexed_url", "count", "lower", 0.01),
)

PIPELINE_STAGES = (
    "discover-forms",
    "classify-inputs",
    "detect-correlations",
    "candidate-values",
    "select-templates",
    "generate-urls",
    "index-pages",
)

#: Plan shapes ``federated_mixed`` counts (route names joined with ``_``).
PLAN_SHAPES = (
    "indexed",
    "indexed_webtables",
    "indexed_live-vertical",
    "indexed_webtables_live-vertical",
)

PER_LAYER = (
    Metric("webspace.fetch_calls", "count", "lower"),
    Metric("webspace.fetch_self_s", "s", "lower"),
    Metric("core.analyze_self_s", "s", "lower"),
    Metric("core.analyze_html_calls", "count", "lower"),
    Metric("core.analyze_html_self_s", "s", "lower"),
    Metric("core.signature_cache_hit_ratio", "ratio", "higher"),
    Metric("core.probe_cache_hit_ratio", "ratio", "higher"),
    Metric("core.probes_issued", "count", "lower"),
    *(Metric(f"pipeline.stage.{stage}_s", "s", "lower") for stage in PIPELINE_STAGES),
    Metric("pipeline.unattributed_s", "s", "lower"),
    Metric("pipeline.indexed_per_generated", "ratio", "higher"),
    Metric("store.ingest_calls", "count", "lower"),
    Metric("store.ingest_self_s", "s", "lower"),
    Metric("store.ingest_docs_per_s", "1/s", "higher"),
    Metric("store.search_calls", "count", "lower"),
    Metric("store.search_self_s", "s", "lower"),
    Metric("search.add_page_self_s", "s", "lower"),
    Metric("search.engine_search_self_s", "s", "lower"),
    Metric("search.index_score_self_s", "s", "lower"),
    Metric("serve.cache_hit_ratio", "ratio", "higher"),
    Metric("serve.cache_evictions", "count", "lower"),
    Metric("serve.cache_invalidations", "count", "lower"),
    Metric("serve.frontend_self_s", "s", "lower"),
    Metric("serve.shed", "count", "lower"),
    Metric("serve.pool_ops_per_s", "1/s", "higher"),
    Metric("query.facade_self_s", "s", "lower"),
    Metric("query.plan_self_s", "s", "lower"),
    Metric("query.execute_self_s", "s", "lower"),
    Metric("query.blend_self_s", "s", "lower"),
    Metric("query.route.indexed_s", "s", "lower"),
    Metric("query.route.webtables_s", "s", "lower"),
    Metric("query.route.live_s", "s", "lower"),
    Metric("query.live_fetches", "count", "lower"),
    *(Metric(f"query.plans.{shape}", "count", "higher") for shape in PLAN_SHAPES),
    Metric("query.degraded_plans", "count", "lower"),
    Metric("virtual.probe_self_s", "s", "lower"),
    Metric("webtables.harvest_s", "s", "lower"),
    Metric("cluster.direct_ops_per_s", "1/s", "higher"),
    Metric("cluster.overhead_ratio", "ratio", "lower"),
    Metric("cluster.search_self_s", "s", "lower"),
    Metric("cluster.scatter_self_s", "s", "lower"),
    Metric("cluster.node_accumulate_s", "s", "lower"),
    Metric("cluster.tasks_per_query", "count", "lower"),
    Metric("cluster.hedges", "count", "lower"),
    Metric("cluster.failovers", "count", "lower"),
    Metric("cluster.deadline_misses", "count", "lower"),
    Metric("cluster.load_docs_per_s", "1/s", "higher"),
    Metric("persist.export_records_self_s", "s", "lower"),
    Metric("persist.snapshot_write_self_s", "s", "lower"),
    Metric("persist.restore_replay_self_s", "s", "lower"),
    Metric("persist.restore_other_self_s", "s", "lower"),
    Metric("persist.snapshot_s", "s", "lower"),
    Metric("persist.restore_ready_s", "s", "lower"),
    Metric("persist.first_queries_s", "s", "lower"),
    Metric("persist.snapshot_mb", "MB", "lower"),
    Metric("persist.bytes_per_doc", "count", "lower"),
    Metric("persist.restored_surfacing_fetches", "count", "lower"),
    Metric("process.gc_collections", "count", "lower"),
    Metric("process.failed_share", "ratio", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.unattributed_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

WORKLOAD_NAMES = tuple(spec.name for spec in WORKLOADS)
END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}


def benchmark_json() -> dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
