"""Bench-side tracing: spans around a fixed table of public callables.

The program under test carries no spans of its own yet, so the traced
pass wraps the public entry points of each layer from outside
(``SPAN_TABLE``) and records, in memory, one span per call:
``(name, start, end, parent, op_id)``.  A span's *self time* is its
duration minus the time its direct children cover, so over the client
thread the self times telescope to the duration of the root spans, and
together with the gaps between roots (``trace.unattributed_s``) to the
wall clock of the pass.  Work done on other threads (cluster shard
nodes) is measured with ``time.thread_time`` and kept out of that sum:
booking a worker's wall time, GIL wait included, as layer time is the
artefact that made the old report's stages add up to five times the run.

End-to-end numbers never come from a traced pass; ``trace.overhead_ratio``
says what the wrappers cost.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.pipeline.observer import PipelineObserver


@dataclass(frozen=True)
class SpanTarget:
    """One wrapped callable (``module.Owner.attr``, or ``module.attr``) and
    the per-layer metrics its spans feed."""

    span: str
    module: str
    owner: str | None
    attr: str
    #: Metric receiving the summed self time of these spans.
    self_metric: str
    #: Metric receiving the number of these spans, if one is reported.
    calls_metric: str | None = None
    #: Runs on worker threads: measured in thread CPU time, never a parent
    #: or child of a client-thread span.
    worker_thread: bool = False


#: The fixed table of traced callables, one row per layer boundary.  The
#: self-time metrics of its rows, the stage spans and ``trace.unattributed_s``
#: add up to ``trace.wall_s``.
SPAN_TABLE = (
    SpanTarget("api.surface", "repro.api", "DeepWebService", "surface",
               "pipeline.unattributed_s"),
    SpanTarget("api.query", "repro.api", "DeepWebService", "query",
               "query.facade_self_s"),
    SpanTarget("api.search", "repro.api", "DeepWebService", "search",
               "query.facade_self_s"),
    SpanTarget("api.snapshot", "repro.api", "DeepWebService", "snapshot",
               "persist.snapshot_write_self_s"),
    SpanTarget("api.restore", "repro.api", "DeepWebService", "restore",
               "persist.restore_other_self_s"),
    SpanTarget("webspace.fetch", "repro.webspace.web", "Web", "fetch",
               "webspace.fetch_self_s", "webspace.fetch_calls"),
    SpanTarget("core.analyze", "repro.core.informativeness", "SignatureCache", "analyze",
               "core.analyze_self_s"),
    SpanTarget("core.analyze_html", "repro.core.informativeness", None, "analyze_html",
               "core.analyze_html_self_s", "core.analyze_html_calls"),
    SpanTarget("store.ingest", "repro.store.ingest", "Ingestor", "ingest",
               "store.ingest_self_s", "store.ingest_calls"),
    SpanTarget("store.search", "repro.store.memory", "InMemoryBackend", "search",
               "store.search_self_s", "store.search_calls"),
    SpanTarget("store.export_records", "repro.store.memory", "InMemoryBackend",
               "export_records", "persist.export_records_self_s"),
    SpanTarget("search.add_page", "repro.search.engine", "SearchEngine", "add_page",
               "search.add_page_self_s"),
    SpanTarget("search.ingest_records", "repro.search.engine", "SearchEngine",
               "ingest_records", "persist.restore_replay_self_s"),
    SpanTarget("search.engine_search", "repro.search.engine", "SearchEngine", "search",
               "search.engine_search_self_s"),
    SpanTarget("search.index_score", "repro.search.inverted_index", "InvertedIndex", "score",
               "search.index_score_self_s"),
    SpanTarget("serve.serve", "repro.serve.frontend", "QueryFrontend", "serve",
               "serve.frontend_self_s"),
    SpanTarget("query.plan", "repro.query.planner", "QueryPlanner", "plan",
               "query.plan_self_s"),
    SpanTarget("query.execute", "repro.query.executor", "QueryExecutor", "execute",
               "query.execute_self_s"),
    SpanTarget("query.blend", "repro.query.executor", "BlendedRanker", "blend",
               "query.blend_self_s"),
    SpanTarget("virtual.probe", "repro.virtual.vertical", "VerticalSearchEngine", "probe",
               "virtual.probe_self_s"),
    SpanTarget("cluster.search", "repro.cluster.backend", "ClusterBackend", "search",
               "cluster.search_self_s"),
    SpanTarget("cluster.scatter", "repro.cluster.executor", "ScatterGatherExecutor",
               "scatter", "cluster.scatter_self_s"),
    SpanTarget("cluster.node_accumulate", "repro.cluster.node", "ShardNode", "accumulate",
               "cluster.node_accumulate_s", worker_thread=True),
)

#: Prefix of the spans the pipeline observer opens, one per stage run.
STAGE_SPAN_PREFIX = "pipeline.stage."

# Span record layout (a list, mutated in place when the call returns).
NAME, START, END, PARENT, OP, THREAD = range(6)
NO_PARENT = -1


class Tracer:
    """In-memory span recorder for one client thread plus worker threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        #: Worker-thread spans live apart: the client indexes ``spans`` by
        #: position, which a concurrent append would shift.
        self.worker_spans: list[list] = []
        #: The operation spans are attributed to.  Advances by one with every
        #: root span unless a workload sets it itself (``auto_op = False``).
        self.op_id = -1
        self.auto_op = True
        self._stack: list[int] = []
        self._client = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def push(self, name: str) -> None:
        """Open a span on the client thread (observer hooks use this)."""
        stack = self._stack
        if not stack and self.auto_op:
            self.op_id += 1
        record = [name, 0.0, 0.0, stack[-1] if stack else NO_PARENT, self.op_id, None]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = self.clock()

    def pop(self) -> None:
        ended = self.clock()
        self.spans[self._stack.pop()][END] = ended

    def _client_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if threading.get_ident() != self._client:
                # A foreign thread has no place in the client's span tree.
                return fn(*args, **kwargs)
            self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        traced.__wrapped__ = fn
        return traced

    def _worker_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            started = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.thread_time()
                # list.append is atomic; the record is complete before it lands.
                self.worker_spans.append(
                    [name, started, ended, NO_PARENT, self.op_id,
                     threading.current_thread().name]
                )

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self, table: tuple[SpanTarget, ...] = SPAN_TABLE) -> None:
        """Wrap every callable of ``table``; a missing one is an error (the
        change that moved it must move its row)."""
        for target in table:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            raw = vars(owner)[target.attr]
            make = self._worker_wrapper if target.worker_thread else self._client_wrapper
            if isinstance(raw, classmethod):
                wrapped: object = classmethod(make(target.span, raw.__func__))
            else:
                wrapped = make(target.span, raw)
            setattr(owner, target.attr, wrapped)
            self._installed.append((owner, target.attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def reset(self) -> None:
        """Forget recorded spans (between traced passes)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.spans = []
        self.worker_spans = []
        self.op_id = -1

    def all_spans(self) -> list[list]:
        """Client spans (parents index into this prefix), then worker spans."""
        return self.spans + self.worker_spans


class StageSpans(PipelineObserver):
    """Opens one span per pipeline stage run and stamps the op (= site);
    silent while the tracer's wrappers are not installed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def on_site_start(self, site, index, total) -> None:
        if self.tracer.installed:
            self.tracer.op_id += 1

    def on_stage_start(self, stage_name, ctx) -> None:
        if self.tracer.installed:
            self.tracer.push(STAGE_SPAN_PREFIX + stage_name)

    def on_stage_end(self, stage_name, ctx, elapsed) -> None:
        if self.tracer.installed:
            self.tracer.pop()


# -- arithmetic --------------------------------------------------------------


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class TraceSummary:
    """Per-name totals of one traced pass."""

    by_name: dict[str, SpanTotals]
    #: Sum of self times over client-thread spans.
    client_self_s: float
    #: Sum of root-span durations on the client thread.
    root_s: float
    #: Sum of worker-thread span durations (thread CPU time).
    worker_s: float

    def calls(self, name: str) -> int:
        totals = self.by_name.get(name)
        return totals.calls if totals else 0


def summarize(spans: list[list]) -> TraceSummary:
    """Self time = duration minus the time direct children cover."""
    child_covered = [0.0] * len(spans)
    for record in spans:
        if record[THREAD] is None and record[PARENT] != NO_PARENT:
            child_covered[record[PARENT]] += record[END] - record[START]
    by_name: dict[str, SpanTotals] = {}
    client_self = root = worker = 0.0
    for index, record in enumerate(spans):
        duration = record[END] - record[START]
        totals = by_name.setdefault(record[NAME], SpanTotals())
        totals.calls += 1
        if record[THREAD] is not None:
            totals.self_s += duration
            worker += duration
            continue
        self_time = duration - child_covered[index]
        totals.self_s += self_time
        client_self += self_time
        if record[PARENT] == NO_PARENT:
            root += duration
    return TraceSummary(by_name, client_self, root, worker)


def layer_metrics(summary: TraceSummary) -> dict[str, float]:
    """Fold span totals into the per-layer metric names of ``SPAN_TABLE``
    (stage spans map to ``pipeline.stage.<name>_s``)."""
    metrics: dict[str, float] = {}
    by_span = {target.span: target for target in SPAN_TABLE}
    for name, totals in summary.by_name.items():
        target = by_span.get(name)
        if target is None:
            metrics[name + "_s"] = metrics.get(name + "_s", 0.0) + totals.self_s
            continue
        metrics[target.self_metric] = metrics.get(target.self_metric, 0.0) + totals.self_s
        if target.calls_metric:
            metrics[target.calls_metric] = metrics.get(target.calls_metric, 0) + totals.calls
    # An analysis the signature cache answered never reached ``analyze_html``.
    analyses = summary.calls("core.analyze")
    if analyses:
        metrics["core.signature_cache_hit_ratio"] = (
            1.0 - summary.calls("core.analyze_html") / analyses
        )
    return metrics


def write_jsonl(spans: list[list], path: Path) -> None:
    """One span per line; ``parent`` is the line index of the parent span
    (-1 for a root), ``thread`` is null on the client thread."""
    with path.open("w") as handle:
        for record in spans:
            handle.write(
                json.dumps(
                    {
                        "name": record[NAME],
                        "start": record[START],
                        "end": record[END],
                        "parent": record[PARENT],
                        "op": record[OP],
                        "thread": record[THREAD],
                    }
                )
            )
            handle.write("\n")
