"""One workload, one process: set-up, warm-up, timed passes, oracle.

``--trace 0`` measures the end-to-end metrics over untraced passes;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Every pass of a run repeats the same operations, and
the timings reported are those of ``BestCase``: each few-millisecond
segment of the pass, and each operation, at the fastest any pass ran it.

The harness leaves the interpreter as the program ships it: no
``gc.disable``, ``gc.freeze`` or ``sys.setswitchinterval`` -- those change
the program measured.  It only calls ``gc.collect()`` between passes so
one pass's garbage is not collected on the next one's clock.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import platform
import resource
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from bench import loadgen, spec, stats, trace
from bench.workloads import (
    OUT_DIR, SCALES, WORKLOADS, PassResult, Workload, record_path, spans_path,
)

#: Besides this process's own, set-up is timed in forked children, each as
#: cold as a first run: one child, and more while they have spent less than
#: this together (a 3 s set-up is sampled twice, a 75 ms one some fourteen
#: times -- timed twice it is a coin toss on a noisy host).  ``setup_s`` is
#: the fastest sample, a best case like the other timings.
SETUP_CHILD_SECONDS = 1.0
SETUP_MAX_CHILDREN = 15
MIN_PASSES = 4
#: |sum of self times + unattributed - wall| may not exceed this share of wall.
SUM_TOLERANCE = 0.02

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass
class RunRecord:
    """Everything one run measured, as written to ``bench/out``."""

    workload: str
    seed: int
    seconds: float
    trace: int
    scale: str
    reportable: bool
    inputs_sha256: str = ""
    correct: bool = False
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    metrics: dict[str, dict[str, object]] = field(default_factory=dict)
    #: Per-pass values behind the medians, so spreads can be recomputed.
    raw: dict[str, list[float]] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    latency_samples: int = 0
    tail_percentile: float = 0.0
    commit: str = ""
    python: str = ""
    nproc: int = 0
    affinity: list[int] = field(default_factory=list)

    def driver_line(self) -> str:
        """The last line of standard output the driver parses."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def current_commit() -> str:
    """HEAD's hash read from ``.git`` (no subprocess); ``unknown`` outside a
    git checkout, which is where the driver runs."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def in_child(function, *args):
    """``function(*args)`` run in a forked child; its pickled result.

    A second set-up, or a second cold surfacing, in this process would find
    the process-wide analysis cache filled by the first and run in half the
    time.  A forked child starts from exactly this process's state, so it is
    as cold as this process is.  Only called while this process has a single
    thread."""
    if threading.active_count() != 1:
        raise RuntimeError("fork with threads running")
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(function(*args), pipe)
            status = 0
        except BaseException:  # the child must not return into the parent's stack
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"{function.__name__} failed in the child process (status {status})")
    return pickle.loads(payload)  # written by our own child just above


def setup_seconds(workload: Workload) -> float:
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def cold_setup_samples(make) -> list[float]:
    samples: list[float] = []
    while not samples or (
        sum(samples) < SETUP_CHILD_SECONDS and len(samples) < SETUP_MAX_CHILDREN
    ):
        samples.append(in_child(lambda: setup_seconds(make())))
    return samples


def plain_pass(workload: Workload) -> PassResult:
    workload.prepare()
    gc.collect()
    return workload.one_pass()


def traced_pass(workload: Workload, spans_file: Path | None) -> PassResult:
    tracer = workload.tracer
    workload.prepare()
    gc.collect()
    tracer.reset()
    collections_before = gc_collections()
    with tracer:
        result = workload.one_pass()
    result.gc_collections = gc_collections() - collections_before
    spans = tracer.all_spans()
    result.trace = trace.summarize(spans)
    if spans_file is not None:
        trace.write_jsonl(spans, spans_file)
    return result


def run_pass(workload: Workload, one_pass, *args) -> PassResult:
    """``one_pass(workload, *args)``, in a child where the workload asks for it."""
    if workload.isolated:
        return in_child(one_pass, workload, *args)
    return one_pass(workload, *args)


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


@dataclass
class BestCase:
    """The pass no run sees whole: every segment and every operation at the
    fastest it ran in any pass.

    The passes of a run repeat the same operations, so a segment's readings
    differ only by what else the host was doing; that noise only ever adds
    time, comes in bursts of milliseconds to seconds, and on this machine
    slows whole passes by up to 80 % for minutes on end.  The median over
    passes follows it (over ten seeds it spread by 20-30 %); the minimum of a
    few-millisecond segment over the passes does not, as long as one pass
    found the host quiet for those milliseconds.  The cost: a stall that
    strikes at random places (not one the program causes at the same place
    every time, such as a collection) drops out too."""

    ops: int = 0
    latencies: list[float] = field(default_factory=list)
    segment_wall: list[float] = field(default_factory=list)
    segment_cpu: list[float] = field(default_factory=list)
    op_segments: list[tuple[int, int]] | None = None

    def fold(self, result: PassResult) -> None:
        if not self.ops:
            self.ops = result.ops
            self.latencies = list(result.latencies)
            self.segment_wall = list(result.segment_wall)
            self.segment_cpu = list(result.segment_cpu)
            self.op_segments = result.op_segments
            return
        shape = (self.ops, len(self.latencies), len(self.segment_wall), self.op_segments)
        if shape != (
            result.ops, len(result.latencies), len(result.segment_wall), result.op_segments
        ):
            raise RuntimeError("a pass did not repeat the operations of the pass before it")
        self.latencies = list(map(min, self.latencies, result.latencies))
        self.segment_wall = list(map(min, self.segment_wall, result.segment_wall))
        self.segment_cpu = list(map(min, self.segment_cpu, result.segment_cpu))

    def best_latencies(self) -> list[float]:
        """Each operation's latency at its fastest: put together from its
        segments where it spans several (a site is seven stage runs and more),
        else the fastest reading of the operation itself."""
        if self.op_segments is None:
            return self.latencies
        return [sum(self.segment_wall[first:end]) for first, end in self.op_segments]


def metric(name: str, value: float) -> dict[str, object]:
    return {"value": value, "unit": spec.UNITS[name]}


def measure_end_to_end(record: RunRecord, make) -> None:
    setup_samples = cold_setup_samples(make)
    workload = make()
    best = BestCase()
    passes: list[PassResult] = []
    per_pass: dict[str, list[float]] = {
        name: [] for name in ("ops_per_s", "cpu_ms_per_op", "latency_p50_us", "latency_tail_us")
    }
    try:
        setup_samples.append(setup_seconds(workload))
        record.inputs_sha256 = loadgen.inputs_sha256(workload.inputs())
        gc.collect()
        workload.warmup()
        deadline = time.perf_counter() + record.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            result = run_pass(workload, plain_pass)
            best.fold(result)
            p50_s, tail_s = stats.p50_and_tail(result.latencies)
            per_pass["ops_per_s"].append(result.ops / result.wall_s)
            per_pass["cpu_ms_per_op"].append(1e3 * result.cpu_s / result.ops)
            per_pass["latency_p50_us"].append(1e6 * p50_s)
            per_pass["latency_tail_us"].append(1e6 * tail_s)
            # Forty passes of 20 000 floats would show in ``peak_rss_mb`` as
            # if the program had used them.
            result.latencies = result.segment_wall = result.segment_cpu = []
            passes.append(result)
        # Read before the oracle replays the stream and keeps every answer;
        # the largest process of the run, for passes that ran in children.
        peak_kb = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        checked, failed = workload.verify(passes)
        fetches_per_url = workload.fetches_per_indexed_url(passes)
    finally:
        workload.close()
    p50_s, tail_s = stats.p50_and_tail(best.best_latencies())
    values = {
        "setup_s": min(setup_samples),
        "ops_per_s": best.ops / sum(best.segment_wall),
        "cpu_ms_per_op": 1e3 * sum(best.segment_cpu) / best.ops,
        "latency_p50_us": 1e6 * p50_s,
        "latency_tail_us": 1e6 * tail_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "fetches_per_indexed_url": fetches_per_url,
    }
    record.passes = len(passes)
    record.attempted = sum(result.ops for result in passes)
    record.failed = failed
    record.correct = failed == 0 and checked > 0
    record.latency_samples = len(best.latencies)
    record.tail_percentile = stats.tail_percentile(len(best.latencies))
    record.raw = {"setup_s": setup_samples, **per_pass}
    record.metrics = {name: metric(name, values[name]) for name in spec.END_TO_END_NAMES}


def measure_layers(record: RunRecord, make) -> None:
    workload = make(trace.Tracer())
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    try:
        workload.setup()
        record.inputs_sha256 = loadgen.inputs_sha256(workload.inputs())
        gc.collect()
        workload.warmup()
        deadline = time.perf_counter() + record.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(workload, plain_pass))
            spans_file = None if traced else spans_path(record.workload, record.scale)
            traced.append(run_pass(workload, traced_pass, spans_file))
        checked, failed = workload.verify(untraced + traced)
        layers = workload.layer_metrics(untraced, traced)
    finally:
        workload.close()
    count = len(traced)
    unattributed = 0.0
    for result in traced:
        summary = result.trace
        gap = result.wall_s - summary.root_s
        slack = SUM_TOLERANCE * result.wall_s
        if abs(summary.client_self_s + gap - result.wall_s) > slack or gap < -slack:
            record.violations.append(
                f"self times {summary.client_self_s:.6f}s + unattributed {gap:.6f}s "
                f"do not add up to the pass's {result.wall_s:.6f}s"
            )
        unattributed += gap
        for name, value in trace.layer_metrics(summary).items():
            layers[name] = layers.get(name, 0.0) + value / count
    # Both kinds of pass do the same work, so each is taken at its fastest.
    layers["trace.overhead_ratio"] = min(result.wall_s for result in traced) / min(
        result.wall_s for result in untraced
    )
    layers["trace.wall_s"] = sum(result.wall_s for result in traced) / count
    layers["trace.unattributed_s"] = unattributed / count
    layers["process.gc_collections"] = sum(result.gc_collections for result in traced) / count
    layers["process.failed_share"] = failed / checked if checked else 1.0
    unknown = sorted(set(layers) - set(spec.PER_LAYER_NAMES))
    if unknown:
        raise RuntimeError(f"layer metrics missing from bench/spec.py: {unknown}")
    record.passes = count
    record.attempted = sum(result.ops for result in untraced)
    record.failed = failed
    record.violations += workload.layer_violations(layers)
    record.correct = failed == 0 and checked > 0 and not record.violations
    record.raw = {"trace.wall_s": [result.wall_s for result in traced]}
    record.metrics = {
        name: metric(name, float(layers.get(name, 0.0))) for name in spec.PER_LAYER_NAMES
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale_name: str) -> RunRecord:
    """Run one workload in this process and write its record to ``bench/out``."""
    scale = SCALES[scale_name]
    cls = WORKLOADS[name]
    if cls.pinned:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = RunRecord(
        workload=name, seed=seed, seconds=seconds, trace=int(traced), scale=scale.name,
        reportable=scale.reportable, commit=current_commit(),
        python=platform.python_version(), nproc=os.cpu_count() or 0,
        affinity=sorted(os.sched_getaffinity(0)),
    )

    def make(tracer: trace.Tracer | None = None) -> Workload:
        return cls(seed, scale, tracer)

    OUT_DIR.mkdir(exist_ok=True)
    if traced:
        measure_layers(record, make)
    else:
        measure_end_to_end(record, make)
    path = record_path(name, scale.name, seed, int(traced))
    path.write_text(json.dumps(asdict(record), indent=1) + "\n")
    return record


def print_record(record: RunRecord, stream=None) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    print(
        f"# {record.workload} seed={record.seed} trace={record.trace} scale={record.scale} "
        f"passes={record.passes} attempted={record.attempted} failed={record.failed} "
        f"inputs_sha256={record.inputs_sha256[:16]}",
        file=stream,
    )
    if not record.trace:
        print(
            f"# latency_tail_us is p{record.tail_percentile:g} of {record.latency_samples} "
            f"operations, each at its fastest over the passes",
            file=stream,
        )
    for name, entry in record.metrics.items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}", file=stream)
    for violation in record.violations:
        print(f"! {violation}", file=stream)
    print(record.driver_line(), file=stream)
