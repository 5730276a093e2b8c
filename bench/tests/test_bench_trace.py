"""Span arithmetic on hand-built trees, and wrapper installation."""

import threading

import pytest

from bench import trace
from bench.trace import NO_PARENT


def span(name, start, end, parent=NO_PARENT, op=0, thread=None):
    return [name, start, end, parent, op, thread]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span("root", 0.0, 10.0),            # 0: children cover 3 + 4
        span("child", 1.0, 4.0, parent=0),  # 1: its child covers 1
        span("leaf", 2.0, 3.0, parent=1),   # 2
        span("child", 5.0, 9.0, parent=0),  # 3
        span("root", 10.5, 11.5, op=1),     # 4: second op, after a 0.5 gap
    ]
    summary = trace.summarize(spans)
    assert summary.by_name["root"].self_s == pytest.approx(3.0 + 1.0)
    assert summary.by_name["child"].self_s == pytest.approx(2.0 + 4.0)
    assert summary.by_name["child"].calls == 2
    assert summary.by_name["leaf"].self_s == pytest.approx(1.0)
    # Self times telescope to the root durations; the gap is what is left.
    assert summary.client_self_s == pytest.approx(summary.root_s) == pytest.approx(11.0)
    wall = 11.5
    assert summary.client_self_s + (wall - summary.root_s) == pytest.approx(wall)


def test_worker_thread_spans_stay_out_of_the_client_sum():
    spans = [
        span("cluster.search", 0.0, 1.0),
        span("cluster.scatter", 0.1, 0.9, parent=0),
        span("cluster.node_accumulate", 5.0, 5.4, thread="shard0/replica0"),
        span("cluster.node_accumulate", 7.0, 7.4, thread="shard1/replica0"),
    ]
    summary = trace.summarize(spans)
    assert summary.client_self_s == pytest.approx(1.0)
    assert summary.worker_s == pytest.approx(0.8)
    metrics = trace.layer_metrics(summary)
    assert metrics["cluster.node_accumulate_s"] == pytest.approx(0.8)
    assert metrics["cluster.search_self_s"] == pytest.approx(0.2)
    assert metrics["cluster.scatter_self_s"] == pytest.approx(0.8)


def test_stage_spans_map_to_stage_metrics():
    spans = [span(trace.STAGE_SPAN_PREFIX + "generate-urls", 0.0, 2.0)]
    assert trace.layer_metrics(trace.summarize(spans)) == {
        "pipeline.stage.generate-urls_s": pytest.approx(2.0)
    }


class Fake:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def build(cls):
        return cls()


FAKE_TABLE = (
    trace.SpanTarget("fake.outer", __name__, "Fake", "outer", "fake.outer_self_s"),
    trace.SpanTarget("fake.inner", __name__, "Fake", "inner", "fake.inner_self_s"),
    trace.SpanTarget("fake.build", __name__, "Fake", "build", "fake.build_self_s"),
)


def test_install_records_nested_spans_and_uninstall_restores():
    ticks = iter(range(100))
    tracer = trace.Tracer(clock=lambda: float(next(ticks)))
    original = vars(Fake)["outer"]
    tracer.install(FAKE_TABLE)
    try:
        assert Fake.build().outer(3) == 7
        assert Fake().outer(1) == 3
    finally:
        tracer.uninstall()
    assert vars(Fake)["outer"] is original
    assert isinstance(vars(Fake)["build"], classmethod)
    names = [record[trace.NAME] for record in tracer.spans]
    assert names == ["fake.build", "fake.outer", "fake.inner", "fake.outer", "fake.inner"]
    parents = [record[trace.PARENT] for record in tracer.spans]
    assert parents == [NO_PARENT, NO_PARENT, 1, NO_PARENT, 3]
    # Every root span is its own operation.
    assert [record[trace.OP] for record in tracer.spans] == [0, 1, 1, 2, 2]
    summary = trace.summarize(tracer.spans)
    assert summary.client_self_s == pytest.approx(summary.root_s)


def test_a_foreign_thread_does_not_enter_the_client_tree():
    tracer = trace.Tracer()
    tracer.install(FAKE_TABLE)
    try:
        worker = threading.Thread(target=lambda: Fake().outer(2))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_a_moved_callable_is_an_error_not_a_zero():
    tracer = trace.Tracer()
    gone = (trace.SpanTarget("fake.gone", __name__, "Fake", "gone", "fake.gone_self_s"),)
    with pytest.raises(KeyError):
        tracer.install(gone)
