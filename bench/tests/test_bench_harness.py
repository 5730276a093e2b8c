"""The whole harness, tracer and oracles at ``--scale tiny``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench import cli, harness, spec
from bench.workloads import PassResult, record_path, spans_path, timed_loop

ROOT = Path(__file__).resolve().parents[2]


def run_cli(workload: str, traced: int, seed: int = 3) -> tuple[int, dict, dict]:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(traced), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(record_path(workload, "tiny", seed, traced).read_text())
    return done.returncode, result, record


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    code, result, record = run_cli(workload, 0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(spec.END_TO_END_NAMES)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == spec.UNITS[name]
        assert entry["value"] > 0  # an end-to-end metric is never 0
    assert record["reportable"] is False
    assert len(record["raw"]["setup_s"]) >= 2  # this process's own and a cold child's
    assert record["passes"] >= harness.MIN_PASSES
    assert record["passes"] == len(record["raw"]["ops_per_s"])
    for key in ("commit", "python", "nproc", "affinity", "inputs_sha256", "seed"):
        assert key in record


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_run_emits_exactly_the_per_layer_metrics(workload):
    code, result, record = run_cli(workload, 1)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == list(spec.PER_LAYER_NAMES)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert record["violations"] == []
    # The listed self times and the unattributed rest add up to the wall clock.
    self_times = sum(
        value for name, value in values.items()
        if name.endswith("_self_s") or name.startswith("pipeline.stage.")
        or name == "pipeline.unattributed_s"
    )
    wall = values["trace.wall_s"]
    assert abs(self_times + values["trace.unattributed_s"] - wall) <= 0.02 * wall
    spans = spans_path(workload, "tiny").read_text().splitlines()
    assert spans and set(json.loads(spans[0])) == {"name", "start", "end", "parent", "op", "thread"}


def test_timed_loop_cuts_a_pass_into_segments_and_bursts():
    seen: list[int] = []
    result = timed_loop(seen.append, list(range(25)), segment_ops=10, burst=4)
    assert seen == list(range(25)) and result.ops == 25
    assert len(result.segment_wall) == len(result.segment_cpu) == 3  # 10 + 10 + 5 calls
    assert len(result.latencies) == 3 + 3 + 2  # bursts never straddle a segment
    assert sum(result.segment_wall) <= result.wall_s
    answers: list = []
    timed_loop(lambda item: item * 2, [1, 2, 3], segment_ops=2, collect=answers)
    assert answers == [2, 4, 6]


def test_best_case_keeps_every_segment_and_operation_at_its_fastest():
    best = harness.BestCase()
    best.fold(PassResult(9.0, 9.0, 2, [3.0, 1.0], [5.0, 2.0], [4.0, 2.0]))
    best.fold(PassResult(9.0, 9.0, 2, [2.0, 4.0], [1.0, 6.0], [1.0, 5.0]))
    assert (best.latencies, best.segment_wall, best.segment_cpu) == (
        [2.0, 1.0], [1.0, 2.0], [1.0, 2.0]
    )
    assert best.best_latencies() == [2.0, 1.0]
    with pytest.raises(RuntimeError):  # a pass that did other work is not comparable
        best.fold(PassResult(9.0, 9.0, 3, [1.0, 1.0, 1.0], [1.0, 1.0], [1.0, 1.0]))


def test_an_operation_of_several_segments_is_put_together_from_their_best():
    best = harness.BestCase()
    spans = [(0, 2), (2, 3)]  # the first operation is segments 0 and 1
    best.fold(PassResult(9.0, 9.0, 2, [7.0, 3.0], [5.0, 2.0, 3.0], [0.0] * 3, op_segments=spans))
    best.fold(PassResult(9.0, 9.0, 2, [7.5, 2.0], [1.0, 6.5, 2.0], [0.0] * 3, op_segments=spans))
    assert best.best_latencies() == [1.0 + 2.0, 2.0]


def test_in_child_hands_back_the_result_and_reports_a_failure():
    assert harness.in_child(os.getpid) != os.getpid()
    assert harness.in_child(sorted, [3, 1, 2]) == [1, 2, 3]
    with pytest.raises(RuntimeError):
        harness.in_child(lambda: 1 / 0)


def test_same_seed_same_inputs_other_seed_other_inputs():
    _c, _r, first = run_cli("serve_miss", 0, seed=3)
    _c, _r, again = run_cli("serve_miss", 0, seed=3)
    _c, _r, other = run_cli("serve_miss", 0, seed=4)
    assert first["inputs_sha256"] == again["inputs_sha256"] != other["inputs_sha256"]
    exact = "fetches_per_indexed_url"
    assert first["metrics"][exact] == again["metrics"][exact]


def test_layers_a_workload_bypasses_read_zero():
    _code, result, _record = run_cli("serve_hit", 1)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["serve.cache_hit_ratio"] >= 0.99
    assert values["serve.frontend_self_s"] > 0
    assert values["search.index_score_self_s"] == 0 and values["store.search_calls"] == 0
    _code, result, _record = run_cli("cluster_scatter", 1)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["cluster.direct_ops_per_s"] > 0 and values["cluster.tasks_per_query"] == 8
    assert values["cluster.node_accumulate_s"] > 0 and values["serve.frontend_self_s"] == 0


def test_a_corrupted_answer_raises_failed_share_and_the_exit_code(monkeypatch, capsys):
    from repro.serve.frontend import QueryFrontend

    honest = QueryFrontend.serve

    def lossy(self, query, k=10):
        return honest(self, query, k)[:-1]  # drops the last hit of every answer

    monkeypatch.setattr(QueryFrontend, "serve", lossy)
    affinity = os.sched_getaffinity(0)
    try:
        record = harness.run_workload("serve_miss", 3, 0.2, False, "tiny")
        assert record.failed > 0 and record.correct is False
        traced = harness.run_workload("serve_miss", 3, 0.2, True, "tiny")
        assert traced.metrics["process.failed_share"]["value"] > 0
        code = cli.main(
            ["run", "--workload", "serve_miss", "--seed", "3", "--seconds", "0.2",
             "--trace", "0", "--scale", "tiny"]
        )
    finally:
        os.sched_setaffinity(0, affinity)
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and
    bench/ exist; it must exit non-zero there and print no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "serve_hit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
