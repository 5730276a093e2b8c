"""The referee's verdicts on hand-made run files."""

import json

import pytest

from bench import cli, spec
from bench.compare import CompareError, compare

BASE = {
    "setup_s": 2.0, "ops_per_s": 1000.0, "cpu_ms_per_op": 1.0, "latency_p50_us": 100.0,
    "latency_tail_us": 400.0, "peak_rss_mb": 100.0, "fetches_per_indexed_url": 3.0,
}


def record(workload, scale=None, jitter=0.0, sha="abc"):
    values = dict(BASE, **(scale or {}))
    return {
        "workload": workload, "trace": 0, "inputs_sha256": sha,
        "metrics": {
            name: {"value": value * (1.0 + jitter), "unit": spec.UNITS[name]}
            for name, value in values.items()
        },
        "raw": {},
    }


def run_file(tmp_path, name, records, reportable=True):
    path = tmp_path / name
    path.write_text(json.dumps({"kind": "bench-run", "reportable": reportable, "runs": records}))
    return path


def steady(workload, scale=None):
    return [record(workload, scale, jitter) for jitter in (-0.004, -0.002, 0.0, 0.002, 0.004)]


def verdicts(lines):
    return {tuple(line.split()[:2]): line.split()[-1] for line in lines[1:]}


def test_within_bound_worse_and_better(tmp_path):
    a = run_file(tmp_path, "a.json", steady("serve_miss"))
    slower = run_file(tmp_path, "b.json", steady("serve_miss", {"ops_per_s": 700.0}))
    lines, any_worse = compare(a, slower)
    found = verdicts(lines)
    assert any_worse
    assert found[("serve_miss", "ops_per_s")] == "worse"
    assert found[("serve_miss", "latency_p50_us")] == "within-bound"

    faster = run_file(tmp_path, "c.json", steady("serve_miss", {"latency_p50_us": 80.0}))
    lines, any_worse = compare(a, faster)
    assert not any_worse
    assert verdicts(lines)[("serve_miss", "latency_p50_us")] == "better"


def test_a_noisy_base_is_unresolved_not_worse(tmp_path):
    noisy = [record("restart", jitter=j) for j in (-0.4, -0.2, 0.0, 0.2, 0.4)]
    a = run_file(tmp_path, "a.json", noisy)
    b = run_file(tmp_path, "b.json", steady("restart", {"ops_per_s": 800.0}))
    lines, any_worse = compare(a, b)
    assert not any_worse
    assert verdicts(lines)[("restart", "ops_per_s")] == "unresolved"


def test_single_run_falls_back_to_per_pass_spread(tmp_path):
    single = record("serve_hit")
    single["raw"] = {"ops_per_s": [600.0, 800.0, 1000.0, 1200.0, 1400.0]}
    a = run_file(tmp_path, "a.json", [single])
    b = run_file(tmp_path, "b.json", [record("serve_hit", {"ops_per_s": 700.0})])
    assert verdicts(compare(a, b)[0])[("serve_hit", "ops_per_s")] == "unresolved"


def test_different_inputs_are_called_out(tmp_path):
    a = run_file(tmp_path, "a.json", steady("serve_hit"))
    b = run_file(tmp_path, "b.json", [record("serve_hit", sha="other")])
    assert any("inputs_sha256 differ" in line for line in compare(a, b)[0])


def test_tiny_scale_files_are_refused(tmp_path, capsys):
    a = run_file(tmp_path, "a.json", steady("serve_hit"), reportable=False)
    with pytest.raises(CompareError):
        compare(a, a)
    assert cli.main(["compare", str(a), str(a)]) == 2


def test_exit_code_follows_the_verdict(tmp_path, capsys):
    a = run_file(tmp_path, "a.json", steady("serve_miss"))
    b = run_file(tmp_path, "b.json", steady("serve_miss", {"cpu_ms_per_op": 2.0}))
    assert cli.main(["compare", str(a), str(a)]) == 0
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
