"""``BENCHMARK.json`` and ``bench/spec.py`` say the same thing, within the
driver's limits."""

import json
import re
from pathlib import Path

from bench import spec, trace
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_mirrors_the_spec_module():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_names_units_and_limits():
    names = [*spec.WORKLOAD_NAMES, *spec.END_TO_END_NAMES, *spec.PER_LAYER_NAMES]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(unit) for unit in spec.UNITS.values())
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert all(m.better in ("lower", "higher") for m in (*spec.END_TO_END, *spec.PER_LAYER))
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert len(json.dumps(spec.benchmark_json())) < 64 * 1024


def test_every_workload_named_has_code_and_vice_versa():
    assert set(WORKLOADS) == set(spec.WORKLOAD_NAMES)


def test_every_span_feeds_a_listed_metric():
    for target in trace.SPAN_TABLE:
        assert target.self_metric in spec.PER_LAYER_NAMES
        assert target.calls_metric is None or target.calls_metric in spec.PER_LAYER_NAMES
