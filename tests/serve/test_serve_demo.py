"""Smoke coverage for ``scripts/serve_demo.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "serve_demo.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("serve_demo", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
def test_serve_demo_runs_and_reports(capsys):
    demo = load_demo()
    exit_code = demo.main(
        ["--queries", "120", "--workers", "2", "--sites", "1", "--seed", "5"]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "served: 120\n" in out
    assert "hit rate" in out
    assert "throughput:" in out
    assert "queries with at least one result:" in out
