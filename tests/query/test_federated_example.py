"""Smoke coverage for ``examples/federated_search.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "examples" / "federated_search.py"


def load_example():
    spec = importlib.util.spec_from_file_location("federated_search", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
def test_federated_search_example_runs(capsys):
    example = load_example()
    exit_code = example.main(["--sites", "2", "--seed", "41", "--live-budget", "3"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "include_webtables=False) ->" in out
    assert "routes: indexed" in out
    assert "fingerprint: plan:" in out
    assert "query planning:" in out
