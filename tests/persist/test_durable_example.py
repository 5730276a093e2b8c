"""Smoke coverage for ``examples/durable_service.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "examples" / "durable_service.py"


def load_example():
    spec = importlib.util.spec_from_file_location("durable_service", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
def test_durable_example_runs_end_to_end(tmp_path, capsys):
    example = load_example()
    exit_code = example.main(str(tmp_path / "state"))
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "4 sites completed" in out
    assert "byte-identical to the cold build, 0 surfacer fetches" in out
    assert "(restored from snapshot)" in out
    assert "with 0 surfacer fetches" in out
    # One container per persisted service: the store and the snapshot.
    assert sorted(path.name for path in (tmp_path / "state").iterdir()) == [
        "snapshot.sqlite3",
        "store.sqlite3",
    ]
