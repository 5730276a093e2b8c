"""The committed list of functions no production entry point runs stays exact.

``scripts/coverage_gate.py --entry`` traces the entry points and compares
against ``scripts/unreached_functions.txt``; that takes half a minute, so
tier-1 checks the file's shape with ``ast`` alone: a deleted or renamed
function whose line was left behind fails here at once.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "coverage_gate", REPO_ROOT / "scripts" / "coverage_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_gate()
LINES = [
    line
    for line in gate.UNREACHED_FILE.read_text().splitlines()
    if line.strip() and not line.startswith("#")
]
KEYS = [line.partition("#")[0].strip() for line in LINES]


def test_entries_are_sorted_and_unique():
    assert KEYS == sorted(set(KEYS))


def test_every_entry_names_a_function_in_the_package():
    functions = gate.all_functions()
    assert [key for key in KEYS if key not in functions] == []


def test_every_entry_gives_a_reason():
    assert [line for line in LINES if not line.partition("#")[2].strip()] == []
    assert all("  # " in line for line in LINES)
    assert gate.read_unreached_file().keys() == set(KEYS)
