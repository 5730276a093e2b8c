#!/usr/bin/env python
"""Line-coverage gate for the tier-1 suite (dependency-free fallback).

CI gates coverage with pytest-cov (see ``.github/workflows/ci.yml``),
reading the floor from this file so there is a single source of truth:

    python -m pytest -q --cov=repro --cov-fail-under="$(python scripts/coverage_gate.py --print-floor)"

The container that develops this repo has no ``coverage``/``pytest-cov``
wheel, so this script also implements the measurement itself with
``sys.settrace``: it runs the tier-1 suite, records every executed line
of every module under ``src/repro``, and compares against the executable
lines reported by the compiled code objects.  The two tools agree to
within a couple of points (they differ on docstring/`pass` accounting),
which is why ``COVERAGE_FLOOR`` is set a few points below the measured
baseline -- the gate exists to catch *regressions*, not to chase decimals.

    PYTHONPATH=src python scripts/coverage_gate.py            # measure + gate
    python scripts/coverage_gate.py --print-floor             # emit the floor
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

#: Minimum acceptable total line coverage (percent) of ``src/repro``
#: under the tier-1 suite.  Measured at 96.9% (settrace, this script);
#: the floor sits a few points below to absorb tool differences
#: (pytest-cov in CI).  It only ever moves up.
COVERAGE_FLOOR = 93

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"


def executable_lines(path: Path) -> set[int]:
    """Line numbers the compiler marks executable, over all code objects."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for _, _, line in current.co_lines():
            if line is not None:
                lines.add(line)
        for const in current.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


class LineCollector:
    """A settrace hook recording executed lines of files under one root."""

    def __init__(self, root: Path) -> None:
        self._prefix = str(root) + "/"
        self.executed: dict[str, set[int]] = {}

    def install(self) -> None:
        sys.settrace(self._global_trace)
        threading.settrace(self._global_trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _global_trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None  # skip tracing this frame entirely
        lines = self.executed.setdefault(filename, set())

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        if event == "call":
            lines.add(frame.f_lineno)
        return local_trace


def measure(pytest_args: list[str]) -> tuple[float, list[tuple[str, float, int]]]:
    """Run pytest under the collector; returns (total %, per-file rows)."""
    import pytest

    collector = LineCollector(SRC_ROOT)
    collector.install()
    try:
        exit_code = pytest.main(["-q", *pytest_args])
    finally:
        collector.uninstall()
    if exit_code != 0:
        print(f"coverage gate: test run failed (pytest exit {exit_code})", file=sys.stderr)
        raise SystemExit(int(exit_code))

    total_executable = 0
    total_covered = 0
    rows: list[tuple[str, float, int]] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        executable = executable_lines(path)
        if not executable:
            continue
        covered = executed & executable if (executed := collector.executed.get(str(path), set())) else set()
        total_executable += len(executable)
        total_covered += len(covered)
        missed = len(executable) - len(covered)
        rows.append(
            (str(path.relative_to(REPO_ROOT)), 100.0 * len(covered) / len(executable), missed)
        )
    total = 100.0 * total_covered / total_executable if total_executable else 0.0
    return total, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--print-floor", action="store_true",
        help="print COVERAGE_FLOOR and exit (CI reads the gate from here)",
    )
    parser.add_argument(
        "--worst", type=int, default=10, help="how many lowest-coverage files to list"
    )
    args, pytest_args = parser.parse_known_args(argv)
    if args.print_floor:
        print(COVERAGE_FLOOR)
        return 0

    total, rows = measure(pytest_args)
    print(f"\n== line coverage over src/repro (settrace) ==")
    for name, percent, missed in sorted(rows, key=lambda row: row[1])[: args.worst]:
        print(f"  {percent:6.1f}%  {name}  ({missed} lines missed)")
    print(f"TOTAL {total:.1f}% (floor: {COVERAGE_FLOOR}%)")
    if total < COVERAGE_FLOOR:
        print("coverage gate: FAIL — coverage regressed below the floor", file=sys.stderr)
        return 1
    print("coverage gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
