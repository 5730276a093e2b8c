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

``--entry`` runs the same tracer over the production entry points instead
of the tests (``ENTRY_SCRIPTS`` and every bench workload at ``--scale
tiny``) and lists each ``src/repro`` function none of them executes.  The
list must equal ``scripts/unreached_functions.txt``: a function missing
from that file fails the run (reach it from production or delete it), and
a line whose function is now reached or gone fails it too (delete the
line), so the file only ever shrinks.

    PYTHONPATH=src python scripts/coverage_gate.py --entry    # reachability ratchet
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

#: Minimum acceptable total line coverage (percent) of ``src/repro``
#: under the tier-1 suite.  Measured at 96.9% (settrace, this script);
#: the floor sits a few points below to absorb tool differences
#: (pytest-cov in CI).  It only ever moves up.
COVERAGE_FLOOR = 93

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: The production entry points ``--entry`` runs, each as ``__main__`` with
#: its default arguments; every bench workload at ``--scale tiny`` runs too.
ENTRY_SCRIPTS = (
    "examples/quickstart.py",
    "examples/federated_search.py",
    "examples/durable_service.py",
    "examples/cluster_serving.py",
    "scripts/serve_demo.py",
)
#: Seconds each bench workload runs for (it always runs its minimum passes).
ENTRY_WORKLOAD_SECONDS = 0.1
#: ``path:qualname  # reason`` per function no entry point executes, sorted.
UNREACHED_FILE = REPO_ROOT / "scripts" / "unreached_functions.txt"


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


def function_bodies(path: Path) -> dict[str, set[int]]:
    """``qualname -> body lines`` of every function defined in ``path``.

    The body starts after the docstring, so a function counts as reached
    only when one of its statements ran (its ``def`` line runs at import).
    A nested function's lines count for its parent too, which must have run
    to define it; a property's getter and setter share one qualname."""
    bodies: dict[str, set[int]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                body = child.body
                if len(body) > 1 and ast.get_docstring(child) is not None:
                    body = body[1:]
                lines = bodies.setdefault(qualname, set())
                lines.update(range(body[0].lineno, child.end_lineno + 1))
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return bodies


def all_functions() -> dict[str, set[int]]:
    """``src/repro/...py:qualname -> body lines`` over the whole package."""
    return {
        f"{path.relative_to(REPO_ROOT)}:{qualname}": lines
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for qualname, lines in function_bodies(path).items()
    }


def read_unreached_file() -> dict[str, str]:
    """``path:qualname -> reason`` of the committed ratchet file."""
    entries: dict[str, str] = {}
    for line in UNREACHED_FILE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition("#")
            entries[key.strip()] = reason.strip()
    return entries


def run_entry_points() -> dict[str, set[int]]:
    """Run every production entry point under the collector; executed lines.

    Their output is swallowed and anything they leave in the temporary
    directory is removed.  The package is imported under the collector, so
    code that runs at import counts.  Bench workloads run first: a forked
    pass needs a process with one thread."""
    sys.path.insert(0, str(REPO_ROOT))
    collector = LineCollector(SRC_ROOT)
    affinity = os.sched_getaffinity(0)
    saved_argv, saved_tempdir = sys.argv, tempfile.tempdir
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        tempfile.tempdir = scratch
        collector.install()
        try:
            from bench import harness, spec

            for name in spec.WORKLOAD_NAMES:
                record = harness.run_workload(name, 1, ENTRY_WORKLOAD_SECONDS, False, "tiny")
                os.sched_setaffinity(0, affinity)  # a pinned workload pins the process
                if not record.correct:
                    raise SystemExit(f"entry point failed: bench workload {name}")
            for script in ENTRY_SCRIPTS:
                sys.argv = [str(REPO_ROOT / script)]
                try:
                    runpy.run_path(sys.argv[0], run_name="__main__")
                except SystemExit as stop:
                    if stop.code not in (None, 0):
                        raise SystemExit(f"entry point failed: {script} exited {stop.code}")
        finally:
            collector.uninstall()
            sys.argv, tempfile.tempdir = saved_argv, saved_tempdir
    return collector.executed


def entry_gate() -> int:
    """The reachability ratchet: unreached functions against the committed file."""
    executed = run_entry_points()
    unreached = sorted(
        key for key, lines in all_functions().items()
        if not lines & executed.get(str(REPO_ROOT / key.partition(":")[0]), set())
    )
    for key in unreached:
        print(key)
    committed = read_unreached_file()
    new = [key for key in unreached if key not in committed]
    stale = sorted(set(committed) - set(unreached))
    print(f"unreached from production: {len(unreached)} functions")
    for key in new:
        print(f"new unreached function: {key} (reach it from production or delete it)",
              file=sys.stderr)
    for key in stale:
        print(f"reached or deleted: {key} (delete its line from {UNREACHED_FILE.name})",
              file=sys.stderr)
    if new or stale:
        print("reachability gate: FAIL", file=sys.stderr)
        return 1
    print("reachability gate: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--print-floor", action="store_true",
        help="print COVERAGE_FLOOR and exit (CI reads the gate from here)",
    )
    parser.add_argument(
        "--worst", type=int, default=10, help="how many lowest-coverage files to list"
    )
    parser.add_argument(
        "--entry", action="store_true",
        help="trace the production entry points and gate the unreached functions",
    )
    args, pytest_args = parser.parse_known_args(argv)
    if args.print_floor:
        print(COVERAGE_FLOOR)
        return 0
    if args.entry:
        return entry_gate()

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
