"""Command line: ``run`` and ``compare``.

``run --workload W --seed N --seconds S --trace T`` is the form the
driver uses: one workload, one mode, in this process, the result as one
JSON object on the last line of standard output.  Without ``--workload``
or ``--trace`` it runs every selected workload and mode, each in a
process of its own, and gathers the records into one run file for
``compare``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench import spec


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    run.add_argument("--trace", type=int, choices=(0, 1))
    run.add_argument("--scale", choices=("full", "tiny"), default="full")
    run.add_argument("--runs", type=int, default=1,
                     help="repeat with seeds SEED .. SEED+RUNS-1 (all-workloads form)")
    run.add_argument("--out", type=Path, help="run file to write (all-workloads form)")
    compare = commands.add_parser("compare", help="referee two run files")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    from bench import harness

    record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    harness.print_record(record)
    return 0 if record.correct else 1


def run_all(args: argparse.Namespace) -> int:
    from bench.workloads import OUT_DIR, SCALES, record_path

    workloads = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    modes = [args.trace] if args.trace is not None else [0, 1]
    records = []
    failures = 0
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            for mode in modes:
                command = [
                    sys.executable, "-m", "bench", "run", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(mode), "--scale", args.scale,
                ]
                path = record_path(workload, args.scale, seed, mode)
                path.unlink(missing_ok=True)  # never gather a stale record
                done = subprocess.run(command, cwd=Path(__file__).resolve().parent.parent)
                failures += done.returncode != 0
                if path.exists():
                    records.append(json.loads(path.read_text()))
    out = args.out or OUT_DIR / f"run-seed{args.seed}.json"
    out.write_text(
        json.dumps(
            {"kind": "bench-run", "reportable": SCALES[args.scale].reportable, "runs": records},
            indent=1,
        )
        + "\n"
    )
    print(f"# wrote {out} ({len(records)} records, {failures} failed)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.command == "compare":
        from bench.compare import CompareError, compare

        try:
            lines, any_worse = compare(args.a, args.b)
        except CompareError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 1 if any_worse else 0
    if args.workload and args.trace is not None and args.runs == 1 and args.out is None:
        return run_one(args)
    return run_all(args)
