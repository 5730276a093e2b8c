"""``python -m bench compare A.json B.json``: the referee.

Per (workload, end-to-end metric) it prints both medians, the relative
difference with its base, the metric's bound and a verdict:

- ``unresolved``  A's own runs spread wider than the bound, so a
  difference of that size proves nothing -- unless every run of B reads
  better than every run of A, which is ``better``;
- ``worse``       B's median is worse than A's by more than the bound;
- ``better``      B's median is better by more than A's spread and every
  run of B reads better than every run of A;
- ``within-bound`` otherwise.

A's spread is the distance between the quartiles of its runs as a share
of their median; with fewer than four runs it falls back to the per-pass
values the single run recorded.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench import spec, stats

VERDICT_BETTER = "better"
VERDICT_WORSE = "worse"
VERDICT_WITHIN = "within-bound"
VERDICT_UNRESOLVED = "unresolved"
MIN_RUNS_FOR_SPREAD = 4


class CompareError(ValueError):
    """A run file this tool must not referee."""


def load_run_file(path: str | Path) -> dict[str, list[dict]]:
    """End-to-end records of a run file, by workload."""
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "bench-run":
        raise CompareError(f"{path}: not a bench run file")
    if not payload.get("reportable"):
        raise CompareError(f"{path}: not reportable (made with --scale tiny)")
    by_workload: dict[str, list[dict]] = {}
    for record in payload["runs"]:
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def values_of(records: list[dict], name: str) -> list[float]:
    return [record["metrics"][name]["value"] for record in records]


def own_spread(records: list[dict], name: str) -> float:
    values = values_of(records, name)
    if len(values) >= MIN_RUNS_FOR_SPREAD:
        return stats.spread(values)
    per_pass = records[0]["raw"].get(name, [])
    return stats.spread(per_pass) if len(per_pass) >= MIN_RUNS_FOR_SPREAD else 0.0


def verdict(
    a: list[float], b: list[float], spread: float, metric: spec.Metric
) -> tuple[str, float]:
    """``(verdict, relative worsening)``; the base of the ratio is A's median."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / base if base else 0.0
    all_better = max(sign * value for value in b) < min(sign * value for value in a)
    if spread > metric.bound:
        return (VERDICT_BETTER if all_better else VERDICT_UNRESOLVED), worsening
    if worsening > metric.bound:
        return VERDICT_WORSE, worsening
    if all_better and -worsening > spread:
        return VERDICT_BETTER, worsening
    return VERDICT_WITHIN, worsening


def compare(path_a: str | Path, path_b: str | Path) -> tuple[list[str], bool]:
    """Report lines, and whether any pairing is ``worse``."""
    runs_a, runs_b = load_run_file(path_a), load_run_file(path_b)
    lines = [
        f"{'workload':16s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
        f"{'B vs A':>8s} {'A spread':>8s} {'bound':>6s}  verdict"
    ]
    any_worse = False
    for workload in spec.WORKLOAD_NAMES:
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in spec.END_TO_END:
            a = values_of(runs_a[workload], metric.name)
            b = values_of(runs_b[workload], metric.name)
            spread = own_spread(runs_a[workload], metric.name)
            outcome, worsening = verdict(a, b, spread, metric)
            any_worse = any_worse or outcome == VERDICT_WORSE
            change = worsening if metric.better == "lower" else -worsening
            lines.append(
                f"{workload:16s} {metric.name:24s} {statistics.median(a):12.6g} "
                f"{statistics.median(b):12.6g} {change:+8.1%} {spread:8.1%} "
                f"{metric.bound:6.0%}  {outcome}"
            )
        sha_a = {record["inputs_sha256"] for record in runs_a[workload]}
        sha_b = {record["inputs_sha256"] for record in runs_b[workload]}
        if sha_a != sha_b:
            lines.append(f"{workload:16s} inputs_sha256 differ: the two sides ran different inputs")
    return lines, any_worse
