"""Shared fixtures for the benchmark/experiment harness.

Every benchmark regenerates one quantitative claim of the paper (each
file's docstring names the claim and the paper section).  Expensive
artefacts -- the generated web, the crawl, the surfacing run and the query
log -- are built once per session and shared; benchmarks time the
interesting operation with ``benchmark.pedantic`` (a single round) and then
assert on the *shape* of the result, printing its rows (``-s`` shows them).
"""

from __future__ import annotations

import pytest

from repro import SurfacingConfig
from repro.analysis.experiments import build_query_log, build_world, surface_world


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the opt-in ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_world():
    """A small crawled world shared by all benchmarks (read-only)."""
    return build_world("small")


@pytest.fixture(scope="session")
def surfaced_bench_world(bench_world):
    """The same world after surfacing and query-log generation (read-only)."""
    if not bench_world.surfacing_results:
        surface_world(bench_world, SurfacingConfig(max_urls_per_form=200))
    if bench_world.query_log is None:
        build_query_log(bench_world)
    return bench_world


def print_table(title: str, rows: list[tuple], header: tuple = ()) -> None:
    """Print a small aligned table (captured by pytest, shown with -s)."""
    print(f"\n== {title} ==")
    if header:
        print(" | ".join(str(cell) for cell in header))
    for row in rows:
        print(" | ".join(str(cell) for cell in row))
