#!/usr/bin/env sh
# Opt-in timing smoke tests (REPRO_PERF=1, `-m perf`).  Throughput and
# latency numbers come from the benchmark: `python -m bench run`.
set -eu
cd "$(dirname "$0")/.."
REPRO_PERF=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest tests/perf -m perf -q -p no:cacheprovider
