#!/usr/bin/env sh
# Referee the working tree against a parent commit by the choosing-metrics
# rule: PAIRS parent/change pairs per workload, same seeds (1..PAIRS) on both
# sides, which side runs first flipped every pair.
#
#   scripts/bench_pairs.sh PARENT_REF [-w WORKLOAD]... [-n PAIRS=10]
#
# The parent's committed files are unpacked (`git archive`) into a temporary
# directory that is removed on exit; each side's records are gathered into
# bench/out/pairs-{parent,change}.json and handed to `python -m bench compare`.
# Exit status: 1 if any run failed its oracle or could not run, else compare's.
# A run that wrote no record is named (side, workload, seed) on stderr and
# nothing is compared.
set -eu
usage() { sed -n '2,7p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent_ref=$1
shift
workloads=
pairs=10
while getopts "w:n:" option; do
    case $option in
        w) workloads="$workloads $OPTARG" ;;
        n) pairs=$OPTARG ;;
        *) usage ;;
    esac
done
cd "$(dirname "$0")/.."
change_dir=$(pwd)
[ -n "$workloads" ] || workloads=$(python3 -c \
    'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')

parent_dir=$(mktemp -d)
trap 'rm -rf "$parent_dir"' EXIT
git archive "$parent_ref" | tar -x -C "$parent_dir"

failures=0
run_side() {  # DIR WORKLOAD SEED
    rm -f "$1/bench/out/$2.full.seed$3.trace0.json"  # never gather a stale record
    (cd "$1" && python3 -m bench run --workload "$2" --seed "$3" --trace 0 >/dev/null) \
        || failures=$((failures + 1))
}
for workload in $workloads; do
    seed=1
    while [ "$seed" -le "$pairs" ]; do
        echo "# $workload seed $seed" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run_side "$parent_dir" "$workload" "$seed"
            run_side "$change_dir" "$workload" "$seed"
        else
            run_side "$change_dir" "$workload" "$seed"
            run_side "$parent_dir" "$workload" "$seed"
        fi
        seed=$((seed + 1))
    done
done

gather() {  # SIDE DIR OUT; names every run that wrote no record, then fails
    python3 - "$1" "$2" "$3" "$pairs" $workloads <<'EOF'
import json, sys
from pathlib import Path

side, directory, out, pairs, *workloads = sys.argv[1:]
paths = {
    (workload, seed): Path(directory) / "bench" / "out" / f"{workload}.full.seed{seed}.trace0.json"
    for workload in workloads
    for seed in range(1, int(pairs) + 1)
}
missing = [key for key, path in paths.items() if not path.exists()]
for workload, seed in missing:
    print(f"missing run: side={side} workload={workload} seed={seed}", file=sys.stderr)
if missing:
    sys.exit(1)
records = [json.loads(path.read_text()) for path in paths.values()]
Path(out).write_text(json.dumps({"kind": "bench-run", "reportable": True, "runs": records}, indent=1) + "\n")
EOF
}
gathered=yes
gather parent "$parent_dir" bench/out/pairs-parent.json || gathered=no
gather change "$change_dir" bench/out/pairs-change.json || gathered=no
if [ "$gathered" = no ]; then
    echo "not comparing: the runs named above wrote no record" >&2
    exit 1
fi
python3 -m bench compare bench/out/pairs-parent.json bench/out/pairs-change.json || failures=$((failures + 1))
[ "$failures" -eq 0 ]
