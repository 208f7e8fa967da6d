#!/usr/bin/env bash
# Alternating benchmark rounds of two checkouts, then the compare rule.
#
#   perf/run.sh [-n ROUNDS] [-o OUTDIR] PARENT [CHANGE] [WORKLOAD...]
#
# PARENT and CHANGE are checkout roots (each with this perf/ package).
# Each checkout's benchmark is built once into its own perf/target.
# Round i runs every workload at seed i on both sides, the parent first
# in odd rounds and the change first in even ones, at the benchmark's
# fixed run length. Results go to OUTDIR/parent and OUTDIR/change.
# `pkvm-perf compare` then judges the pairs; a failed run leaves an
# incorrect result, which fails the comparison. With only PARENT, the
# rounds run one side into OUTDIR/parent, which is how the baseline is
# measured.
set -euo pipefail

rounds=10
outdir=""
while getopts "n:o:" opt; do
    case "$opt" in
        n) rounds="$OPTARG" ;;
        o) outdir="$OPTARG" ;;
        *) sed -n '2,13p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || { sed -n '2,13p' "$0" >&2; exit 2; }

parent=$(cd "$1" && pwd)
shift
change=""
if [ $# -ge 1 ] && [ -d "$1/perf" ]; then
    change=$(cd "$1" && pwd)
    shift
fi
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(random_e3 android_mix trace_replay fuzz_burst)
outdir=${outdir:-$parent/perf/target/rounds}

build() {
    cargo build --release --quiet --offline \
        --manifest-path "$1/perf/Cargo.toml" --target-dir "$1/perf/target"
}

# Runs one benchmark of checkout $1 (side $2) for workload $3, seed $4.
bench() {
    mkdir -p "$outdir/$2"
    echo "round $4: $2 $3" >&2
    CARGO_TARGET_DIR="$1/perf/target" "$1/perf/target/release/pkvm-perf" \
        run "$3" --seed "$4" --out "$outdir/$2/$3-$4.json" \
        > /dev/null || echo "  $2 $3 seed $4 failed its checks" >&2
}

build "$parent"
[ -z "$change" ] || build "$change"

for round in $(seq 1 "$rounds"); do
    for w in "${workloads[@]}"; do
        if [ -z "$change" ]; then
            bench "$parent" parent "$w" "$round"
        elif [ $((round % 2)) -eq 1 ]; then
            bench "$parent" parent "$w" "$round"
            bench "$change" change "$w" "$round"
        else
            bench "$change" change "$w" "$round"
            bench "$parent" parent "$w" "$round"
        fi
    done
done

if [ -n "$change" ]; then
    "$change/perf/target/release/pkvm-perf" compare "$outdir/parent" "$outdir/change"
fi
