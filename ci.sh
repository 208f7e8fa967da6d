#!/usr/bin/env bash
# The full local gate: everything CI would run, in dependency order.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Every gate's trace files, corpora and fleet roots live here.
TMP="$(mktemp -d -t pkvmci.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

# same_verdict <prefix> <first> <second>: runs two example command lines
# (each one string: the example's name, then its arguments) as separate
# processes and fails unless the lines starting with <prefix> that they
# print are byte-identical.
same_verdict() {
    local prefix="$1" first second
    local -a a b
    read -ra a <<< "$2"
    read -ra b <<< "$3"
    first="$(cargo run --release --example "${a[0]}" -- "${a[@]:1}" | grep "^$prefix")"
    second="$(cargo run --release --example "${b[0]}" -- "${b[@]:1}" | grep "^$prefix")"
    echo "  $2"
    echo "    $first"
    echo "  $3"
    echo "    $second"
    if [ "$first" != "$second" ]; then
        echo "'$prefix' line differs between the two processes" >&2
        exit 1
    fi
}

echo "== build (release) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test --workspace -q

echo "== benchmark tests (perf/, its own workspace) =="
# The benchmark builds against the crates' public API; an API change that
# breaks it fails here rather than at the next benchmark run.
cargo test -q --manifest-path perf/Cargo.toml

echo "== benchmark smoke (every workload, 5 s each) =="
# Each run checks its outputs (clean verdicts, mode agreement, pinned
# traffic digests) and exits non-zero on any failure, so a change that
# alters a workload's traffic or verdicts fails here, not only at the
# next benchmark comparison. Only the steps/s lines are shown.
for w in random_e3 android_mix trace_replay fuzz_burst; do
    echo "  $w"
    cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
        run "$w" --seconds 5 | grep '^steps_per_s' | sed 's/^/    /'
done

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# A deleted or renamed item that a doc comment still links to fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== rustfmt =="
cargo fmt --all -- --check

echo "== bench smoke (PKVM_BENCH_QUICK=1) =="
PKVM_BENCH_QUICK=1 cargo bench -p pkvm-bench

echo "== quick campaign (2 workers, fixed seed) =="
# A short concurrent random-testing campaign under the oracle; the example
# exits non-zero on any violation or panic, so a concurrency regression in
# the oracle or the hypervisor fails the gate.
cargo run --release --example campaign -- 2 500 0xc1

echo "== chaos campaign (fixed seed, all hook families) =="
# Corrupts the oracle's inputs for a whole campaign, then replays the
# recorded trace twice; exits non-zero if the oracle (rather than the
# containment layer) crashes or the chaotic replay diverges.
cargo run --release --example chaos -- campaign 0xc2

echo "== trace-file record/replay (fresh-process determinism) =="
# Records a fixed-seed chaotic campaign to a .pkvmtrace file, replays it
# from disk in a *separate* process, and asserts the canonical verdict
# lines (violation counts, kinds, event sequence ids, panic, steps) are
# byte-identical. Fails if persistence or cross-process replay drifts.
TRACE="$TMP/chaos.pkvmtrace"
same_verdict verdict: "chaos record $TRACE 0xc2 400" "chaos replay $TRACE"
cargo run --release --example trace_inspect -- "$TRACE" summary > /dev/null
cargo run --release --example trace_inspect -- "$TRACE" stats > /dev/null

echo "== compaction gate (observation-only drop preserves the verdict) =="
# Rewrites the recorded trace without its observation-only families and
# replays the compacted file: the canonical verdict line must be
# byte-identical to the original trace's.
cargo run --release --example trace_inspect -- "$TRACE" compact "$TMP/compact.pkvmtrace" \
    read-once lock-acquired lock-releasing trap-enter trap-exit chaos check
same_verdict verdict: "chaos replay $TRACE" "chaos replay $TMP/compact.pkvmtrace"

echo "== differential gate (fault-catalog replay matrix, fresh-process determinism) =="
# Records one clean fixed-seed schedule, replays it against the clean
# hypervisor and every cataloged fault, and enforces: clean row
# violation-free, at least 14/17 faults diverging (only the race-window
# and init-shape bugs are structurally out of a single-threaded
# schedule's reach), and a bit-identical canonical matrix line when the
# matrix is recomputed in a *second* process.
cargo run --release --example differential -- record "$TMP/diff.pkvmtrace" 0x42 2500
same_verdict diff-matrix: "differential gate $TMP/diff.pkvmtrace 14" \
    "differential matrix $TMP/diff.pkvmtrace"

echo "== fuzz gate (fixed seed, coverage vs random + corpus round-trip) =="
# A short fixed-seed coverage-guided fuzzing session. Fails unless (a) the
# fuzzer's session coverage is at least the pure-random baseline's at an
# equal driver-step budget, (b) zero panics escaped the oracle's
# containment, and (c) the persisted corpus reloads and replays with
# bit-identical verdicts in a *second process*.
same_verdict corpus-verdict: "fuzz gate $TMP/corpus 0xc5 4000" "fuzz verify $TMP/corpus"

echo "== fleet gate (2 workers, forced kill + torn file, merged-corpus round-trip) =="
# A short fixed-seed 2-worker fuzzing fleet with one forced worker kill
# and one forced torn corpus file. Fails unless zero admitted seeds were
# lost, the killed worker was respawned, the torn file was skip-counted,
# the coordinator shut down cleanly, and the merged corpus replays with a
# bit-identical verdict in a *second process*.
same_verdict fleet-verdict: "fleet gate $TMP/fleet 0xc6" "fleet verify $TMP/fleet"

echo "== pipeline gate (E12: mode equivalence + pipelined throughput) =="
# Runs the E3 workload at a fixed seed under CheckMode::Inline and
# CheckMode::Pipelined: exits non-zero unless both modes produce identical
# violation (kind, event seq) lists, checked-trap counts and canonical
# event-stream signatures, and pipelined checked throughput stays within
# 3x of unchecked.
cargo run --release --example pipeline_gate -- 1000 0xe12

echo "== bbm gate (E13: break-before-make spec check, both modes) =="
# The missing-TLBI bug must be detected by the break-before-make spec
# check — not only behaviourally — with identical verdicts and violation
# event seqs under CheckMode::Inline and CheckMode::Pipelined, and zero
# break-before-make verdicts on clean and stale-TLB-chaos runs.
cargo run --release --example bbm_gate -- 400 0xe13

echo "== android gate (E16: protected boot, share/unshare, churn) =="
# The Android workload surface: handwritten scenarios clean, a
# fixed-seed Android-weighted campaign violation-free and bit-identical
# under CheckMode::Inline and CheckMode::Pipelined, one detection per
# new spec check under its matching fault, and a canonical verdict line
# that reproduces when the saved trace is replayed in a *second* process.
same_verdict android-verdict: "android gate $TMP/android.pkvmtrace 0xe16 1200" \
    "android replay $TMP/android.pkvmtrace"

echo "== mutation mini-sweep (3 bugs x 3 chaos families) =="
# Known bugs injected while chaos corrupts the oracle's inputs; exits
# non-zero unless every bug is still detected with no worker panic.
cargo run --release --example chaos -- mutation 0xc3

echo "ci.sh: all green"
