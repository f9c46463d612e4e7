#!/usr/bin/env bash
# Tier-1 verify loop: build, lint, test and smoke-run the whole workspace
# with cargo. The workspace has no external dependencies, so this needs
# no registry access. See docs/TESTING.md for what each step covers.
#
# Usage: scripts/check.sh

set -euo pipefail
cd "$(dirname "$0")/.."
T=target/check
mkdir -p "$T"
: > "$T/tests.log"

tests() { cargo test -q "$@" 2>&1 | tee -a "$T/tests.log"; }

# smoke NAME CARGO-RUN-ARGS... -- BIN-ARGS...: the run must write a
# non-empty results file.
smoke() {
    local name=$1 out="$T/$1-smoke.txt"
    shift
    cargo run --release -q "$@" --out "$out" > /dev/null
    test -s "$out" || { echo "check.sh: $name smoke wrote nothing" >&2; exit 1; }
}

echo "== build + clippy -D warnings (default and telemetry-disabled configs)"
cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p spmv-telemetry --features disabled --all-targets -- -D warnings

echo "== tests (default and telemetry-disabled configs)"
tests --workspace
tests -p spmv-telemetry --features disabled
tests -p spmv-serve --features telemetry-disabled
tests -p spmv-tune --features telemetry-disabled

echo "== bin smokes"
smoke serving --bin serve_load -- --requests 200 --seed 7
smoke adaptive --bin serve_adapt -- --nodes 1200
smoke numa --bin numa_scale -- --flat --threads 2 --n 4000 --reps 5 --trials 2
smoke masked --bin masked -- --n 4000 --blocks 4 --reps 2 --trials 1
smoke sellc --bin sellc -- --n 20000 --reps 2 --trials 1
smoke masked-disabled --features spmv-telemetry/disabled --bin masked -- \
    --n 4000 --blocks 4 --reps 2 --trials 1
smoke sellc-disabled --features spmv-telemetry/disabled --bin sellc -- \
    --n 20000 --reps 2 --trials 1

echo "== selection from the benchmark's saved profile"
cargo run --release -q --bin spmv-tune -- --suite 1 --scale 0.05 \
    --profile perfbench/host.profile > /dev/null

echo "== ablation bin and benchmark build"
cargo run --release -q -p spmv-bench --bin ablation -- --min-time 1 --batches 1 > /dev/null
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== examples"
cargo run --release -q --example parallel_scaling > /dev/null
cargo run --release -q --example batched -- 0.1 > /dev/null

awk '/^test result: ok/ { n += $4 } END { print "check.sh: OK, " n " tests passed" }' \
    "$T/tests.log"
