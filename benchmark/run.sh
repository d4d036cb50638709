#!/usr/bin/env bash
# The repository's benchmark, in one command. From anywhere:
#
#   benchmark/run.sh [--seed S] [--seconds N] [--out FILE]
#       builds ccr and ccr-benchmark, runs every workload untraced and
#       then traced, checks every output against benchmark/expected.json
#       and prints every metric by name with its unit (default seed 1998).
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object BENCHMARK.json's driver reads.
#   benchmark/run.sh --lint
#       cargo fmt --check and cargo clippy -D warnings over benchmark/.
#
# Exit code: 0 all correct, 1 an op or a check failed, 2 could not run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

for needed in Cargo.toml crates specs vendor; do
    if [ ! -e "$needed" ]; then
        echo "benchmark/run.sh: $needed is not here; the benchmark builds ccr from the repository's sources" >&2
        exit 2
    fi
done

manifest=benchmark/Cargo.toml
if [ "${1:-}" = "--lint" ]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    exit 0
fi

# Cargo reports on standard error, so standard output stays the benchmark's.
cargo build --release --offline --quiet --bin ccr
cargo build --release --offline --quiet --manifest-path "$manifest"
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    ccr="$CARGO_TARGET_DIR/release/ccr"
    bench="$CARGO_TARGET_DIR/release/ccr-benchmark"
else
    ccr=target/release/ccr
    bench=benchmark/target/release/ccr-benchmark
fi

mode=all
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        mode=run
    fi
done
exec "$bench" "$mode" --ccr "$ccr" "$@"
