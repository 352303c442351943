#!/usr/bin/env bash
# Builds the benchmark package from source and runs it from the
# repository root. Every argument goes to the `tg-bench` binary:
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--trace 0|1] [--smoke]
#   benchmark/run.sh --bless [--workload NAME|all]
#   benchmark/run.sh compare A.json[,A2.json...] B.json[,B2.json...]
#
# Build output goes to $CARGO_TARGET_DIR (default target/benchmark/build);
# results, span traces and working caches to target/benchmark/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark/build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/tg-bench" "$@"
