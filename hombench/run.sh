#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it.
# Run from the repository root:
#   bash hombench/run.sh --workload serve-tw --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the
# result object. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path hombench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hombench" "$@"
