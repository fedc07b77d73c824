#!/usr/bin/env bash
# Builds the release `streamcolor` server and the benchmark client from
# source, then runs the client with the given arguments:
#
#   bash perfbench/run.sh --workload bulk-ingest --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin streamcolor
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
PERFBENCH_SERVER="$CARGO_TARGET_DIR/release/streamcolor" \
    exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
