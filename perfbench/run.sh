#!/usr/bin/env bash
# Builds the released daemons and the benchmark, then runs the benchmark
# with every argument passed through:
#
#   bash perfbench/run.sh --workload predict-hot --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Both builds share one target directory
# (CARGO_TARGET_DIR, default `target`); the benchmark finds the daemon
# binaries in its release directory.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p perfpred-serve -p perfpred-cluster --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
