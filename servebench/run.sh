#!/usr/bin/env bash
# Builds the `drift` binary and the benchmark harness in release mode,
# then runs the harness with the given arguments:
#
#   bash servebench/run.sh --workload mixed-closed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build); tier logs, stores and span files to .bench_work.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline -p drift-cli --bin drift >&2
cargo build --release --quiet --offline --manifest-path servebench/Cargo.toml >&2
exec "$target/release/drift-servebench" --drift "$target/release/drift" --dir "$root/.bench_work" "$@"
