#!/usr/bin/env bash
# The benchmark's one command: builds the `sos` daemon (root workspace)
# and the `sosbench` binary (this directory's own workspace), then runs
# sosbench with the given arguments from the repository root.
#
#   bench/run.sh [--seed S] [--quick] [--traced]     every workload
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/run.sh compare PARENT.json CHANGE.json
#   bench/run.sh validate
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build sos-cli explicitly: a bare root build can leave target/release/sos
# stale. Cargo's output goes to stderr; stdout carries only results.
cargo build --release --offline --quiet -p sos-cli >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
export SOSBENCH_SOS_BIN="$CARGO_TARGET_DIR/release/sos"
exec "$CARGO_TARGET_DIR/release/sosbench" "$@"
