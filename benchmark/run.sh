#!/usr/bin/env bash
# Builds the benchmark and runs it. One command for both forms:
#
#   benchmark/run.sh [--seed N] [--traced] [--quick] [--repeat K] [--out FILE] [workload…]
#       the suite: every (named) workload in a fresh child process, a
#       noisy run re-run once, every metric printed by name and unit as JSON
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object
#   benchmark/run.sh compare A.json B.json
#
# Run from the repository root or anywhere else; paths are resolved
# against this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/acep-benchmark"
case "${1:-}" in
    compare | check | spec | layers) exec "$bin" "$@" ;;
    *) exec "$bin" --out-dir "$here/out" "$@" ;;
esac
