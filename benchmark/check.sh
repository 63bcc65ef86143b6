#!/usr/bin/env bash
# The benchmark's own smoke test (CI files are out of scope): runs every
# workload at ~2 % size, untraced and traced, and asserts that the
# workload and metric names printed equal those in BENCHMARK.json, that
# BENCHMARK.json equals the tables compiled into the binary, and that
# nothing failed the output check. Takes well under 30 s after the build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
"$here/run.sh" --quick --traced --out "$here/out/quick.json" >/dev/null
"$here/run.sh" check "$here/../BENCHMARK.json" "$here/out/quick.json"
