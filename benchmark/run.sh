#!/usr/bin/env bash
# The benchmark's single entry point: builds the release binary from source
# (offline, path dependencies only) and runs it. Run from anywhere:
#
#   benchmark/run.sh                      every workload, both tables, out/results.json
#   benchmark/run.sh --workload sb_budget --seed 7
#   benchmark/run.sh --repeat 2           two full sets, compared with each other
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is the JSON result
#
# Honours CARGO_TARGET_DIR (relative paths resolve against the caller's
# directory, as cargo resolves them); defaults to benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# The build's own output goes to stderr: stdout belongs to the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

case "${1:-}" in
    compare | manifest | help | -h | --help) exec "$target/release/sb-benchmark" "$@" ;;
esac
exec "$target/release/sb-benchmark" --out "$here/out" "$@"
