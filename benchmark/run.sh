#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package (release,
# offline) and runs it with the given arguments from the repository root:
#
#   benchmark/run.sh                                  all six workloads, untraced then traced
#   benchmark/run.sh --workload kv_read --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --smoke                          tiny sizes, a few seconds in all
#   benchmark/run.sh --compare A.json B.json
#
# Build products go to $CARGO_TARGET_DIR (default benchmark/target), results and
# span files to benchmark/out (or --out DIR).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/vflash-benchmark" "$@"
