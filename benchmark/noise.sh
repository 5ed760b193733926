#!/usr/bin/env bash
# Runs the whole suite twice on the same code and the same seed, then compares
# the second set of runs against the first. Acceptance: no `regressed` and no
# `unresolved` row, and every simulated and counted metric bit-identical.
#
#   benchmark/noise.sh [--seed N] [--seconds S] [--smoke]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
benchmark/run.sh "$@" --out benchmark/out/noise_a
benchmark/run.sh "$@" --out benchmark/out/noise_b
benchmark/run.sh --compare benchmark/out/noise_a/suite.json benchmark/out/noise_b/suite.json
