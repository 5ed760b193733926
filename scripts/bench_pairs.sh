#!/usr/bin/env bash
# Paired, alternating runs of one repo-benchmark workload: a parent commit
# against the working tree (choosing-metrics §8 — the way a claimed gain is
# judged; the benchmark's own bounds only catch regressions).
#
#   scripts/bench_pairs.sh <workload>|all <parent-ref> [pairs]
#   SEED=11 RUN_SECONDS=12 TRACE=1 scripts/bench_pairs.sh kv_write HEAD~1 10
#   scripts/bench_pairs.sh all HEAD~1 10      # every workload of BENCHMARK.json
#
# Each side is built from its own checkout into its own CARGO_TARGET_DIR (the
# parent from `git archive <parent-ref>`), then the two binaries run `pairs`
# times (default 10), the side that goes first alternating. Prints every
# metric's q1 / median / q3 per side and how many pairs each side won (better
# as BENCHMARK.json declares it). Exits non-zero when a run is incorrect or has
# failed operations, or when any simulated metric (`sim_*`, `ppb_*`) or the
# simulated fingerprint (from each run's result file) differs between any two
# runs: a host-side change must leave those identical to the last digit. `all`
# builds once and runs the workloads of BENCHMARK.json one after the other, one
# table each, and fails if any of them does. SEED (7), RUN_SECONDS (12) and
# TRACE (0; 1 = the per-layer run) come from the environment; build products
# and results go to $BENCH_PAIRS_DIR (default .bench_build/pairs), where
# pairs_<tag>.json keeps each table's quartiles, win counts and fingerprint
# (for `all`, also merged into pairs_all_s<seed>_t<trace>.json — the file a PR
# commits as BENCH_<pr>.json, whose "parent" is the 40-hex commit <parent-ref>
# resolved to).
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <workload>|all <parent-ref> [pairs]" >&2
  exit 2
fi
workload=$1
parent_ref=$2
pairs=${3:-10}
seed=${SEED:-7}
seconds=${RUN_SECONDS:-12}
trace=${TRACE:-0}

cd "$(dirname "${BASH_SOURCE[0]}")/.."
repo=$PWD
work=${BENCH_PAIRS_DIR:-$repo/.bench_build/pairs}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# The commit, not the ref: the merged file names what it was measured against.
parent_sha=$(git rev-parse --verify "$parent_ref^{commit}")
rm -rf "$work/parent_src"
mkdir -p "$work/parent_src" "$work/runs"
git archive "$parent_sha" | tar -x -C "$work/parent_src"

build() { # <source dir> <target dir>
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" >&2
}
build "$work/parent_src" "$work/parent_target"
build "$repo" "$work/change_target"

if [[ $workload == all ]]; then
  mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
else
  workloads=("$workload")
fi

run() { # <side> <source dir> <workload> <pair>
  local out=$work/runs/out_$1 kind=untraced
  if ((trace)); then kind=traced; fi
  rm -f "$out/result_${3}_$kind.json"
  (cd "$2" && "$work/$1_target/release/vflash-benchmark" --workload "$3" \
    --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" \
    2>/dev/null | tail -n 1) >"$work/runs/${3}_s${seed}_t${trace}_$1_$4.json"
  # The result file carries the simulated fingerprint; keep each run's.
  cp "$out/result_${3}_$kind.json" "$work/runs/${3}_s${seed}_t${trace}_$1_$4.result.json"
}

status=0
for workload in "${workloads[@]}"; do
  tag=${workload}_s${seed}_t${trace}
  rm -f "$work/runs/${tag}"_*.json
  for pair in $(seq 1 "$pairs"); do
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      if [[ $side == parent ]]; then
        run parent "$work/parent_src" "$workload" "$pair"
      else
        run change "$repo" "$workload" "$pair"
      fi
    done
    echo "$workload: pair $pair/$pairs done (${order[*]})" >&2
  done

  python3 - "$work/runs" "$tag" "$pairs" "$repo/BENCHMARK.json" "$work/pairs_$tag.json" <<'PY' || status=1
import json, sys

runs, tag, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
spec = json.load(open(sys.argv[4]))
better = {metric["name"]: metric["better"] for metric in spec["end_to_end"] + spec["per_layer"]}
load = lambda side, pair: json.load(open(f"{runs}/{tag}_{side}_{pair}.json"))
sides = {side: [load(side, pair) for pair in range(1, pairs + 1)] for side in ("parent", "change")}

def quartiles(values):
    values = sorted(values)
    def at(q):  # linear interpolation between the two nearest ranks
        position = q * (len(values) - 1)
        low = int(position)
        high = min(low + 1, len(values) - 1)
        return values[low] + (values[high] - values[low]) * (position - low)
    return at(0.25), at(0.5), at(0.75)

bad = False
for side, results in sides.items():
    for pair, result in enumerate(results, 1):
        if not result["correct"] or result["failed"]:
            print(f"FAIL: {side} run {pair}: correct={result['correct']} failed={result['failed']}")
            bad = True

summary = {}
print(f"{tag}: {pairs} alternating pairs, parent vs change (q1 / median / q3)")
fingerprints = sorted({json.load(open(f"{runs}/{tag}_{side}_{pair}.result.json"))["fingerprint"]
                       for side in sides for pair in range(1, pairs + 1)})
if len(fingerprints) == 1:
    print(f"  {'fingerprint':34} identical in all {2 * pairs} runs: {fingerprints[0]}")
else:
    print(f"FAIL: the simulated fingerprint differs between runs: {fingerprints}")
    bad = True
for name in sides["parent"][0]["metrics"]:
    column = {side: [r["metrics"][name]["value"] for r in results] for side, results in sides.items()}
    distinct = set(map(repr, column["parent"] + column["change"]))
    if len(distinct) == 1:
        print(f"  {name:34} identical in all {2 * pairs} runs: {distinct.pop()}")
        summary[name] = {"identical": column["parent"][0]}
        continue
    if name.startswith(("sim_", "ppb_")):
        print(f"FAIL: {name} differs between runs: {sorted(distinct)}")
        bad = True
        continue
    parent, change = quartiles(column["parent"]), quartiles(column["change"])
    lower = better.get(name, "lower") == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(column["parent"], column["change"]))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(column["parent"], column["change"]))
    ratio = change[1] / parent[1] if parent[1] else float("nan")
    print(f"  {name:34} parent {parent[0]:.6g} / {parent[1]:.6g} / {parent[2]:.6g}   "
          f"change {change[0]:.6g} / {change[1]:.6g} / {change[2]:.6g}   "
          f"median x{ratio:.3f}   change wins {wins}/{pairs}, parent wins {losses}/{pairs}"
          f"   parent IQR {parent[2] - parent[0]:.6g}")
    keys = ("q1", "median", "q3")
    summary[name] = {"parent": dict(zip(keys, parent)), "change": dict(zip(keys, change)),
                     "median_ratio": ratio, "change_wins": wins, "parent_wins": losses}
fingerprint = fingerprints[0] if len(fingerprints) == 1 else fingerprints
json.dump({"pairs": pairs, "ok": not bad, "fingerprint": fingerprint, "metrics": summary},
          open(sys.argv[5], "w"), indent=1)
sys.exit(1 if bad else 0)
PY
done

if [[ $1 == all ]]; then
  python3 - "$work" "$seed" "$seconds" "$trace" "$parent_sha" "${workloads[@]}" <<'PY'
import json, sys

work, seed, seconds, trace, parent_sha, *workloads = sys.argv[1:]
tables = {w: json.load(open(f"{work}/pairs_{w}_s{seed}_t{trace}.json")) for w in workloads}
merged = {"method": "scripts/bench_pairs.sh all: alternating parent/change pairs, q1/median/q3 per side",
          "parent": parent_sha, "seed": int(seed), "run_seconds": float(seconds),
          "trace": int(trace), "workloads": tables}
path = f"{work}/pairs_all_s{seed}_t{trace}.json"
json.dump(merged, open(path, "w"), indent=1)
print(f"merged tables: {path}")
PY
fi
exit "$status"
