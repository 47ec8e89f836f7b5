#!/usr/bin/env bash
# Standing perf harness: runs the radio, event-queue, xmits-estimator,
# topology, and node-set-codec microbenchmarks plus the campaign perf
# probes (wall-clock / events-per-second, sharded scaling points, and a
# sim-profiler bucket breakdown), and merges everything into one
# BENCH_radio.json so the perf trajectory is machine-tracked across PRs.
# Compare two points with tools/bench_compare.py.
#
# Usage: tools/bench_json.sh [build-dir] [output.json]
#   build-dir   defaults to build-release (cmake --preset release)
#   output.json defaults to BENCH_radio.json in the repo root
# Environment:
#   BENCH_MIN_TIME  google-benchmark min seconds per bench (default 0.2;
#                   CI smoke uses 0.05)
#   BENCH_FILTER    optional --benchmark_filter regex forwarded to all
#                   microbenchmark binaries
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build-release}"
out="${2:-${repo_root}/BENCH_radio.json}"
min_time="${BENCH_MIN_TIME:-0.2}"
filter="${BENCH_FILTER:-}"

bench_dir="${repo_root}/${build_dir}/bench"
tools_dir="${repo_root}/${build_dir}/tools"
micro_benches=(micro_radio micro_event_queue micro_xmits micro_topology micro_nodeset)
for name in "${micro_benches[@]}"; do
  if [[ ! -x "${bench_dir}/bench_${name}" ]]; then
    echo "error: ${bench_dir}/bench_${name} not built (run: cmake --preset release && cmake --build --preset release)" >&2
    exit 1
  fi
done
if [[ ! -x "${tools_dir}/scoop_campaign" ]]; then
  echo "error: ${tools_dir}/scoop_campaign not built" >&2
  exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

bench_args=(--benchmark_min_time="${min_time}" --benchmark_out_format=json)
[[ -n "${filter}" ]] && bench_args+=(--benchmark_filter="${filter}")

for name in "${micro_benches[@]}"; do
  "${bench_dir}/bench_${name}" "${bench_args[@]}" \
      --benchmark_out="${tmp}/${name}.json" >&2
done
# Campaign probes: smoke_tiny (2 nodes, seconds of sim time) keeps the old
# trajectory comparable; grid_dense (121-node lattice, three policies) is
# the mid-scale probe; grid_1024 (32x32 lattice, Scoop policy) is the
# first agent-level point past the old 128-node query-bitmap cap;
# churn_reboot exercises the fault-injection path (reboot waves + orphan
# re-homing + retries + query re-issue), so fault-plan overhead is tracked
# on the same trajectory as the fault-free probes.
"${tools_dir}/scoop_campaign" --scenario=smoke_tiny --threads=1 --quiet \
    --perf-json="${tmp}/campaign_smoke.json"
"${tools_dir}/scoop_campaign" --scenario=grid_dense --threads=1 --quiet \
    --perf-json="${tmp}/campaign_grid_dense.json"
"${tools_dir}/scoop_campaign" --scenario=grid_1024 --threads=1 --quiet \
    --perf-json="${tmp}/campaign_grid_1024.json"
"${tools_dir}/scoop_campaign" --scenario=churn_reboot --threads=1 --quiet \
    --perf-json="${tmp}/campaign_churn_reboot.json"
# Sharded scaling probes: the same 1024-node lattice split across K
# parallel shards (conservative PDES engine). Tracks single-trial
# strong-scaling against shards=1 above (one shard run inline).
shard_counts="${BENCH_SHARD_COUNTS:-2 4 8}"
for k in ${shard_counts}; do
  "${tools_dir}/scoop_campaign" --scenario=grid_1024 --threads=1 \
      --shards="${k}" --quiet \
      --perf-json="${tmp}/campaign_grid_1024_shards${k}.json"
done
# The same scaling points under the min-cut partitioner: identical results
# by contract (equivalence suite), but fewer boundary links means fewer
# mirrored frames and shorter EPT stalls -- the delta vs the strip probes
# above is the partitioner's whole value, so both stay on the trajectory.
for k in ${shard_counts}; do
  "${tools_dir}/scoop_campaign" --scenario=grid_1024 --threads=1 \
      --shards="${k}" --partition=mincut --quiet \
      --perf-json="${tmp}/campaign_grid_1024_mincut_shards${k}.json"
done
# Profiled grid_1024: same probe with the sim profiler attached, so the
# perf point records where the wall time actually goes (queue vs radio vs
# agent buckets; see the "MAC timer churn" ROADMAP hypothesis). A separate
# section: the unprofiled probe above stays the clean throughput number,
# and bench_compare.py diffs the buckets informationally.
"${tools_dir}/scoop_campaign" --scenario=grid_1024 --threads=1 --profile \
    --quiet --perf-json="${tmp}/campaign_grid_1024_profile.json"

# The commit the numbers were measured on; "-dirty" when the working tree
# has uncommitted changes, so a regenerated file never claims the parent.
commit="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ "${commit}" != unknown ]] &&
    [[ -n "$(git -C "${repo_root}" status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
  commit="${commit}-dirty"
fi

python3 - "${tmp}" "${out}" "${commit}" "${min_time}" "${shard_counts}" <<'EOF'
import json
import sys

tmp, out, commit, min_time, shard_counts = sys.argv[1:6]
doc = {
    "schema": "scoop-bench-v1",
    "commit": commit,
    "benchmark_min_time_seconds": float(min_time),
    "micro_radio": json.load(open(f"{tmp}/micro_radio.json")),
    "micro_event_queue": json.load(open(f"{tmp}/micro_event_queue.json")),
    "micro_xmits": json.load(open(f"{tmp}/micro_xmits.json")),
    "micro_topology": json.load(open(f"{tmp}/micro_topology.json")),
    "micro_nodeset": json.load(open(f"{tmp}/micro_nodeset.json")),
    "campaign_smoke": json.load(open(f"{tmp}/campaign_smoke.json")),
    "campaign_grid_dense": json.load(open(f"{tmp}/campaign_grid_dense.json")),
    "campaign_grid_1024": json.load(open(f"{tmp}/campaign_grid_1024.json")),
    "campaign_churn_reboot": json.load(open(f"{tmp}/campaign_churn_reboot.json")),
    "campaign_grid_1024_profile": json.load(
        open(f"{tmp}/campaign_grid_1024_profile.json")),
}
for k in shard_counts.split():
    doc[f"campaign_grid_1024_shards{k}"] = json.load(
        open(f"{tmp}/campaign_grid_1024_shards{k}.json"))
    doc[f"campaign_grid_1024_mincut_shards{k}"] = json.load(
        open(f"{tmp}/campaign_grid_1024_mincut_shards{k}.json"))
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {out}")
EOF
