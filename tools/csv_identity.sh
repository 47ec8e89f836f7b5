#!/usr/bin/env bash
# Byte-identity check of campaign results between two builds: runs every
# registered scenario (`scoop_campaign --list`) at --threads=4 with --csv
# on both builds, plus four sharded legs, and cmp's each pair of CSVs.
# Two observability legs also run churn_reboot with --metrics-out:
#   churn_reboot.obs          --shards=1, with --trace-out too: the CSV and
#                             every trace must be byte-identical, and every
#                             metrics JSONL row must hold the same
#                             name/value pairs (compared as JSON objects,
#                             so field order may differ).
#   churn_reboot.obs.shards3  --shards=3: the CSV and the metrics rows, less
#                             the `shard.*` and `queue.*` keys, which count
#                             cross-shard messages as the thread schedule
#                             drains them. It writes no traces: at K > 1
#                             they hold wall-clock stall instants.
# Exits non-zero if any pair differs or any run fails.
#
# Usage: tools/csv_identity.sh PARENT_BUILD CHANGE_BUILD
#   Each argument is a build directory holding tools/scoop_campaign
#   (e.g. a build of the parent commit and one of the change).
#   CSV_IDENTITY_OUT=DIR keeps the outputs in DIR (default: a temp dir,
#   removed on exit; the traces take about 0.6 GB per side).
#   CSV_IDENTITY_IGNORE_KEYS=a,b drops the named metrics keys from both
#   sides before comparing (for a change that retires a metric).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent="$1/tools/scoop_campaign"
change="$2/tools/scoop_campaign"
for bin in "${parent}" "${change}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "csv_identity: no scoop_campaign at ${bin}" >&2
    exit 2
  fi
done

if [[ -n "${CSV_IDENTITY_OUT:-}" ]]; then
  out="${CSV_IDENTITY_OUT}"
  mkdir -p "${out}"
else
  out="$(mktemp -d)"
  trap 'rm -rf "${out}"' EXIT
fi

# Each leg: a label, then the scoop_campaign arguments.
legs=()
while read -r name _; do
  [[ -n "${name}" ]] && legs+=("${name}|--scenario=${name}")
done < <("${change}" --list)
legs+=("grid_1024.shards4|--scenario=grid_1024 --shards=4")
legs+=("churn_reboot.shards3|--scenario=churn_reboot --shards=3")
legs+=("partition_heal.shards2|--scenario=partition_heal --shards=2")
legs+=("base_failover.shards4|--scenario=base_failover --shards=4")

# Compares two metrics JSONL files row by row as JSON objects. Extra
# arguments are key prefixes to skip.
jsonl_same() {
  python3 - "$@" <<'PY'
import json
import os
import sys

a, b, prefixes = sys.argv[1], sys.argv[2], tuple(sys.argv[3:])
ignore = set(filter(None, os.environ.get("CSV_IDENTITY_IGNORE_KEYS", "").split(",")))


def rows(path):
    with open(path) as f:
        return [{k: v for k, v in json.loads(line).items()
                 if k not in ignore and not (prefixes and k.startswith(prefixes))}
                for line in f]


ra, rb = rows(a), rows(b)
if len(ra) != len(rb):
    sys.exit(f"{os.path.basename(a)}: {len(ra)} vs {len(rb)} rows")
for i, (x, y) in enumerate(zip(ra, rb), 1):
    if x != y:
        keys = sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k))
        sys.exit(f"{os.path.basename(a)} row {i}: {', '.join(keys)} differ")
PY
}

# One observability leg: label, shard count, then metrics key prefixes to
# skip. Only a leg that skips none writes (and compares) traces.
obs_leg() {
  local label="$1" shards="$2"
  shift 2
  local side bin dir f name trace=()
  for side in parent change; do
    bin="${parent}"
    [[ "${side}" == change ]] && bin="${change}"
    dir="${out}/${label}.${side}"
    mkdir -p "${dir}"
    [[ $# -eq 0 ]] && trace=(--trace-out="${dir}/trace.json")
    if ! "${bin}" --scenario=churn_reboot --shards="${shards}" --threads=4 --quiet \
         --csv="${dir}/results.csv" "${trace[@]}" \
         --metrics-out="${dir}/metrics.jsonl" > /dev/null; then
      echo "FAILED     ${label} (${side} run exited non-zero)"
      failed=1
      return
    fi
  done
  local ok=1
  if [[ "$(ls "${out}/${label}.parent")" != "$(ls "${out}/${label}.change")" ]]; then
    echo "           ${label}: the two runs wrote different files"
    ok=0
  fi
  for f in "${out}/${label}.parent"/*; do
    name="$(basename "${f}")"
    if [[ ! -e "${out}/${label}.change/${name}" ]]; then
      continue
    elif [[ "${name}" == *.jsonl ]]; then
      jsonl_same "${f}" "${out}/${label}.change/${name}" "$@" || ok=0
    elif ! cmp -s "${f}" "${out}/${label}.change/${name}"; then
      echo "           ${label}: ${name} differs"
      ok=0
    fi
  done
  if [[ "${ok}" -eq 1 ]]; then
    echo "identical  ${label}"
  else
    echo "DIFFERS    ${label}"
    failed=1
  fi
}

failed=0
for leg in "${legs[@]}"; do
  label="${leg%%|*}"
  read -r -a args <<< "${leg#*|}"
  for side in parent change; do
    bin="${parent}"
    [[ "${side}" == change ]] && bin="${change}"
    if ! "${bin}" "${args[@]}" --threads=4 --quiet \
         --csv="${out}/${label}.${side}.csv" > /dev/null; then
      echo "FAILED     ${label} (${side} run exited non-zero)"
      failed=1
      continue 2
    fi
  done
  if cmp -s "${out}/${label}.parent.csv" "${out}/${label}.change.csv"; then
    echo "identical  ${label}"
  else
    echo "DIFFERS    ${label}"
    failed=1
  fi
done

obs_leg churn_reboot.obs 1
obs_leg churn_reboot.obs.shards3 3 shard. queue.

if [[ "${failed}" -ne 0 ]]; then
  echo "csv_identity: results differ" >&2
  exit 1
fi
echo "csv_identity: all $(( ${#legs[@]} + 2 )) legs identical"
