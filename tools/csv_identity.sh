#!/usr/bin/env bash
# Byte-identity check of campaign results between two builds: runs every
# scenario both builds register (`scoop_campaign --list`) at --threads=4
# with --csv on both, plus four sharded legs and three baseline-policy
# legs, and cmp's each pair of CSVs. The baseline legs run churn_reboot
# under the local, base and hash-sim policies: no registered scenario runs
# a baseline policy under faults, so their data path (batching, retries,
# reboot) is checked nowhere else.
# Scenarios only one build registers are listed as `new:` or `gone:` lines
# and are not failures.
# Two observability legs also run churn_reboot with --trace-out and
# --metrics-out:
#   churn_reboot.obs          --shards=1: the CSV and every trace must be
#                             byte-identical, and every metrics JSONL row
#                             must hold the same name/value pairs (compared
#                             as JSON objects, so field order may differ).
#   churn_reboot.obs.shards3  --shards=3: the same, less what depends on
#                             thread timing at K > 1 (README, "Metrics"):
#                             the metrics keys in TIMING_KEYS are dropped,
#                             and the traces are compared as multisets of
#                             events, less the wall-clock `ept.stall`
#                             instants.
# An examples leg runs every examples/ program both builds hold, with no
# arguments, and cmp's their stdout; a program only one build holds is
# listed as `new:` or `gone:`.
# Exits non-zero if any pair differs or any run fails.
#
# Usage: tools/csv_identity.sh PARENT_BUILD CHANGE_BUILD
#   Each argument is a build directory holding tools/scoop_campaign and
#   examples/example_* (e.g. a build of the parent commit and one of the
#   change). Given the
#   same build twice, it checks run-to-run reproducibility instead: every
#   leg, the K = 3 metrics and traces included, must come out identical.
#   CSV_IDENTITY_OUT=DIR keeps the outputs in DIR (default: a temp dir,
#   removed on exit; the traces take about 1.2 GB per side).
#   CSV_IDENTITY_IGNORE_KEYS=a,b drops the named metrics keys from both
#   sides before comparing (for a change that retires a metric).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_dir="$1"
change_dir="$2"
parent="${parent_dir}/tools/scoop_campaign"
change="${change_dir}/tools/scoop_campaign"
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

# Each leg: a label, then the scoop_campaign arguments. A scenario leg
# runs only where both builds register the scenario; a name only one side
# lists is reported as `new:` (change only) or `gone:` (parent only).
parent_names="$("${parent}" --list | awk 'NF { print $1 }')"
change_names="$("${change}" --list | awk 'NF { print $1 }')"
legs=()
while read -r name; do
  if grep -qxF -- "${name}" <<< "${parent_names}"; then
    legs+=("${name}|--scenario=${name}")
  else
    echo "new:       ${name}"
  fi
done <<< "${change_names}"
while read -r name; do
  grep -qxF -- "${name}" <<< "${change_names}" || echo "gone:      ${name}"
done <<< "${parent_names}"
legs+=("grid_1024.shards4|--scenario=grid_1024 --shards=4")
legs+=("churn_reboot.shards3|--scenario=churn_reboot --shards=3")
legs+=("partition_heal.shards2|--scenario=partition_heal --shards=2")
legs+=("base_failover.shards4|--scenario=base_failover --shards=4")
for policy in local base hash-sim; do
  legs+=("churn_reboot.${policy}|--scenario=churn_reboot --policy=${policy}")
done

# The metrics keys that depend on thread timing at K > 1; a trailing `*`
# matches a prefix.
TIMING_KEYS="queue.depth,queue.occupancy,queue.processed,shard.stall_us"
TIMING_KEYS+=",shard.stall_episodes,shard.ept_slack_us.to*"

# Compares two metrics JSONL files row by row as JSON objects, less the
# keys in CSV_IDENTITY_IGNORE_KEYS and in the optional third argument (a
# comma-separated list like TIMING_KEYS).
jsonl_same() {
  python3 - "$@" <<'PY'
import json
import os
import sys

a, b = sys.argv[1], sys.argv[2]
skip = ",".join([os.environ.get("CSV_IDENTITY_IGNORE_KEYS", "")] + sys.argv[3:])
keys = {k for k in skip.split(",") if k and not k.endswith("*")}
prefixes = tuple(k[:-1] for k in skip.split(",") if k.endswith("*"))


def rows(path):
    with open(path) as f:
        return [{k: v for k, v in json.loads(line).items()
                 if k not in keys and not (prefixes and k.startswith(prefixes))}
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

# A trace's events one per line, sorted, less the `ept.stall` instants
# (the writer puts one event on each line).
trace_events() {
  sed -e 's/^{"displayTimeUnit":"ms","traceEvents":\[//' -e 's/,$//' -e 's/\]}$//' "$1" |
    grep -v '"name":"ept.stall"' | LC_ALL=C sort -S 64M -T "${out}"
}

# One observability leg: label, shard count. At K > 1 the timing-dependent
# metrics keys and trace events are left out of the comparison.
obs_leg() {
  local label="$1" shards="$2"
  local side bin dir f name
  for side in parent change; do
    bin="${parent}"
    [[ "${side}" == change ]] && bin="${change}"
    dir="${out}/${label}.${side}"
    mkdir -p "${dir}"
    if ! "${bin}" --scenario=churn_reboot --shards="${shards}" --threads=4 --quiet \
         --csv="${dir}/results.csv" --trace-out="${dir}/trace.json" \
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
    elif [[ "${name}" == *.jsonl && "${shards}" -gt 1 ]]; then
      jsonl_same "${f}" "${out}/${label}.change/${name}" "${TIMING_KEYS}" || ok=0
    elif [[ "${name}" == *.jsonl ]]; then
      jsonl_same "${f}" "${out}/${label}.change/${name}" || ok=0
    elif [[ "${name}" == trace* && "${shards}" -gt 1 ]]; then
      if ! cmp -s <(trace_events "${f}") <(trace_events "${out}/${label}.change/${name}"); then
        echo "           ${label}: ${name} events differ"
        ok=0
      fi
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
obs_leg churn_reboot.obs.shards3 3

example_legs=0
for bin in "${change_dir}"/examples/example_*; do
  [[ -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  if [[ ! -x "${parent_dir}/examples/${name}" ]]; then
    echo "new:       ${name}"
    continue
  fi
  example_legs=$(( example_legs + 1 ))
  if ! "${parent_dir}/examples/${name}" > "${out}/${name}.parent.out" ||
     ! "${bin}" > "${out}/${name}.change.out"; then
    echo "FAILED     ${name} (a run exited non-zero)"
    failed=1
  elif cmp -s "${out}/${name}.parent.out" "${out}/${name}.change.out"; then
    echo "identical  ${name}"
  else
    echo "DIFFERS    ${name}"
    failed=1
  fi
done
for bin in "${parent_dir}"/examples/example_*; do
  if [[ -x "${bin}" && ! -x "${change_dir}/examples/$(basename "${bin}")" ]]; then
    echo "gone:      $(basename "${bin}")"
  fi
done

if [[ "${failed}" -ne 0 ]]; then
  echo "csv_identity: results differ" >&2
  exit 1
fi
echo "csv_identity: all $(( ${#legs[@]} + 2 + example_legs )) legs identical"
