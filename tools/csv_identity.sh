#!/usr/bin/env bash
# Byte-identity check of campaign results between two builds: runs every
# registered scenario (`scoop_campaign --list`) at --threads=4 with --csv
# on both builds, plus four sharded legs, and cmp's each pair of CSVs.
# Exits non-zero if any pair differs or any run fails.
#
# Usage: tools/csv_identity.sh PARENT_BUILD CHANGE_BUILD
#   Each argument is a build directory holding tools/scoop_campaign
#   (e.g. a build of the parent commit and one of the change).
#   CSV_IDENTITY_OUT=DIR keeps the CSVs in DIR (default: a temp dir,
#   removed on exit).
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

if [[ "${failed}" -ne 0 ]]; then
  echo "csv_identity: results differ" >&2
  exit 1
fi
echo "csv_identity: all ${#legs[@]} legs byte-identical"
