#!/usr/bin/env bash
# Compares the result digests of two `mapbench all --save` sets and
# nothing else: per workload, the (seed, result_digest) of its timed
# runs. Timing is ignored, so two `--iters 1` sets of an unchanged
# algorithm compare equal however their clocks drifted.
#
#   scripts/same_digests.sh BASE.json NEW.json
#
# Prints one line per workload and exits 1 when a workload's digests (or
# seeds) differ, when a workload is missing from either set, or when a
# set has no timed run; 2 on a usage error. Needs jq.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE.json NEW.json" >&2
  exit 2
fi

# "workload seed digest" per distinct timed run of a set
digests() {
  jq -r '.runs[] | select(.traced | not) | "\(.workload) \(.seed) \(.result_digest)"' "$1" |
    sort -u
}

base=$(digests "$1")
new=$(digests "$2")
for set in "$1:$base" "$2:$new"; do
  if [ -z "${set#*:}" ]; then
    echo "${set%%:*}: no timed run" >&2
    exit 1
  fi
done

# "seed/digest" of workload $1 in the listing $2, comma-joined
runs_of() {
  awk -v w="$1" '$1 == w { print $2 "/" $3 }' <<<"$2" | paste -sd, -
}

status=0
for w in $( (cut -d' ' -f1 <<<"$base"; cut -d' ' -f1 <<<"$new") | sort -u); do
  a=$(runs_of "$w" "$base")
  b=$(runs_of "$w" "$new")
  if [ -z "$a" ] || [ -z "$b" ]; then
    verdict=MISSING
    status=1
  elif [ "$a" = "$b" ]; then
    verdict=same
  else
    verdict=DIFFERS
    status=1
  fi
  printf '%-26s seed/result_digest %s -> %s  %s\n' "$w" "${a:--}" "${b:--}" "$verdict"
done
exit "$status"
