#!/usr/bin/env bash
# Lists the symbols added, removed or resized between two binaries, the
# largest size change first: one line per symbol, `delta size_A size_B
# name` (sizes in bytes, `-` where a binary lacks the symbol), then one
# line counting what changed.
#
# Release builds use thin LTO, which re-decides inlining across crates,
# so an edit in one module can change the code of functions it never
# touched. When a stage the change did not edit moves in a timing, run
# this on the two builds (e.g. the parent's and the change's
# benchmark/target/release/mapbench) to see which functions appeared,
# vanished or changed size.
#
# Usage: scripts/symbol_sizes.sh A B [N]   (N lines, default 30; 0: all)
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 A B [N]" >&2
  exit 2
fi
a=$1
b=$2
n=${3:-30}

# "size<TAB>name" per demangled name; a name defined more than once
# (generic instances, local statics) counts with its sizes summed
sizes() {
  nm -C --size-sort -S "$1" | awk '
    function hex(s,   i, v) {
      v = 0
      for (i = 1; i <= length(s); i++)
        v = v * 16 + index("0123456789abcdef", tolower(substr(s, i, 1))) - 1
      return v
    }
    {
      size = hex($2)
      $1 = $2 = $3 = ""
      sub(/^ +/, "")
      total[$0] += size
    }
    END { for (name in total) printf "%d\t%s\n", total[name], name }'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
sizes "$a" > "$tmp/a"
sizes "$b" > "$tmp/b"

# "|delta|<TAB>delta<TAB>size_A<TAB>size_B<TAB>name", largest |delta| first
awk -F'\t' '
  NR == FNR { in_a[$2] = $1; next }
  { in_b[$2] = $1 }
  END {
    for (s in in_a)
      if (!(s in in_b)) printf "%d\t-%d\t%d\t-\t%s\n", in_a[s], in_a[s], in_a[s], s
    for (s in in_b) {
      if (!(s in in_a)) printf "%d\t+%d\t-\t%d\t%s\n", in_b[s], in_b[s], in_b[s], s
      else if (in_a[s] != in_b[s]) {
        d = in_b[s] - in_a[s]
        sign = (d > 0) ? "+" : ""
        printf "%d\t%s%d\t%d\t%d\t%s\n", (d < 0) ? -d : d, sign, d, in_a[s], in_b[s], s
      }
    }
  }' "$tmp/a" "$tmp/b" | sort -t "$(printf '\t')" -k1,1nr -k5,5 > "$tmp/delta"

printf 'delta\tsize_A\tsize_B\tname\n'
if [ "$n" -eq 0 ]; then
  cut -f2- "$tmp/delta"
else
  head -n "$n" "$tmp/delta" | cut -f2-
fi
awk -F'\t' '
  $3 == "-" { added++ }
  $4 == "-" { removed++ }
  $3 != "-" && $4 != "-" { resized++ }
  END { printf "%d added, %d removed, %d resized\n", added, removed, resized }' "$tmp/delta"
