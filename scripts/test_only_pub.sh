#!/usr/bin/env bash
# Lists the `pub fn`s under crates/*/src that no non-test code calls: a
# public function only tests read is a fixture or dead code, and either
# way it needs a verdict. Output is sorted, one `<file>: <Type>::<name>`
# line per function (`<file>: <name>` for a free function);
# scripts/verify.sh compares it with scripts/test_only_pub.allow, which
# holds the fixtures that stay and ROADMAP.md gives the reason for each.
#
# Test readers follow scripts/unselected_modes.sh: a hit under tests/,
# in a file's `#[cfg(test)]` tail or on a `//` line (doc examples) reads
# nothing. Any other hit is a call when it is `.name(`, `::name` or an
# import (a `pub use` re-exports and calls nothing); in the function's
# own file a bare `name(` is one too. The list can miss a function whose
# name another item shares (`::new`), and prints one that non-test code
# reaches only through a glob import or as a bare fn value.
#
# Usage: scripts/test_only_pub.sh   (≈ 5 s, needs git and GNU grep -P)
set -euo pipefail
cd "$(dirname "$0")/.."

callers=(crates/*/src crates/bench benchmark/src examples src)

# every non-test line of the callers as `file:line:flag:text`, flag `U`
# on the lines of a private `use` and `-` elsewhere
nontest=$(mktemp)
trap 'rm -f "$nontest"' EXIT
git ls-files -- "${callers[@]}" | grep '\.rs$' | grep -v '\(^\|/\)tests/' |
  xargs awk '
    FNR == 1 { tail = 0; u = 0 }
    /^#\[cfg\(test\)\]/ { tail = 1 }
    tail || /^[[:space:]]*\/\// { next }
    /^[[:space:]]*pub(\([a-z]+\))?[[:space:]]+use[[:space:]]/ { u = 2 }
    /^[[:space:]]*use[[:space:]]/ { u = 1 }
    { print FILENAME ":" FNR ":" (u == 1 ? "U" : "-") ":" $0 }
    /;/ { u = 0 }' > "$nontest"

# the type of the `impl` block around line $2 of file $1, empty for a
# free function
impl_type() {
  awk -v n="$2" 'NR == n { print t; exit }
    /^impl/ { t = $0; sub(/ *\{.*/, "", t); sub(/.* for /, "", t)
              sub(/^impl(<[^>]*>)? */, "", t); sub(/<.*/, "", t) }
    /^}/ { t = "" }' "$1"
}

git grep -noP '^\s*pub fn \K\w+' -- 'crates/*/src/*.rs' | while IFS=: read -r file line name; do
  tail=$(grep -n -m1 '^#\[cfg(test)\]' "$file" | cut -d: -f1 || true)
  [[ -n $tail && $line -gt $tail ]] && continue
  call="\.$name\s*(\(|::<)|::$name\b"
  grep -qP "^[^:]+:\d+:U:.*\b$name\b|^[^:]+:\d+:-:.*($call)" "$nontest" && continue
  grep -qP "^\Q$file\E:\d+:.:(?!.*\bfn\s+$name\b).*\b$name\s*(\(|::<)" "$nontest" && continue
  type=$(impl_type "$file" "$line")
  echo "$file: ${type:+$type::}$name"
done | LC_ALL=C sort
