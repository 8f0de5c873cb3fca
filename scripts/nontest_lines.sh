#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under crates/*/src, the
# lines before its first `#[cfg(test)]` line (the whole file when it has
# none), summed per crate. The count simplicity changes report before
# and after.
#
#   scripts/nontest_lines.sh [REPO_ROOT]    # default: this checkout
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

for dir in crates/*/src; do
  crate=${dir#crates/}
  crate=${crate%/src}
  find "$dir" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }' |
    { read -r n; printf '%-6s %6d\n' "$crate" "$n"; }
done
