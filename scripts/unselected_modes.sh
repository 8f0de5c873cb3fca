#!/usr/bin/env bash
# Lists the modes no caller selects: enum variants that non-test code
# never constructs, and fields of a `pub struct *Config` that non-test
# code never sets. A mode every caller leaves at its default looks used
# to a reader count, so these two lists cover what it misses. Output is
# sorted, one `<file>: <Type>::<name>` line per mode; scripts/verify.sh
# compares it with scripts/unselected_modes.allow, which holds the modes
# that stay and ROADMAP.md gives the reason for each.
#
# Usage: scripts/unselected_modes.sh   (≈ 10 s, needs git and GNU grep -P)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=(hw core noc snn apps)
callers=(crates/*/src crates/bench benchmark/src examples src)

# first line of a file's `#[cfg(test)]` tail, empty if it has none
test_tail() { grep -n -m1 '^#\[cfg(test)\]' "$1" | cut -d: -f1; }

# true if `hit:line:text` is a test reader: under tests/, in a
# `#[cfg(test)]` tail, or on a `//` line (doc examples)
is_test() {
  local hit=$1 line=$2 text=$3 tail
  tail=$(test_tail "$hit")
  [[ $hit == tests/* || $hit == */tests/* || ( -n $tail && $line -gt $tail ) ||
     $text =~ ^[[:space:]]*// ]]
}

# Enum variants that non-test code never constructs: every non-test
# mention is a pattern (a match arm or one `|` alternative of it,
# `matches!`, `if let` / `let … else`), `Self::Variant` counting in the
# enum's own file. A variant built only by a `#[default]` derive or by
# deserialization prints too; one built inside a constructor fn
# (`Generator::Poisson` in `Generator::poisson`) does not. An arm split
# over lines with no `|` on the variant's line reads as a constructor.
unbuilt_variants() {
  local crate file line enum variant name built hit n text
  for crate in "${crates[@]}"; do
    { git grep -noP '^\s*pub enum \K\w+' -- "crates/$crate/src" || true; } |
    while IFS=: read -r file line enum; do
      # the enum's variants: names at brace depth 1 of its body
      awk -v s="$line" 'NR < s { next }
        { sub(/\/\/.*/, "") }
        NR > s && depth == 1 && /^[[:space:]]*[A-Z][A-Za-z0-9_]*[[:space:]]*([({,=]|$)/ {
          v = $0; sub(/^[[:space:]]*/, "", v); sub(/[^A-Za-z0-9_].*/, "", v); print v }
        { depth += gsub(/{/, "{") - gsub(/}/, "}"); if (NR > s && depth == 0) exit }' "$file" |
      while read -r variant; do
        # `Self::Variant` stands for the enum in its own file only
        name="($enum|Self)::$variant\b"
        built=0
        while IFS=: read -r hit n text; do
          is_test "$hit" "$n" "$text" && continue
          [[ $hit != "$file" ]] && ! grep -qP "$enum::$variant\b" <<< "$text" && continue
          grep -qP "$name[^;]*(=>|\s\|\s)|\s\|\s+$name|matches!.*$name|\blet\s[^=]*$name" <<< "$text" &&
            continue
          built=$((built + 1))
        done < <(git grep -nP "$name" -- "${callers[@]}" | grep '\.rs:' || true)
        if [ "$built" -eq 0 ]; then echo "$file: $enum::$variant"; fi
      done
    done
  done
}

# Fields of a `pub struct *Config` that non-test code never sets — by a
# struct-literal field (`field: value` or shorthand) or an assignment
# (`.field = `, `.field += `) — outside the type's own `impl Default`. A
# field name another struct shares counts that struct's setters too, so
# the list can miss a field, never print one that is set.
unset_config_fields() {
  local crate file line ty default field set hit n text
  for crate in "${crates[@]}"; do
    { git grep -noP '^\s*pub struct \K\w+Config\b' -- "crates/$crate/src" || true; } |
    while IFS=: read -r file line ty; do
      # the type's own `impl Default` is where a field gets its default,
      # not where a caller picks it
      default=$(awk -v t="$ty" '$0 ~ "^impl Default for " t " " { s = NR }
        s && /^}/ { print s ":" NR; exit }' "$file")
      awk -v s="$line" 'NR > s && /^}/ { exit }
        NR > s && /^[[:space:]]*pub [a-z_0-9]+:/ { sub(/^[[:space:]]*pub /, ""); sub(/:.*/, ""); print }' "$file" |
      while read -r field; do
        set=0
        while IFS=: read -r hit n text; do
          is_test "$hit" "$n" "$text" && continue
          [[ $hit == "$file" && -n $default && $n -ge ${default%:*} && $n -le ${default#*:} ]] && continue
          set=$((set + 1))
        done < <(git grep -nP "^\s*$field(:\s|,)|[{,]\s*$field(:\s|,|\s*})|\.$field\s*[-+*/|&]?=[^=]" \
                   -- "${callers[@]}" | grep '\.rs:' || true)
        if [ "$set" -eq 0 ]; then echo "$file: $ty::$field"; fi
      done
    done
  done
}

{ unbuilt_variants; unset_config_fields; } | LC_ALL=C sort
