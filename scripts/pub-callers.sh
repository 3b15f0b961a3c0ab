#!/usr/bin/env bash
# No public function without a caller.
#
# Lists every `pub fn`, `pub const` and `pub static` in the library crates
# (scuba-spatial, -motion, -roadnet, -generator, -stream and scuba), up to
# each file's `#[cfg(test)]`, and fails unless the item's name appears as a
# word in the non-test code of some *other* `.rs` file: the crates and the
# root package's src/ and examples/, each up to its `#[cfg(test)]`, with
# every `tests/` directory left out. The ledger's src/ and tests/ count in
# full, because the ledger must keep compiling. `pub use` statements and
# `//` comments do not count as callers. An item used only by its own file
# should be private; one used by nothing — or only by tests — should go,
# unless tests need it to observe state (then allow-list it).
#
# Types and traits are out of scope: callers reach them through signatures.
# The match is by name, so a common name (`new`, `len`) always passes; the
# check catches the item that nothing names at all.
#
# Exemptions live in scripts/pub-callers.allow, one `name reason…` a line.
#
# Usage: scripts/pub-callers.sh   (from anywhere; exit 1 lists offenders)
set -euo pipefail
cd "$(dirname "$0")/.."

allow_file=scripts/pub-callers.allow
libs=(crates/spatial crates/motion crates/roadnet crates/generator crates/stream crates/scuba)

corpus=$(mktemp)
others=$(mktemp)
trap 'rm -f "$corpus" "$others"' EXIT

# Every candidate caller line as `path:text`, with `pub use` statements
# (including their continuation lines) and `//` comments removed, and
# engine files cut at their `#[cfg(test)]`.
{
  find crates src examples -name '*.rs' -not -path '*/tests/*' -print0 2>/dev/null
  find ledger/src ledger/tests -name '*.rs' -print0 2>/dev/null
} | sort -z \
  | xargs -0 awk '
      FNR == 1 { in_use = 0; in_tests = 0 }
      FILENAME !~ /^ledger\// && /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      {
        line = $0
        if (in_use || line ~ /^[ \t]*pub use /) {
          in_use = (line !~ /;/)
          next
        }
        sub(/\/\/.*/, "", line)
        if (line ~ /[A-Za-z_]/) print FILENAME ":" line
      }' >"$corpus"

allowed() {
  [ -f "$allow_file" ] && grep -Eq "^$1([[:space:]]|$)" "$allow_file"
}

failures=0
while IFS= read -r file; do
  # `line:name` for each public function, const or static before the tests.
  items=$(awk '
      /^[ \t]*#\[cfg\(test\)\]/ { exit }
      match($0, /^[ \t]*pub (const |unsafe |async )*fn [A-Za-z_][A-Za-z0-9_]*/) ||
      match($0, /^[ \t]*pub (const|static) (mut )?[A-Za-z_][A-Za-z0-9_]*/) {
        decl = substr($0, RSTART, RLENGTH)
        n = split(decl, words, /[ \t]+/)
        print FNR ":" words[n]
      }' "$file")
  [ -n "$items" ] || continue
  grep -v -F "$file:" "$corpus" >"$others" || true
  for item in $items; do
    line=${item%%:*}
    name=${item#*:}
    if grep -Eq "(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|$)" "$others"; then
      continue
    fi
    allowed "$name" && continue
    echo "$file:$line: pub item \`$name\` has no caller outside its file"
    failures=$((failures + 1))
  done
done < <(find "${libs[@]/%//src}" -name '*.rs' | sort)

if [ "$failures" -gt 0 ]; then
  echo "$failures public item(s) without a caller: delete them, make them private," \
    "or list them in $allow_file with a reason" >&2
  exit 1
fi
echo "every public fn/const/static has a caller"
