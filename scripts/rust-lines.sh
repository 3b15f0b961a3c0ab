#!/usr/bin/env bash
# Lines of Rust in the engine workspace, one way every time.
#
# Counts every line (code, comments, blanks and tests alike) of each `.rs`
# file under crates/, src/, tests/ and examples/ — the tree ROADMAP's size
# target is stated over. The ledger (ledger/) is a package of its own and
# is not counted. Prints one line per crate under crates/, one for the
# root package (src/, tests/, examples/), then the total.
#
# Usage: scripts/rust-lines.sh   (from anywhere; reports only, never fails
# on a count)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 cat 2>/dev/null | wc -l
}

total=0
for dir in crates/*/; do
  n=$(count "$dir")
  printf '%-26s %7d\n' "${dir%/}" "$n"
  total=$((total + n))
done
roots=()
for dir in src tests examples; do
  [ -d "$dir" ] && roots+=("$dir")
done
n=0
[ ${#roots[@]} -gt 0 ] && n=$(count "${roots[@]}")
printf '%-26s %7d\n' "root (src tests examples)" "$n"
total=$((total + n))
printf '%-26s %7d\n' "total" "$total"
