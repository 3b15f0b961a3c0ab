#!/usr/bin/env bash
# Alternating parent/change ledger pairs, summarised.
#
# Builds the performance ledger twice — from <parent-rev> (a `git archive`
# of it) and from the working tree, each into its own CARGO_TARGET_DIR —
# then runs `scuba-ledger run --workload <workload> --seed <seed>` in
# <pairs> pairs, alternating which side runs first, and prints for every
# end-to-end metric (and, on a `--trace` run, every per-layer row) the
# parent's median and interquartile range, the change's median, the
# change's move in per cent and how many pairs the change won. Rows whose
# unit is `count` print as integers, and on a `--trace` run a line names
# every count row that differs between the sides in any pair (or says "all
# counts bit-equal"). A gain is worth claiming only when the change wins at
# least 9 of 10 pairs and the medians differ by more than the parent's IQR.
#
# It also says whether the change would pass the benchmark's gate, which
# refuses a change on either kind of failure: before the table, one line
# per side gives the failed operations, the runs not `correct` and each
# run's "resume: N of 7" count; the last line names every end-to-end metric
# whose change median is worse than the parent's by more than the parent's
# IQR, or says "no end-to-end metric worse".
#
# Usage: scripts/ledger-pairs.sh <parent-rev> <workload> [pairs] [seed] [-- run flags…]
#   pairs defaults to 10, seed to 20060326; the run flags default to
#   `--seconds 20` (add `--trace` for the per-layer rows).
# Work files go under $LEDGER_PAIRS_DIR (default: $TMPDIR/ledger-pairs):
# the parent's source, both target directories, each run's result file.
set -euo pipefail

usage() {
  sed -n '/^# Usage:/,/^# the parent/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
pairs=10 seed=20060326
if [ $# -gt 0 ] && [ "$1" != "--" ]; then pairs=$1; shift; fi
if [ $# -gt 0 ] && [ "$1" != "--" ]; then seed=$1; shift; fi
if [ $# -gt 0 ] && [ "$1" = "--" ]; then shift; fi
run_flags=("$@")
[ ${#run_flags[@]} -gt 0 ] || run_flags=(--seconds 20)
case $pairs in '' | *[!0-9]*) usage ;; esac
case $seed in '' | *[!0-9]*) usage ;; esac

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${LEDGER_PAIRS_DIR:-${TMPDIR:-/tmp}/ledger-pairs}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# The benchmark's build: offline, through the ledger's stand-in overlay
# while the tree still has one.
build() { # <source dir> <target dir>
  local flags=(--release --offline --quiet --manifest-path ledger/Cargo.toml)
  [ -f "$1/ledger/offline/config.toml" ] && flags+=(--config ledger/offline/config.toml)
  (cd "$1" && CARGO_TARGET_DIR=$2 cargo build "${flags[@]}")
}

rm -rf "$work/parent-src" "$work/runs"
mkdir -p "$work/parent-src" "$work/runs"
git -C "$repo" archive "$rev" | tar -x -C "$work/parent-src"
echo "building parent ($(git -C "$repo" rev-parse --short "$rev")) and change ($repo)" >&2
build "$work/parent-src" "$work/target-parent"
build "$repo" "$work/target-change"

for i in $(seq 1 "$pairs"); do
  sides="parent change"
  [ $((i % 2)) -eq 0 ] && sides="change parent"
  for side in $sides; do
    (cd "$work" && "$work/target-$side/release/scuba-ledger" run --workload "$workload" \
      --seed "$seed" "${run_flags[@]}" --out-dir "$work/out-$side" \
      --out "$work/runs/$side-$i.json" >/dev/null)
  done
  echo "pair $i of $pairs done ($sides)" >&2
done

# Per side: failed operations, runs not `correct`, resume count per run.
for side in parent change; do
  for i in $(seq 1 "$pairs"); do
    jq -r '.workloads[0].runs[0]
      | [.failed, .correct,
         (first(.notes[]? | capture("^resume: (?<n>[0-9]+) of 7").n) // "-")]
      | @tsv' "$work/runs/$side-$i.json"
  done | awk -F'\t' -v side="$side" -v pairs="$pairs" '
    { failed += $1; if ($2 != "true") bad++; resume = resume " " $3 }
    END {
      printf "%-6s: %d failed operations, %d of %d runs not correct, resume (N of 7) per run:%s\n",
        side, failed, bad, pairs, resume
    }'
done

# One `side pair section name better value unit` line per metric and run.
for i in $(seq 1 "$pairs"); do
  for side in parent change; do
    jq -r --arg side "$side" --arg pair "$i" '
      .workloads[0]
      | (.end_to_end[] | [$side, $pair, "end-to-end", .name, .better, .values[0], .unit]),
        (.per_layer[]? | select(.values | length > 0)
          | [$side, $pair, "per-layer", .name, .better, .values[0], .unit])
      | @tsv' "$work/runs/$side-$i.json"
  done
done | awk -F'\t' -v pairs="$pairs" -v workload="$workload" -v seed="$seed" '
  function quantile(sorted, n, p,    h, lo) {
    h = (n - 1) * p
    lo = int(h)
    return lo + 1 < n ? sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
  }
  function sort_into(key, side, out,    k, n, j, t) {
    split("", out)
    n = 0
    for (k = 1; k <= pairs; k++) if ((side, key, k) in value) out[n++] = value[side, key, k]
    for (j = 1; j < n; j++) {
      t = out[j]
      for (k = j - 1; k >= 0 && out[k] > t; k--) out[k + 1] = out[k]
      out[k + 1] = t
    }
    return n
  }
  {
    key = $3 SUBSEP $4
    if (!(key in better)) { order[++count] = key; better[key] = $5; unit[key] = $7 }
    value[$1, key, $2] = $6 + 0
  }
  END {
    printf "%s, seed %s, %d alternating pairs\n", workload, seed, pairs
    printf "%-11s %-40s %14s %12s %14s %8s %6s\n", "section", "metric", "parent p50", "parent IQR", "change p50", "move", "wins"
    for (m = 1; m <= count; m++) {
      key = order[m]
      split(key, part, SUBSEP)
      np = sort_into(key, "parent", ps)
      nc = sort_into(key, "change", cs)
      if (np == 0 || nc == 0) continue
      pm = quantile(ps, np, 0.5); cm = quantile(cs, nc, 0.5)
      iqr = quantile(ps, np, 0.75) - quantile(ps, np, 0.25)
      wins = 0
      for (k = 1; k <= pairs; k++) {
        p = value["parent", key, k]; c = value["change", key, k]
        if ((better[key] == "higher" && c > p) || (better[key] == "lower" && c < p)) wins++
      }
      move = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "-"
      if (part[1] == "end-to-end" &&
          ((better[key] == "higher" && pm - cm > iqr) || (better[key] == "lower" && cm - pm > iqr))) {
        worse = worse sprintf("%s%s %.6g → %.6g (parent IQR %.4g)", worse == "" ? "" : "; ",
          part[2], pm, cm, iqr)
      }
      # Counts print whole: %g would show 17128245 and 17128246 alike.
      fmt = unit[key] == "count" ? "%14.0f" : "%14.6g"
      printf "%-11s %-40s " fmt " %12.4g " fmt " %8s %3d/%d\n", part[1], part[2], pm, iqr, cm, move, wins, pairs
      if (unit[key] != "count") continue
      counts++
      differ = 0
      for (k = 1; k <= pairs; k++) {
        if (value["parent", key, k] != value["change", key, k]) {
          if (!differ) first = k
          differ++
        }
      }
      if (differ) {
        diffs = diffs sprintf("%s%s parent %.0f change %.0f (%d of %d pairs)", diffs == "" ? "" : "; ",
          part[2], value["parent", key, first], value["change", key, first], differ, pairs)
      }
    }
    if (!counts) print "no count rows (they come with --trace)"
    else print diffs == "" ? "all counts bit-equal" : "counts that differ: " diffs
    print worse == "" ? "no end-to-end metric worse" : "end-to-end metrics worse by more than the parent IQR: " worse
  }'
