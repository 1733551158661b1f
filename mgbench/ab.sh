#!/usr/bin/env bash
# Compare the working tree (head) with a base revision on one workload:
#
#   bash mgbench/ab.sh <base-rev> <workload> [pairs]     (default 10 pairs)
#
# The base is checked out in a git worktree under $TMPDIR and given
# head's mgbench/ and BENCHMARK.json, so both sides run the same
# benchmark code.  Runs alternate base/head (head first on odd pairs),
# each pair with its own seed.  Prints, per end-to-end metric, each
# side's median and quartiles, how many pairs head won, and a verdict:
#
#   gain       head won >= 9/10 of the pairs and the medians differ by
#              more than the base's interquartile range
#   regressed  head's median is worse than base's by more than the bound
#   unresolved base's own spread exceeds the bound
#   same       otherwise
set -euo pipefail
base_rev=${1:?usage: ab.sh <base-rev> <workload> [pairs]}
workload=${2:?usage: ab.sh <base-rev> <workload> [pairs]}
pairs=${3:-10}
head=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mgbench-ab.XXXXXX")
base="$work/base"
cleanup() {
  git -C "$head" worktree remove --force "$base" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$head" worktree add --detach --quiet "$base" "$base_rev"
rm -rf "$base/mgbench"
cp -R "$head/mgbench" "$base/mgbench"
rm -rf "$base/mgbench/.mgbench"
cp "$head/BENCHMARK.json" "$base/BENCHMARK.json"

run() { # tree seed -> appends the result line to $work/<side>.jsonl
  local side=$1 seed=$2 tree
  if [ "$side" = base ]; then tree=$base; else tree=$head; fi
  (cd "$tree" && bash mgbench/run.sh --workload "$workload" --seed "$seed" --trace 0) \
    | tail -n 1 >>"$work/$side.jsonl"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then run head "$i"; run base "$i"; else run base "$i"; run head "$i"; fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$head/BENCHMARK.json" "$work/base.jsonl" "$work/head.jsonl" "$workload" <<'EOF'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
base = [json.loads(l) for l in open(sys.argv[2])]
head = [json.loads(l) for l in open(sys.argv[3])]
print(f"workload {sys.argv[4]}: {len(base)} pairs; failed ops base {sum(r['failed'] for r in base)}, "
      f"head {sum(r['failed'] for r in head)}")
print(f"{'metric':20s} {'base q1/median/q3':>34s} {'head q1/median/q3':>34s} {'head wins':>9s}  verdict")
for m in spec["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    qb, qh = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
    mb, mh = statistics.median(b), statistics.median(h)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    worse = (mh - mb) / mb if lower else (mb - mh) / mb
    if wins >= 0.9 * len(b) and abs(mh - mb) > qb[2] - qb[0]:
        verdict = "gain"
    elif worse > bound:
        verdict = "regressed"
    elif (qb[2] - qb[0]) / mb > bound:
        verdict = "unresolved"
    else:
        verdict = "same"
    fmt = lambda q, med: f"{q[0]:.4g} / {med:.4g} / {q[2]:.4g}"
    print(f"{name:20s} {fmt(qb, mb):>34s} {fmt(qh, mh):>34s} {wins:4d}/{len(b):<4d}  {verdict}"
          f" ({worse * 100:+.1f}% worse, bound {bound * 100:.0f}%)")
EOF
