#!/usr/bin/env bash
# Alternating parent/change pairs of one exp_e2e workload, judged
# against the bounds in BENCHMARK.json.
#
# usage: scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED...
#
# Pair i runs both binaries at SEED i with --seconds 8 --trace 0, the
# parent first on even pairs and the change first on odd ones. Each
# run's summary line is echoed as it lands. The table that follows
# gives, per end-to-end metric, each side's median [Q1, Q3], the
# change's median shift, its wins (ties count for neither side) and the
# verdict:
#   gain          the change wins at least 9 of 10 pairs and the medians
#                 differ by more than the parent's interquartile range;
#   REGRESSION    the change's median is worse than the parent's by more
#                 than the metric's bound;
#   unresolved    the parent's own IQR is wider than the bound and not
#                 every change run beats every parent run;
#   within bound  otherwise.
# Exits 1 when a run failed an op or an output check, or on a REGRESSION.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
parent=$1 change=$2 workload=$3
shift 3
root=$(cd "$(dirname "$0")/.." && pwd)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

pair=0
for seed in "$@"; do
  if ((pair % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do
    bin=$parent
    [ "$side" = change ] && bin=$change
    # A run that exits non-zero or ends without a summary line counts
    # as failed; its metrics are left out of the table.
    if ! summary=$("$bin" --workload "$workload" --seed "$seed" --seconds 8 --trace 0 | tail -n 1) ||
      [ "${summary:0:1}" != "{" ]; then
      summary='{"failed": 1, "correct": false, "metrics": {}}'
    fi
    echo "$pair $seed $side $summary" | tee -a "$runs"
  done
  pair=$((pair + 1))
done

python3 - "$root/BENCHMARK.json" "$runs" "$workload" <<'PY'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
pairs = {}
for line in open(sys.argv[2]):
    pair, seed, side, summary = line.split(" ", 3)
    pairs.setdefault((int(pair), seed), {})[side] = json.loads(summary)

failed = [
    f"pair {p} seed {s} {side}"
    for (p, s), sides in sorted(pairs.items())
    for side, run in sides.items()
    if run.get("failed", 0) or not run.get("correct", False)
]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def fmt(x):
    return f"{x:.4g}"


print(f"\n{sys.argv[3]}: {len(pairs)} pairs, seeds "
      + " ".join(s for _, s in sorted(pairs)))
print(f"{'metric':<12} {'parent median [Q1, Q3]':<30} {'change median [Q1, Q3]':<30} "
      f"{'shift':>8} {'wins':>7} {'bound':>6}  verdict")
regressed = False
for metric in bench["end_to_end"]:
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    both = [
        (sides["parent"]["metrics"][name]["value"], sides["change"]["metrics"][name]["value"])
        for sides in pairs.values()
        if name in sides["parent"]["metrics"] and name in sides["change"]["metrics"]
    ]
    if not both:
        continue

    def better(a, b):
        return a < b if lower else a > b

    par = sorted(p for p, _ in both)
    chg = sorted(c for _, c in both)
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    wins = sum(better(c, p) for p, c in both)
    ties = sum(c == p for p, c in both)
    shift = (cmed - pmed) / pmed if pmed else 0.0
    worse_by = shift if lower else -shift
    iqr = pq3 - pq1
    if wins >= 0.9 * len(both) and better(cmed, pmed) and abs(cmed - pmed) > iqr:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "REGRESSION"
        regressed = True
    elif pmed and iqr / abs(pmed) > bound and not better(max(chg) if lower else min(chg),
                                                          min(par) if lower else max(par)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    print(f"{name:<12} {fmt(pmed) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':<30} "
          f"{fmt(cmed) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':<30} "
          f"{shift * 100:>+7.1f}% {f'{wins}/{len(both)}':>7} {bound:>6}  {verdict}"
          + (f" ({ties} ties)" if ties else ""))
for f in failed:
    print(f"FAILED RUN: {f}")
sys.exit(1 if failed or regressed else 0)
PY
