#!/usr/bin/env sh
# Paired A/B runs of the repository benchmark (perfbench) on one workload:
# builds each checkout's perfbench the way perfbench/run.py does (by
# calling that checkout's run.py), then runs the two sides N times each,
# alternating (pair i runs the parent first when i is odd, the change
# first when i is even; both sides of pair i use seed i), and prints, for
# every metric in the result line, each side's median, the parent's
# interquartile range as % of its median, the change/parent ratio and in
# how many pairs the change was better.
#
#   scripts/perfbench_pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT N WORKLOAD [SECONDS]
#
#   scripts/perfbench_pairs.sh ../parent . 5 embed-query
#
# SECONDS defaults to BENCHMARK.json's run_seconds. A metric whose change
# median is worse than the parent median by more than its BENCHMARK.json
# bound is flagged PAST-BOUND; the flag is a report, not a gate (the
# script exits 0 whenever every run produced a result). A claimed gain
# reads as resolved only when the change is better in nearly every pair
# and the median gap exceeds the parent's IQR. The "fail_ratio" row is
# failed/attempted ops per run; runs whose oracle failed are listed.
#
# The script only reads BENCHMARK.json (from CHANGE_CHECKOUT) and each
# side's perfbench/; each side builds into its own .bench_build/.
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    sed -n '2,/^set -eu/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
N=$3
WORKLOAD=$4
case $N in
    ''|*[!0-9]*) echo "perfbench_pairs: N must be a positive integer" >&2; exit 2 ;;
esac
[ "$N" -gt 0 ] || { echo "perfbench_pairs: N must be > 0" >&2; exit 2; }
for dir in "$PARENT" "$CHANGE"; do
    if [ ! -f "$dir/perfbench/run.py" ]; then
        echo "perfbench_pairs: '$dir' has no perfbench/run.py" >&2
        exit 2
    fi
done
BENCH_JSON=$CHANGE/BENCHMARK.json
if [ $# -eq 5 ]; then
    SECONDS_PER_RUN=$5
else
    SECONDS_PER_RUN=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$BENCH_JSON")
fi

OUT=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_pairs.XXXXXX")
trap 'rm -rf "$OUT"' EXIT INT TERM

i=1
while [ "$i" -le "$N" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$PARENT; else dir=$CHANGE; fi
        if ! python3 "$dir/perfbench/run.py" --workload "$WORKLOAD" \
                --seed "$i" --seconds "$SECONDS_PER_RUN" \
                > "$OUT/$side.$i" 2> "$OUT/$side.$i.err"; then
            echo "perfbench_pairs: $side run $i failed:" >&2
            tail -20 "$OUT/$side.$i.err" >&2
            exit 1
        fi
        echo "perfbench_pairs: pair $i/$N $side done" >&2
    done
    i=$((i + 1))
done

python3 - "$OUT" "$N" "$BENCH_JSON" "$WORKLOAD" <<'PY'
import json
import sys

out, n, bench_json, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], \
    sys.argv[4]
spec = json.load(open(bench_json))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
better_of = {m["name"]: m["better"] for m in spec["end_to_end"]}
better_of["fail_ratio"] = "lower"


def result(path):
    """The JSON result line (the last line of run.py's stdout)."""
    lines = open(path, encoding="utf-8").read().rstrip("\n").split("\n")
    return json.loads(lines[-1])


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


runs = {side: [result("%s/%s.%d" % (out, side, i)) for i in range(1, n + 1)]
        for side in ("parent", "change")}
keys = []
for side in ("parent", "change"):
    for r in runs[side]:
        for k in r["metrics"]:
            if k not in keys:
                keys.append(k)
keys.append("fail_ratio")


def value(r, key):
    if key == "fail_ratio":
        return r["failed"] / r["attempted"] if r["attempted"] else 0.0
    m = r["metrics"].get(key)
    return None if m is None else float(m["value"])


print("workload %s, %d pairs" % (workload, n))
print("%-26s %12s %7s %12s %8s %8s  %s" % (
    "metric", "parent p50", "IQR%", "change p50", "chg/par", "better",
    "flag"))
for key in keys:
    par = [value(r, key) for r in runs["parent"]]
    chg = [value(r, key) for r in runs["change"]]
    if None in par or None in chg:
        continue  # not reported by every run of both sides
    p_med, c_med = quantile(par, 0.5), quantile(chg, 0.5)
    p_iqr = quantile(par, 0.75) - quantile(par, 0.25)
    iqr_pct = "%.0f%%" % (100 * p_iqr / abs(p_med)) if p_med else "-"
    ratio = "%.3f" % (c_med / p_med) if p_med else "-"
    direction = better_of.get(key)
    better, flag = "-", ""
    if direction:
        wins = sum(1 for a, b in zip(par, chg)
                   if (b < a if direction == "lower" else b > a))
        better = "%d/%d" % (wins, n)
        if key in bounds and p_med:
            bound = bounds[key]
            worse = (c_med - p_med) / abs(p_med)
            if direction == "higher":
                worse = -worse
            if worse > bound:
                flag = "PAST-BOUND (%+.0f%% vs %.0f%%)" % (100 * worse,
                                                          100 * bound)
    print("%-26s %12.6g %7s %12.6g %8s %8s  %s" % (
        key[:26], p_med, iqr_pct, c_med, ratio, better, flag))
for side in ("parent", "change"):
    bad = [i + 1 for i, r in enumerate(runs[side]) if not r["correct"]]
    if bad:
        print("%s: oracle failed in run(s) %s" % (
            side, ", ".join(str(i) for i in bad)))
PY
