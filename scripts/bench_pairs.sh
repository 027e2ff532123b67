#!/usr/bin/env sh
# Paired A/B timing of one bench binary: runs the parent build and the
# changed build N times each, alternating (pair i runs the parent first
# when i is odd, the change first when i is even, so drift and cache
# warm-up land on both sides), then prints, for every numeric row the
# binary emits, each side's median and interquartile range.
#
# fsync-bound timings swing by tens of percent run to run; one run per
# side cannot judge a persistence change. Read a row as resolved only when
# the parent's IQR is small next to the median gap.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN N [VAR=value ...]
#
#   scripts/bench_pairs.sh old/build/bench/bench_concurrent \
#       build/bench/bench_concurrent 5 BENCH_INSERTS=6000
#
# The VAR=value arguments are exported to both sides. Every invocation
# runs in a fresh temporary working directory (benches that keep state in
# the cwd start clean), removed afterwards.
#
# A numeric row is an output line ending in one or more numbers (a unit
# suffix such as 's', 'x' or '%' is allowed): the leading words are its
# key ("1 on", "durable"; prose with a comma in it is skipped), the
# trailing numbers its columns, named after the nearest preceding
# all-text line when that has enough words. Output per column: parent
# median, parent IQR (and IQR as % of the median), change median, change
# IQR, change/parent ratio of medians, and the number of pairs in which
# the change's value was higher.
set -eu

if [ $# -lt 3 ]; then
    sed -n '2,/^set -eu/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

PARENT_BIN=$1
CHANGE_BIN=$2
N=$3
shift 3

for bin in "$PARENT_BIN" "$CHANGE_BIN"; do
    if [ ! -x "$bin" ]; then
        echo "bench_pairs: '$bin' is not an executable" >&2
        exit 1
    fi
done
case $N in
    ''|*[!0-9]*) echo "bench_pairs: N must be a positive integer" >&2; exit 2 ;;
esac
[ "$N" -gt 0 ] || { echo "bench_pairs: N must be > 0" >&2; exit 2; }

abspath() {
    case $1 in
        /*) printf '%s\n' "$1" ;;
        *) printf '%s/%s\n' "$(pwd)" "$1" ;;
    esac
}
PARENT_BIN=$(abspath "$PARENT_BIN")
CHANGE_BIN=$(abspath "$CHANGE_BIN")

OUT=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$OUT"' EXIT INT TERM

i=1
while [ "$i" -le "$N" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$PARENT_BIN; else bin=$CHANGE_BIN; fi
        work="$OUT/work"
        mkdir -p "$work"
        if ! (cd "$work" && env "$@" "$bin" > "$OUT/$side.$i" 2> "$OUT/$side.$i.err"); then
            echo "bench_pairs: $side run $i failed:" >&2
            cat "$OUT/$side.$i.err" >&2
            exit 1
        fi
        rm -rf "$work"
        echo "bench_pairs: pair $i/$N $side done" >&2
    done
    i=$((i + 1))
done

python3 - "$OUT" "$N" <<'PY'
import re
import sys

out, n = sys.argv[1], int(sys.argv[2])
NUM = re.compile(r"^-?[0-9]+(\.[0-9]+)?[a-z%/]*$")


def rows(path):
    """(key, column) -> value for every line ending in numbers."""
    result, order, names = {}, [], []
    for line in open(path, encoding="utf-8", errors="replace"):
        tokens = line.split()
        if not tokens:
            continue
        tail = 0
        while tail < len(tokens) and NUM.match(tokens[-1 - tail]):
            tail += 1
        if tail == 0:
            names = tokens
            continue
        key = " ".join(tokens[:-tail])
        if not key or "," in key:
            continue  # unlabelled, or prose that happens to end in a number
        cols = names[-tail:] if len(names) >= tail else [
            "col%d" % (c + 1) for c in range(tail)]
        for c, tok in enumerate(tokens[-tail:]):
            value = float(re.match(r"-?[0-9.]+", tok).group(0))
            k = (key, cols[c])
            if k not in result:
                order.append(k)
            result[k] = value
    return result, order


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


runs = {side: [rows("%s/%s.%d" % (out, side, i)) for i in range(1, n + 1)]
        for side in ("parent", "change")}
keys = []
for side in ("parent", "change"):
    for _, order in runs[side]:
        for k in order:
            if k not in keys:
                keys.append(k)

print("%-22s %-10s %12s %10s %6s %12s %10s %8s %6s" % (
    "row", "column", "parent p50", "IQR", "IQR%", "change p50", "IQR",
    "chg/par", "higher"))
for key, col in keys:
    par = [r[(key, col)] for r, _ in runs["parent"] if (key, col) in r]
    chg = [r[(key, col)] for r, _ in runs["change"] if (key, col) in r]
    if len(par) != n and len(chg) != n:
        continue  # neither side prints this row every run
    def cell(xs):
        if len(xs) != n:
            return ("-", "-", None)
        med = quantile(xs, 0.5)
        iqr = quantile(xs, 0.75) - quantile(xs, 0.25)
        return ("%.6g" % med, "%.3g" % iqr, (med, iqr))
    p_med, p_iqr, p = cell(par)
    c_med, c_iqr, c = cell(chg)
    iqr_pct = "%.0f%%" % (100 * p[1] / p[0]) if p and p[0] else "-"
    ratio = "%.3f" % (c[0] / p[0]) if p and c and p[0] else "-"
    higher = ("%d/%d" % (sum(1 for a, b in zip(par, chg) if b > a), n)
              if p and c else "-")
    print("%-22s %-10s %12s %10s %6s %12s %10s %8s %6s" % (
        key[:22], col[:10], p_med, p_iqr, iqr_pct, c_med, c_iqr, ratio,
        higher))
PY
