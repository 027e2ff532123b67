#!/usr/bin/env sh
# Paper-figure parity: runs every deterministic paper bench (fig7-fig14,
# table1_3, table4, table5_6, ablation_*) from two build trees and diffs
# their outputs byte for byte. A change that claims to keep the paper's
# results (a refactor, a layout or speed change) must leave every one
# identical.
#
#   scripts/paper_bench_diff.sh PARENT_BUILD CHANGE_BUILD
#
#   scripts/paper_bench_diff.sh old/build build
#
# Each PARENT_BUILD/CHANGE_BUILD is a CMake build directory holding
# bench/bench_*. Each parent bench runs twice first: a bench whose two
# parent runs differ is reported NOT-REPEATABLE and its diff is not judged.
# Then the change's bench runs once and is compared with the parent's.
# Every run gets a fresh temporary working directory. Per bench the output
# is one line: identical, DIFFERS (followed by the first lines of the
# diff), NOT-REPEATABLE or MISSING. Exit status 0 when every repeatable
# bench is identical, 1 otherwise, 2 on bad arguments.
set -eu

if [ $# -ne 2 ]; then
    sed -n '2,/^set -eu/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
for dir in "$1" "$2"; do
    if [ ! -d "$dir/bench" ]; then
        echo "paper_bench_diff: '$dir' has no bench/ directory" >&2
        exit 2
    fi
done
PARENT=$(cd "$1" && pwd)/bench
CHANGE=$(cd "$2" && pwd)/bench

OUT=$(mktemp -d "${TMPDIR:-/tmp}/paper_bench_diff.XXXXXX")
trap 'rm -rf "$OUT"' EXIT INT TERM

# run BIN OUTFILE: runs one bench in an empty working directory.
run() {
    mkdir "$OUT/work"
    status=0
    (cd "$OUT/work" && "$1" > "$2" 2>&1) || status=$?
    rm -rf "$OUT/work"
    [ "$status" -eq 0 ] || echo "exit status $status" >> "$2"
}

BENCHES="fig7_space fig8_hops fig9_point_hit fig10_recall fig11_thresholds
fig12_recall_scale fig13_online_offline fig14_versioning table1_3_traces
table4_latency table5_6_versioning_recall"
for bin in "$PARENT"/bench_ablation_*; do
    [ -x "$bin" ] && BENCHES="$BENCHES ${bin##*/bench_}"
done

failed=0
for name in $BENCHES; do
    p="$PARENT/bench_$name"
    c="$CHANGE/bench_$name"
    if [ ! -x "$p" ] || [ ! -x "$c" ]; then
        printf '%-28s MISSING\n' "$name"
        failed=1
        continue
    fi
    run "$p" "$OUT/p1"
    run "$p" "$OUT/p2"
    if ! cmp -s "$OUT/p1" "$OUT/p2"; then
        printf '%-28s NOT-REPEATABLE (two parent runs differ)\n' "$name"
        continue
    fi
    run "$c" "$OUT/c"
    if cmp -s "$OUT/p1" "$OUT/c"; then
        printf '%-28s identical\n' "$name"
    else
        printf '%-28s DIFFERS\n' "$name"
        diff "$OUT/p1" "$OUT/c" | head -20 | sed 's/^/    /'
        failed=1
    fi
done
exit "$failed"
