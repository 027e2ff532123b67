#!/usr/bin/env sh
# Emits the machine-readable performance reports, so the trajectory across
# PRs has data points:
#
#   BENCH_core.json     Google-Benchmark micro suite (bench_micro_core);
#                       optional — skipped when the library was absent at
#                       configure time.
#   BENCH_persist.json  multi-writer ingest throughput by thread count
#                       (with and without the sharded WAL) and recovery
#                       time from sharded logs (bench_concurrent, driven
#                       through the db::Store facade).
#   BENCH_db.json       the facade boundary's overhead vs raw core calls
#                       (put / batch / durable paths) and facade-level
#                       open / bulkload / checkpoint / reopen /
#                       crash-reopen timings (bench_db_api).
#   BENCH_cluster.json  routed throughput / tail latency / redirect rate
#                       of the service tier at 1/2/4/8 shards
#                       (bench_cluster, concurrent routed clients over
#                       the in-process transport).
#   BENCH_scale.json    incremental-checkpoint scale tier (bench_scale):
#                       delta vs full-image checkpoint bytes at 1% churn,
#                       recovery time, ingest-during-fold degradation.
#   BENCH_trajectory.json
#                       all of the above merged into one document keyed
#                       by suite, stamped with the git commit — the
#                       single artifact to diff across PRs.
#
#   scripts/bench_report.sh [build-dir] [core-json] [persist-json] [db-json]
#                           [cluster-json] [scale-json] [trajectory-json]
#
# Honoured environment: BENCH_REPETITIONS (micro suite), BENCH_SMOKE=1
# (tiny bench_concurrent/bench_scale sizes for CI smoke runs),
# BENCH_INSERTS, BENCH_SCALE_FILES (scale-tier size;
# the nightly CI job sets 1000000).
set -eu

BUILD_DIR=${1:-build}
CORE_OUT=${2:-BENCH_core.json}
PERSIST_OUT=${3:-BENCH_persist.json}
DB_OUT=${4:-BENCH_db.json}
CLUSTER_OUT=${5:-BENCH_cluster.json}
SCALE_OUT=${6:-BENCH_scale.json}
TRAJECTORY_OUT=${7:-BENCH_trajectory.json}

if [ ! -d "$BUILD_DIR" ]; then
    echo "bench_report: build dir '$BUILD_DIR' not found — configure first:" >&2
    echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

MICRO="$BUILD_DIR/bench/bench_micro_core"
if [ -x "$MICRO" ]; then
    "$MICRO" \
        --benchmark_out="$CORE_OUT" \
        --benchmark_out_format=json \
        --benchmark_repetitions="${BENCH_REPETITIONS:-1}"
    echo "bench_report: wrote $CORE_OUT"
else
    echo "bench_report: $MICRO not built (Google Benchmark not found at configure time); skipping"
fi

CONCURRENT="$BUILD_DIR/bench/bench_concurrent"
if [ -x "$CONCURRENT" ]; then
    "$CONCURRENT" --json "$PERSIST_OUT"
    echo "bench_report: wrote $PERSIST_OUT"
else
    echo "bench_report: $CONCURRENT not built; skipping $PERSIST_OUT" >&2
    exit 1
fi

DB_API="$BUILD_DIR/bench/bench_db_api"
if [ -x "$DB_API" ]; then
    "$DB_API" --json "$DB_OUT"
    echo "bench_report: wrote $DB_OUT"
else
    echo "bench_report: $DB_API not built; skipping $DB_OUT" >&2
    exit 1
fi

CLUSTER="$BUILD_DIR/bench/bench_cluster"
if [ -x "$CLUSTER" ]; then
    "$CLUSTER" --json "$CLUSTER_OUT"
    echo "bench_report: wrote $CLUSTER_OUT"
else
    echo "bench_report: $CLUSTER not built; skipping $CLUSTER_OUT" >&2
    exit 1
fi

SCALE="$BUILD_DIR/bench/bench_scale"
if [ -x "$SCALE" ]; then
    "$SCALE" --json "$SCALE_OUT"
    echo "bench_report: wrote $SCALE_OUT"
else
    echo "bench_report: $SCALE not built; skipping $SCALE_OUT" >&2
    exit 1
fi

# Merge everything that was produced into one trajectory document. Each
# per-suite file is a complete JSON value, so plain concatenation under a
# key map yields valid JSON with no parser dependency.
{
    printf '{\n'
    printf '  "generated_by": "scripts/bench_report.sh",\n'
    printf '  "git_commit": "%s",\n' \
        "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    printf '  "smoke": %s,\n' "${BENCH_SMOKE:-0}"
    printf '  "suites": {\n'
    first=1
    for entry in "core:$CORE_OUT" "persist:$PERSIST_OUT" "db:$DB_OUT" \
                 "cluster:$CLUSTER_OUT" "scale:$SCALE_OUT"; do
        key=${entry%%:*}
        file=${entry#*:}
        [ -f "$file" ] || continue
        [ "$first" -eq 1 ] || printf ',\n'
        first=0
        printf '    "%s": ' "$key"
        cat "$file"
    done
    printf '\n  }\n}\n'
} > "$TRAJECTORY_OUT"
echo "bench_report: wrote $TRAJECTORY_OUT"
