#!/usr/bin/env bash
# Regenerates the checked-in BENCH_micro.json as the per-benchmark
# max-median over several spaced runs.
#
#   scripts/bench_snapshot.sh [runs] [spacing_secs] [filter]
#
# With a filter (a substring of the bench names, as `cargo bench` takes
# it) only the matching rows are re-measured and replaced; the rest of
# the snapshot stands. Defaults: 6 runs, 10 s apart. A single-run snapshot taken during a
# fast phase of a shared host makes scripts/bench_compare.sh false-fire
# whenever CI lands in a slow phase (1-vCPU VMs routinely stretch
# 1.5-2x); spacing the runs out and keeping each benchmark's worst
# median bakes that jitter into the baseline. Never snapshot with fewer
# than 6 runs.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${1:-6}"
SPACING="${2:-10}"
FILTER="${3:-}"
if [ "$RUNS" -lt 6 ]; then
    echo "bench_snapshot: refusing fewer than 6 runs (got $RUNS);" \
         "a thin sample under-estimates host jitter" >&2
    exit 2
fi

export CARGO_NET_OFFLINE=1

# Build first so compile time doesn't eat the spacing between runs.
cargo build --release -q -p tiger-bench --benches --bin bench_merge

TMPDIR_RUNS="$(mktemp -d /tmp/bench_snapshot.XXXXXX)"
trap 'rm -rf "$TMPDIR_RUNS"' EXIT

FILES=()
for i in $(seq 1 "$RUNS"); do
    OUT="$TMPDIR_RUNS/run$i.json"
    echo "bench_snapshot: run $i/$RUNS" >&2
    TIGER_BENCH_OUT="$OUT" cargo bench -q -p tiger-bench --bench micro -- $FILTER >/dev/null
    FILES+=("$OUT")
    if [ "$i" -lt "$RUNS" ]; then
        sleep "$SPACING"
    fi
done

cargo run --release -q -p tiger-bench --bin bench_merge -- \
    ${FILTER:+--into BENCH_micro.json} "${FILES[@]}" > "$TMPDIR_RUNS/merged.json"
mv "$TMPDIR_RUNS/merged.json" BENCH_micro.json
echo "bench_snapshot: wrote BENCH_micro.json (max-median of $RUNS runs${FILTER:+, rows matching '$FILTER'})" >&2
