#!/usr/bin/env bash
# A profile anyone can retake on a box without `perf`.
#
#   scripts/prof.sh <workload> [seconds] [seed] [top]
#
# Builds the end-to-end harness (benchmark/run.sh's own build, untouched),
# scripts/prof/sampler.c and scripts/prof/heap.c, runs
# `perf once --workload <workload>` twice — once with the sampler preloaded
# (SIGPROF every millisecond of CPU time), once with the census (every
# allocation counted by size class and, from 512 bytes up, by allocation
# site; its stack walks would show in the samples) — and prints the
# heaviest symbols, then what the heap held at its live peak by size
# class, then by site. The run is deterministic, so the two runs do the
# same work. Defaults: 60 s window, seed 1997, top 40.
# The harness interleaves a reference-clock kernel with the run
# (benchmark/src/refclock.rs); its rows are the harness's, not the
# simulator's. See docs/PROFILING.md. Not a CI step.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/prof.sh <workload> [seconds] [seed] [top]}"
seconds="${2:-60}"
seed="${3:-1997}"
top="${4:-40}"
target="${CARGO_TARGET_DIR:-$PWD/target}"
out="$target/prof"
mkdir -p "$out"

(cd benchmark && CARGO_NET_OFFLINE=1 CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --bin perf) >&2
gcc -O2 -shared -fPIC -o "$out/sampler.so" scripts/prof/sampler.c
gcc -O2 -shared -fPIC -o "$out/heap.so" scripts/prof/heap.c

# run PRELOAD OUTPUT-VARIABLE=FILE: the harness alone gets both.
run() {
    env LD_PRELOAD="$1" "$2" "$target/release/perf" once --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
}
run "$out/sampler.so" TIGER_PROF_OUT="$out/$workload.samples" >&2
run "$out/heap.so" TIGER_HEAP_OUT="$out/$workload.heap" >/dev/null
python3 scripts/prof/symbolize.py "$out/$workload.samples" "$top"
echo
cat "$out/$workload.heap"
echo
python3 scripts/prof/symbolize.py "$out/$workload.heap.sites" --sites "$top"
