#!/usr/bin/env bash
# Tier-1 gate, run fully offline to prove the workspace has no external
# dependencies (see DESIGN.md "Dependencies" and README "The
# dependency-free substrate").
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

# --workspace: tier-1's build plus the member crates' binaries (fleet,
# trace_timeline, rt_conformance), so the steps below run what this one
# built and nothing links twice.
echo "== tier-1: cargo build --release --workspace" >&2
cargo build --release --workspace
BIN="${CARGO_TARGET_DIR:-target}/release"

echo "== tier-1: cargo test -q" >&2
cargo test -q

echo "== full workspace tests" >&2
cargo test -q --workspace

# The event queue's calendar against its BTreeMap model, at eight times
# the default case count: tier boundaries (same bucket, last ring bucket,
# first overflow bucket) and many-horizon idle gaps are rare draws, and
# every simulated result in the repository rests on this one pop order.
# Fatal.
echo "== event queue: calendar vs (time, seq) model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-sim --lib calendar_matches_the_btreemap_model

# The block index's dense runs against a map model, at eight times the
# default case count: every disk read a cub makes, and the restriper's layout
# digest, depend on this lookup. Fatal.
echo "== block index: dense runs vs map model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-layout --lib dense_index_matches_the_map_model

# The test client's receipt bits against one bool a block, at eight times
# the default case count: `served_frac`, every loss figure and every
# `dup_blocks` check read these bits. Fatal.
echo "== client receipts: bits from the base vs bool model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-core --lib receipt_bits_match_the_bool_model

# Every line decoder (wire datagrams, trace dumps, workload and fault
# plans) against seeded byte and token mutants of the lines it reads, at
# eight times the default case count: no panic, a wire or trace line
# accepted only if it re-encodes to its own bytes, a plan error that
# names its line. Fatal — these decoders take bytes from sockets and
# files.
echo "== line decoders: seeded mutants, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q --test properties line_decoders_survive_mutation

# Order-independence, proved instead of promised: `DetHashMap`'s iteration
# order is arbitrary and no behaviour may read it (crates/sim/src/lib.rs).
# `--cfg tiger_alt_hash` swaps `DetHasher`'s multiplier, and with it the
# order of every map in the workspace; the seventeen full-trace digests of
# the three `*_paths` suites and the fleet determinism tests must come out
# the same. A target directory of its own, so the flag does not evict the
# main build. Fatal — a digest that moves here names a map whose order
# leaked into behaviour.
echo "== order-independence: *_paths digests + determinism under --cfg tiger_alt_hash" >&2
RUSTFLAGS='--cfg tiger_alt_hash' CARGO_TARGET_DIR=target/alt-hash \
    cargo test -q -p tiger-core --test cub_paths --test service_paths --test reconfig_paths
RUSTFLAGS='--cfg tiger_alt_hash' CARGO_TARGET_DIR=target/alt-hash \
    cargo test -q --test determinism

# Formatting is checked when a rustfmt is available; its absence must not
# fail the gate on minimal toolchains.
if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check" >&2
    cargo fmt --check
else
    echo "== cargo fmt unavailable; skipping format check" >&2
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings

# The experiment catalogue (`fleet --list`: every figure, table, ablation
# and sweep in crates/bench) in three steps. A job that violates an
# invariant or fails its own check makes fleet exit non-zero, naming it.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
fleet() {
    "$BIN/fleet" "$@" 2> "$SCRATCH/stderr" || { cat "$SCRATCH/stderr" >&2; return 1; }
}

# Determinism under parallelism: every job at quick scale prints the same
# bytes at 1, 2 and 3 worker threads (EXPERIMENTS.md "The experiment
# fleet"). The chaos sweep is in there — crash-rejoin, double-fail-catchup,
# the restripe/shrink scenarios, spare-shield (docs/FAULTS.md,
# docs/RECOVERY.md) — and so are the workload plans (docs/WORKLOADS.md) and
# the coded ablation (docs/CODED.md). Fatal — a divergence means randomness
# leaked out of its RNG subtree or a result depends on completion order.
echo "== fleet: every job at quick scale, 1 vs 2 vs 3 threads" >&2
fleet --scale quick --threads 1 > "$SCRATCH/t1"
for threads in 2 3; do
    fleet --scale quick --threads "$threads" > "$SCRATCH/tn"
    cmp "$SCRATCH/t1" "$SCRATCH/tn"
done

# The tracer is a pure observer: the same run with tracing switched on
# prints the same bytes (docs/TRACING.md). Fatal — a divergence means a
# trace hook leaked into simulation behaviour.
echo "== fleet: quick scale with TIGER_TRACE=1 vs off" >&2
TIGER_TRACE=1 fleet --scale quick > "$SCRATCH/traced"
cmp "$SCRATCH/t1" "$SCRATCH/traced"

# Goldens: every job regenerates its results/<name>.txt at the scale it is
# checked in at, trace_timeline its three demo timelines (event schema,
# wire format and the protocol's event order through a power-cut, a
# rejoin and a live shrink), and the two directories must hold the same
# files with the same bytes — diff names a missing or unclaimed golden
# and prints what drifted. About 35 s on two cores. Fatal. To accept a
# change: target/release/fleet --threads 2 --goldens results
echo "== goldens: results/*.txt vs fleet --goldens + the trace_timeline demos" >&2
mkdir "$SCRATCH/results"
fleet --threads 2 --goldens "$SCRATCH/results"
for demo in demo:trace_timeline_demo rejoin-demo:trace_rejoin_timeline shrink-demo:trace_shrink_timeline; do
    "$BIN/trace_timeline" "--${demo%:*}" > "$SCRATCH/results/${demo#*:}.txt"
done
diff -ru results "$SCRATCH/results"

# Driver conformance: the crash-rejoin scenario run under the DES oracle
# and under the thread/socket driver (real OS threads, loopback UDP,
# wall clocks) must make the same protocol decisions — the sans-io
# machines in crates/proto are shared code, so a divergence means a
# driver broke the contract (docs/PROTOCOL.md, "The driver contract").
# Fatal. Takes ~10.5 s of wall time (the socket driver runs in real time).
echo "== driver conformance: DES oracle vs thread/socket driver (rt_conformance)" >&2
"$BIN/rt_conformance"

# End-to-end harness: benchmark/ is a package of its own (the steps above
# never compile it) that builds against crates/* by path — it imports
# tiger_core::event::Event, Cub::{id, failed, disks,
# schedule_information_held} and Shared::{queue, net, cub_node}. A
# refactor that disturbs those must fail here, not in the acceptance
# pipeline. --quick: fmt + clippy + harness self-tests + one quick pass
# with every correctness check, under 30 s. Fatal.
echo "== benchmark harness: benchmark/run.sh --quick" >&2
bash benchmark/run.sh --quick >/dev/null

# The micro-benches build, so they cannot rot; they are not run. Their
# rows are an A/B instrument a PR cites (`bench_compare A.json B.json`,
# crates/bench/src/lib.rs), not a gate: read in reference ns, five runs
# of one binary still spread by more than 10 % on 3 of 45 rows
# (docs/perf-log.md, "MICRO-NOISE"). Fatal.
echo "== micro-benches build: cargo bench --no-run -p tiger-bench" >&2
cargo bench -q --no-run -p tiger-bench

# No registry crates may creep back into any manifest.
if grep -rn --include=Cargo.toml -E '^\s*(rand|proptest|criterion|serde)\b' .; then
    echo "ERROR: external registry dependency found in a Cargo.toml" >&2
    exit 1
fi

# Size ratchet: system.rs absorbed ~400 lines in two PRs before it was
# split by concern (reconfig.rs, controller.rs, copy.rs); it may not
# quietly grow back, nor may the growth move next door. Raise a limit
# only in the PR that argues for it. (PR 16 raised the total 7,730 ->
# 8,110 for table.rs, the cub's indexed service table: 404 lines, 193 of
# them its scan-oracle property test, which has to sit beside the private
# type; cub.rs shrank 1,320 -> 1,283 and the per-file limits stand.
# PR 18 lowered it 8,110 -> 7,690: the call-level MbrCoordinator fork of
# the §4.2 insertion is gone and mbr.rs says each fact once; measured
# 7,688. PR 19 raised it 7,690 -> 8,110 for table.rs alone, 404 -> 833
# lines: the active services became a window of consecutive tokens with
# a forward cursor and a reclaim list, and its three model tests — the
# window against a BTreeMap, the pass against the whole-table walks it
# replaced, the no-ratchet churn run — have to sit beside the private
# type; every other file there stayed level or shrank, measured 8,108.
# PR 22 stopped counting tests: a model test has to sit beside the private
# type it checks, and three PRs in a row argued a raise for one. What is
# counted now is each file's lines before its first `#[cfg(test)]`, with
# the limits re-set to what that measured on the day plus what the PR's
# own non-test code added. Before: 6,891 of the directory's 8,105 lines
# were not tests, cub.rs the largest file at 1,276, system.rs 1,178.
# Added: 321 — the buffer pool (pool.rs, 160), `Event::kind` and its name
# table (74), the pool's three handlers in service.rs (37), the cub's
# accessors (23), the per-kind tally and the debug-build pool check in
# system.rs (26), one `mod` line. After: 7,212, 1,299 and 1,204.
# PR 23 raised the total 7,212 -> 7,315, by exactly what it measured and
# for table.rs alone, 361 -> 460: the per-instance record that replaced
# the two B-trees is a two-halved sorted multiset with three values
# inline and a spill — `Carried` and its five methods 81 lines with their
# documentation, `uncarry` 15, the bench handle's `already_served` 4,
# less the B-tree code it deleted — and std has no inline small vector to
# borrow; in return `scale-56` dispatches blocks 1.4x faster
# (docs/perf-log.md "FLAT"). client.rs +4 for the receipt bitset's two
# helpers. cub.rs added a field and a note and folded its two
# end-of-file reports into one `report_eof` to stay at 1,299: no
# per-file limit moved.) One redundancy backend value (backend.rs, 178
# lines) replaced the `Redundancy` trait, `Shared::placement`, the
# `Option<CodedRuntime>` threaded through reclaim and the hand-derived
# piece holders, and a power cut now releases the coded load rings'
# reservations: the total fell 7,315 -> 7,305 and system.rs, which lost
# the coded runtime, 1,204 -> 1,103. Both limits are set at what that
# measured, so the room is there for the protocol-defect fixes. The
# test client's receipt bits cover only what a viewer played (client.rs
# +12), paid for by deleting three public functions only their own
# file's tests called (`MbrSystem::fail_cub_link` and `request_remove`,
# `Event::kind_name`; 28 lines, one back for the note on the `Remove`
# message only a test now sends): the total fell 7,305 -> 7,290.
# A network send now reports its fault injection in the value it returns
# and a fault plan is written only in the text grammar: the injection log
# (`NetInjection`, its drain on `NetFaults` and `Network`, three `Shared`
# helpers) and the thirteen `FaultPlan` builders are gone, the three
# deadman-justification entry points are one, and `Shared` keeps the one
# node map. The core fell 7,290 -> 7,263 (27 lines; system.rs 1,103 ->
# 1,077), and the two crates that shrank most get totals of their own at
# what they measured: crates/faults/src 1,545 -> 1,268 (277 lines) and
# crates/net/src 525 -> 497 (28 lines).
# The §4.2 side model's `Remove` message, which only a test sent, is gone
# with its handler and that test: the core fell 7,263 -> 7,244. Every
# fault-injected or plan-driven experiment is now one `Scenario` run by
# one checked `run` (crates/workload/src/scenario.rs): the chaos, plan,
# power-cut and VCR runners and their four Config/Outcome pairs are
# gone, and crates/workload/src gets a total of its own at what it
# measured: 1,585 -> 1,193 (392 lines).
# The forwarding and lead ablations became checked `Scenario` runs, the
# simulated §3.3 controller (`CentralSystem`) gave way to its closed form,
# and the controller's viewer record lost the four fields nothing read;
# the fix for a stop issued before its start lands came out of those
# savings: the core fell 7,244 -> 7,131. The workload
# crate rose 1,193 -> 1,218 for `Demand::Paced` and the violations the
# ramp and startup runs now return, and crates/bench/src gets a total of
# its own at what it measured, 2,921. Dropping the controller's unused
# held-stop map took the core to 7,126; `Scenario::quick` taking its
# config took the workload crate to 1,214.
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }
for f in crates/core/src/*.rs; do
    limit=1299
    [ "$f" = crates/core/src/system.rs ] && limit=1077
    lines=$(nontest "$f")
    if [ "$lines" -gt "$limit" ]; then
        echo "ERROR: $f is $lines lines before its tests (limit $limit)" >&2
        exit 1
    fi
done
for dir_limit in crates/core/src:7126 crates/faults/src:1268 crates/net/src:497 \
    crates/workload/src:1214 crates/bench/src:2921; do
    dir=${dir_limit%:*} limit=${dir_limit#*:} total=0
    for f in "$dir"/*.rs; do
        total=$((total + $(nontest "$f")))
    done
    if [ "$total" -gt "$limit" ]; then
        echo "ERROR: $dir is $total lines before its tests (limit $limit)" >&2
        exit 1
    fi
done

echo "ci: all gates passed" >&2
