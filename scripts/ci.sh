#!/usr/bin/env bash
# Tier-1 gate, run fully offline to prove the workspace has no external
# dependencies (see DESIGN.md "Dependencies" and README "The
# dependency-free substrate").
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

echo "== tier-1: cargo build --release" >&2
cargo build --release

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

# Order-independence, proved instead of promised: `DetHashMap`'s iteration
# order is arbitrary and no behaviour may read it (crates/sim/src/lib.rs).
# `--cfg tiger_alt_hash` swaps `DetHasher`'s multiplier, and with it the
# order of every map in the workspace; the twelve full-trace digests of
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

echo "== cargo clippy --workspace -- -D warnings" >&2
cargo clippy --workspace -- -D warnings

# Fleet smoke: the parallel experiment fleet must produce bit-identical
# stdout at 1 and 2 worker threads (the determinism-under-parallelism
# contract; see EXPERIMENTS.md "The experiment fleet").
echo "== fleet smoke: quick fig8 ramp at 1 vs 2 threads" >&2
FLEET_T1="$(mktemp)" FLEET_T2="$(mktemp)" FLEET_TRACED="$(mktemp)" DEMO_OUT="$(mktemp)"
CHAOS_T1="$(mktemp)" CHAOS_T2="$(mktemp)"
WORK_T1="$(mktemp)" WORK_T2="$(mktemp)" HOTSPOT_PLAN="$(mktemp)"
CODED_T1="$(mktemp)" CODED_T2="$(mktemp)"
trap 'rm -f "$FLEET_T1" "$FLEET_T2" "$FLEET_TRACED" "$DEMO_OUT" "$CHAOS_T1" "$CHAOS_T2" "$WORK_T1" "$WORK_T2" "$HOTSPOT_PLAN" "$CODED_T1" "$CODED_T2"' EXIT
cargo run --release -q -p tiger-bench --bin fleet -- \
    --scale quick --filter fig8 --threads 1 > "$FLEET_T1" 2>/dev/null
cargo run --release -q -p tiger-bench --bin fleet -- \
    --scale quick --filter fig8 --threads 2 > "$FLEET_T2" 2>/dev/null
cmp "$FLEET_T1" "$FLEET_T2"

# Chaos smoke: the fault-injection sweep must pass every Tiger invariant
# (the bin exits non-zero on any violation) and, like the fleet, produce
# bit-identical stdout at 1, 2, and 3 worker threads (see docs/FAULTS.md).
# The sweep includes the online-recovery scenarios — crash-rejoin,
# double-fail-catchup (partner dies mid-handback), restripe-quiet,
# restripe-rejoin (crash + restart mid-restripe), and the Recovery v2
# trio: fast-rejoin (sub-interval retired replay), shrink-load (live
# remove=1 under streaming), and spare-shield (double failure with a
# spare serving shadow spans) — so this smoke gates the rejoin,
# live-restripe/shrink, and spare-shield protocols too (see
# docs/RECOVERY.md). Fatal — a divergence means fault randomness leaked
# out of its RNG subtree or an invariant broke.
echo "== chaos smoke: quick sweep (incl. rejoin/shrink/shield) at 1 vs 2 vs 3 threads" >&2
cargo run --release -q -p tiger-bench --bin chaos -- \
    --scale quick --threads 1 > "$CHAOS_T1"
cargo run --release -q -p tiger-bench --bin chaos -- \
    --scale quick --threads 2 > "$CHAOS_T2"
cmp "$CHAOS_T1" "$CHAOS_T2"
cargo run --release -q -p tiger-bench --bin chaos -- \
    --scale quick --threads 3 > "$CHAOS_T2"
cmp "$CHAOS_T1" "$CHAOS_T2"

# Workload smoke: the canonical tiger-workgen plan sweep (Zipf hotspot,
# flash crowd, VCR churn, diurnal swing, flashcrowd+crash under the chaos
# invariants) must pass — the bin exits non-zero on any violation — and
# produce bit-identical stdout at 1 and 2 worker threads (see
# docs/WORKLOADS.md). Fatal — a divergence means workload randomness
# leaked out of the "workgen" RNG subtree.
echo "== workload smoke: quick plan sweep at 1 vs 2 threads" >&2
cargo run --release -q -p tiger-bench --bin workloads -- \
    --scale quick --threads 1 > "$WORK_T1"
cargo run --release -q -p tiger-bench --bin workloads -- \
    --scale quick --threads 2 > "$WORK_T2"
cmp "$WORK_T1" "$WORK_T2"

# Redundancy-ablation smoke: coded vs mirrored on the flash-crowd plans
# must pass its own checks (coded blocking <= mirrored at equal storage;
# chaos invariants 1-6 on both backends — the bin exits non-zero on any
# failure), be bit-identical at 1 and 2 worker threads, and match the
# checked-in curve golden exactly. Fatal — a golden drift means the coded
# service path (fan-out, degraded reads, load-index choice) changed
# behaviour (see docs/CODED.md).
echo "== coded smoke: ablation_coded at 1 vs 2 threads + golden" >&2
cargo run --release -q -p tiger-bench --bin ablation_coded -- \
    --scale quick --threads 1 > "$CODED_T1"
cargo run --release -q -p tiger-bench --bin ablation_coded -- \
    --scale quick --threads 2 > "$CODED_T2"
cmp "$CODED_T1" "$CODED_T2"
cmp results/ablation_coded_quick.txt "$CODED_T1"

# §4.2 golden: the five message-level multiple-bitrate rings (four latency
# models and the second rate sequence) must render exactly the checked-in
# table. Full scale runs in under 30 ms. Fatal — `MbrSystem` is the only
# two-phase insertion, and this table is the only place its commit /
# abort / rejected-local split and the zero-violations column are pinned.
echo "== mbr smoke: ablation_mbr vs results/ablation_mbr.txt" >&2
cargo run --release -q -p tiger-bench --bin ablation_mbr > "$CODED_T1"
cmp results/ablation_mbr.txt "$CODED_T1"

# Golden plan-driven hotspot: the hotspot bench driven by the checked-in
# example plan must render exactly the checked-in table. Fatal — it pins
# the plan grammar, the compiled-generator draw order, and the demand →
# schedule coupling on a fixed seed all at once.
echo "== workload smoke: hotspot --plan vs results/hotspot_plan.txt" >&2
cargo run --release -q -p tiger-bench --bin hotspot -- \
    --plan examples/workloads/zipf-hotspot.plan --scale quick > "$HOTSPOT_PLAN"
cmp results/hotspot_plan.txt "$HOTSPOT_PLAN"

# Traced smoke: the tracer is a pure observer, so the same fleet run with
# tracing switched on must produce bit-identical stdout (see
# docs/TRACING.md). Fatal — any divergence means a trace hook leaked into
# simulation behaviour.
echo "== traced smoke: fleet stdout with TIGER_TRACE=1 vs off" >&2
TIGER_TRACE=1 cargo run --release -q -p tiger-bench --bin fleet -- \
    --scale quick --filter fig8 --threads 1 > "$FLEET_TRACED" 2>/dev/null
cmp "$FLEET_T1" "$FLEET_TRACED"

# Golden timeline: the deterministic demo scenario must render exactly the
# checked-in timeline. Fatal — it pins the event schema, the wire format,
# and the protocol's event order on a fixed seed all at once.
echo "== traced smoke: trace_timeline --demo vs results/trace_timeline_demo.txt" >&2
cargo run --release -q -p tiger-bench --bin trace_timeline -- --demo > "$DEMO_OUT"
cmp results/trace_timeline_demo.txt "$DEMO_OUT"

# Golden rejoin timeline: the deterministic crash-then-restart scenario
# must render exactly the checked-in recovery arc (power-cut, deadman
# declaration, mirror takeover, cub-restart, hand-back grant,
# rejoin-done). Fatal — it pins the rejoin protocol's event order.
echo "== recovery smoke: trace_timeline --rejoin-demo vs results/trace_rejoin_timeline.txt" >&2
cargo run --release -q -p tiger-bench --bin trace_timeline -- --rejoin-demo > "$DEMO_OUT"
cmp results/trace_rejoin_timeline.txt "$DEMO_OUT"

# Golden shrink timeline: the deterministic live remove=1 restripe must
# render exactly the checked-in shrink arc (restripe-start, the leaving
# cub's shrink-drain, shrink-fence, restripe-cutover). Fatal — it pins
# the queued shrink executor's event order under streaming load.
echo "== recovery smoke: trace_timeline --shrink-demo vs results/trace_shrink_timeline.txt" >&2
cargo run --release -q -p tiger-bench --bin trace_timeline -- --shrink-demo > "$DEMO_OUT"
cmp results/trace_shrink_timeline.txt "$DEMO_OUT"

# Driver conformance: the crash-rejoin scenario run under the DES oracle
# and under the thread/socket driver (real OS threads, loopback UDP,
# wall clocks) must make the same protocol decisions — the sans-io
# machines in crates/proto are shared code, so a divergence means a
# driver broke the contract (docs/PROTOCOL.md, "The driver contract").
# Fatal. Takes ~10.5 s of wall time (the socket driver runs in real time).
echo "== driver conformance: DES oracle vs thread/socket driver (rt_conformance)" >&2
cargo run --release -q -p tiger-rt --bin rt_conformance

# End-to-end harness: benchmark/ is a package of its own (the steps above
# never compile it) that builds against crates/* by path — it imports
# tiger_core::event::Event, Cub::{id, failed, disks,
# schedule_information_held} and Shared::{queue, net, cub_node}. A
# refactor that disturbs those must fail here, not in the acceptance
# pipeline. --quick: fmt + clippy + harness self-tests + one quick pass
# with every correctness check, under 30 s. Fatal, and ahead of the
# timing-sensitive micro-bench gate so host noise there cannot mask it.
echo "== benchmark harness: benchmark/run.sh --quick" >&2
bash benchmark/run.sh --quick >/dev/null

# Bench trajectory: compare fresh micro-bench medians (the full family,
# not just the event queue) against the checked-in snapshot. Fatal — a
# >10% median regression on a hot-path primitive fails the gate. On
# hardware where timing is genuinely noisier, loosen the tolerance with
# e.g. TIGER_BENCH_TOL=25 (percent) rather than skipping the gate.
echo "== bench compare vs BENCH_micro.json (fatal; TIGER_BENCH_TOL to loosen)" >&2
scripts/bench_compare.sh

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
# type; every other file there stayed level or shrank, measured 8,108.)
core_src=crates/core/src
for f in "$core_src"/*.rs; do
    limit=1350
    [ "$f" = "$core_src/system.rs" ] && limit=1250
    lines=$(wc -l < "$f")
    if [ "$lines" -gt "$limit" ]; then
        echo "ERROR: $f is $lines lines (limit $limit)" >&2
        exit 1
    fi
done
total=$(cat "$core_src"/*.rs | wc -l)
if [ "$total" -gt 8110 ]; then
    echo "ERROR: $core_src is $total lines in total (limit 8110)" >&2
    exit 1
fi

echo "ci: all gates passed" >&2
