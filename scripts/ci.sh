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
# first overflow bucket), many-horizon idle gaps and ranks reserved ahead
# landing on each tier are rare draws, and every simulated result in the
# repository rests on this one pop order. Fatal.
echo "== event queue: calendar vs (time, rank) model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-sim --lib calendar_matches_the_btreemap_model

# The block index's runs against a map model, at eight times the default
# case count: single keys on and off a per-case stride, progressions of
# consecutive lattice keys at a fixed byte lap (as a laid file or a shield
# lane puts them), keys inside and below a progression, removals from its
# middle. Every disk read a cub makes, and the restriper's layout digest,
# depend on this lookup. Fatal.
echo "== block index: runs and progressions vs map model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-layout --lib dense_index_matches_the_map_model

# The run path that lays a file out (a disk's share of each file in one
# allocation, each run installed whole) against a block-by-block
# reference kept only in the test, at eight times the default case count:
# random stripes of 2-20 cubs and 1-4 disks a cub, mirrored and coded,
# catalogs that fill a region exactly or overflow it by one granule. Every
# simulated read time rests on these offsets. Fatal.
echo "== file layout: run path vs block-by-block reference, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-layout --lib run_layout_matches_the_block_model

# The test client's receipt bits against one bool a block, at eight times
# the default case count: `served_frac`, every loss figure and every
# `dup_blocks` check read these bits. Fatal.
echo "== client receipts: bits from the base vs bool model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-core --lib receipt_bits_match_the_bool_model

# The coded backend's per-disk load table against one `NetworkSchedule`
# ring a disk, at eight times the default case count: every coded block's
# holder choice reads this table, and a release that misses what its
# reserve added biases every later choice on that disk. Fatal.
echo "== coded loads: flat table vs ring model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-core --lib coded_loads_match_the_ring_model

# A committed block's typed life (read stage, send outcome, forward
# flag) against the eight independent flags it replaced, kept in the
# test as the reference, at eight times the default case count: every
# block's reclaim, buffer release, send-due verdict and deschedule kill
# reads this state. Fatal.
echo "== block service life: typed state vs eight-flag model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-core --lib typed_life_matches_the_flag_model

# The schedule information a cub keeps by slot (the slot-keyed lists under
# it, the service table's per-record answers and view entries, and the
# forward machine's shadow records) against Vec, BTreeMap and
# ScheduleView models, at eight times the default case count: every view
# verdict, duplicate and staleness verdict, every deschedule's victims
# and every shadow re-drive after a failure or a rejoin reads these. Then
# the live heap a scale-56-sized cub state keeps in them, bounded by what
# it measured. Fatal.
echo "== cub tables: slot-keyed lists vs Vec model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-sim --lib dense_lists_match_the_vec_model
echo "== cub tables: slot-indexed records and shadows vs BTreeMap model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-core --lib slot_tables_match_the_btreemap_model
echo "== cub tables: live bytes of a scale-56-sized cub state" >&2
cargo test -q --release -p tiger-core --test table_bytes

# §4.1.1's viewer-state decision, searched exhaustively against the forward
# machine itself (crates/proto/src/forward.rs): every interleaving of one
# stream on four cubs and two on three, single and double forwarding, up to
# two crashes each followed by its declare, a crash and a restart on
# three cubs, and a stop (the controller's deschedule, applied through the
# machine's hold) on three cubs with one stream, without and with a crash,
# states keyed exactly. ROADMAP item 1(c)'s refused shadows are pinned at
# 0, 1(a)'s double deliveries and 1(f)'s silent stalls as counts their
# fixes flip, no admission under a hold and no delivery once every living
# cub has applied the stop at 0, and the first of each is printed as a
# timeline. About 9 s in release. Fatal.
echo "== forward machine: every interleaving of the crash path" >&2
cargo test -q --release -p tiger-proto --lib every_interleaving_of_the_crash_path -- --nocapture >&2

# Every line decoder (wire datagrams, trace dumps, workload and fault
# plans) against seeded byte and token mutants of the lines it reads, at
# eight times the default case count: no panic, a wire or trace line
# accepted only if it re-encodes to its own bytes, a plan error that
# names its line. Fatal — these decoders take bytes from sockets and
# files.
echo "== line decoders: seeded mutants, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q --test properties line_decoders_survive_mutation

# The wire codec pinned to its bytes: every exemplar's exact line, the
# digest of a fixed 10,000-message sample's lines, and a generated round
# trip over every message variant with its fields' edge values (ids at 0
# and u32::MAX, times at 0 and u64::MAX ns, empty and 64-record batches,
# every stream kind, a `None` piece, an empty failed list), at eight
# times the default case count. Fatal — the socket driver's datagrams are
# these lines, and the codec is generated from one table.
echo "== wire codec: byte pins + generated round trip, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-proto --test wire

# Order-independence, proved instead of promised: `DetHashMap`'s iteration
# order is arbitrary and no behaviour may read it (crates/sim/src/lib.rs).
# `--cfg tiger_alt_hash` swaps `DetHasher`'s multiplier, and with it the
# order of every map in the workspace; the sixteen full-trace digests of
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

# The API documentation builds without a warning: every intra-doc link
# resolves, none points at a private item, and no name is ambiguous.
# Fatal — a broken link is a doc that says nothing.
echo "== cargo doc --workspace --no-deps, warnings denied" >&2
RUSTDOCFLAGS='-D warnings' cargo doc -q --workspace --no-deps

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

# Size ratchet. A file counts its lines before its first `#[cfg(test)]`
# (a model test has to sit beside the private type it checks), a crate
# its top-level files (a `bin/` is not counted). Each limit is what the
# tree measured when it was last set: it follows what a PR that shrinks
# its code measures, and rises only in a PR that argues for the raise.
# CHANGES.md keeps every change of a limit and its reason. One reason a
# limit:
# - system.rs: the event loop grew ~400 lines in two PRs before it was
#   split by concern; a cub's work runs behind `Cub::on_event`.
# - service.rs: one degraded-read path serves mirror, shield and coded
#   pieces; the three pipelines it replaced may not grow back.
# - cub.rs: the driver of the tiger_proto machines; their decisions may
#   not drift back into it.
# - any other core file: at the largest (table.rs), so no file grows
#   into the next god-object unnoticed.
# - fleet.rs: the runner, the CLI and the catalogue; report bodies live
#   in the family modules.
# - crates/core/src: the whole DES driver; the goldens pin its behaviour,
#   so code it sheds stays shed.
# - faults, net: the injection log and the plan builders went; a fault
#   plan is written only in the text grammar.
# - workload: every fault-injected or plan-driven run is one checked
#   `Scenario` run.
# - bench: every table prints through one writer, every job through one
#   sweep.
# - sched: one network-schedule load index.
# - proto: the sans-io machines; a ROADMAP item argues each growth.
# - rt: the socket driver is kept thin (ROADMAP item 14).
# - layout: the block index keeps one representation of a run.
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }
for f in crates/core/src/*.rs; do
    limit=635
    [ "$f" = crates/core/src/system.rs ] && limit=760
    [ "$f" = crates/core/src/service.rs ] && limit=1108
    [ "$f" = crates/core/src/cub.rs ] && limit=1013
    lines=$(nontest "$f")
    if [ "$lines" -gt "$limit" ]; then
        echo "ERROR: $f is $lines lines before its tests (limit $limit)" >&2
        exit 1
    fi
done
lines=$(nontest crates/bench/src/fleet.rs)
if [ "$lines" -gt 604 ]; then
    echo "ERROR: crates/bench/src/fleet.rs is $lines lines before its tests (limit 604)" >&2
    exit 1
fi
for dir_limit in crates/core/src:6801 crates/faults/src:1238 crates/net/src:497 \
    crates/workload/src:1218 crates/bench/src:2811 \
    crates/sched/src:1661 crates/proto/src:1868 crates/rt/src:467 \
    crates/layout/src:1589; do
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
