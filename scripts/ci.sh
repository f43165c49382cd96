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

# The block index's dense runs against a map model, at eight times the
# default case count: every disk read a cub makes, and the restriper's layout
# digest, depend on this lookup. Fatal.
echo "== block index: dense runs vs map model, 2000 cases" >&2
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
# it, the service table's per-record answers and the shadow records)
# against Vec and BTreeMap models, at eight times the default case count:
# every duplicate and staleness verdict, every deschedule's victims and
# every shadow re-drive after a failure or a rejoin reads these. Then the
# live heap a scale-56-sized cub state keeps in them, bounded by what the
# hash maps they replaced kept. Fatal.
echo "== cub tables: slot-keyed lists vs Vec model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-sim --lib dense_lists_match_the_vec_model
echo "== cub tables: slot-indexed records and shadows vs BTreeMap model, 2000 cases" >&2
TIGER_PROP_CASES=2000 cargo test -q -p tiger-core --lib slot_tables_match_the_btreemap_model
echo "== cub tables: live bytes of a scale-56-sized cub state" >&2
cargo test -q --release -p tiger-core --test table_bytes

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
# One network-schedule load index: crates/sched/src's own total, 1,958 -> 1,696.
# The cub's schedule information indexed by slot (docs/perf-log.md
# "SLOTS") raised the core total 7,126 -> 7,240, by what it measured:
# table.rs +99 (the shadow records left cub.rs as a table whose records
# expire against the last pass's horizon and are swept once a hold, and
# the per-instance record is found in its slot's list), cub.rs +11 and
# service.rs +7 (a received record naming a slot past capacity is refused
# as a traced drop, and reclaim retires before it removes), system.rs -3.
# The slot-keyed lists the view, the record and the shadows share went to
# tiger_sim beside the DetHashMap they replace (crates/sim/src/dense.rs,
# 267 lines before its tests), taking the view's inline-entry list with
# them: crates/sched/src fell 1,696 -> 1,635 and its limit follows.
# Every ring predicate now comes from tiger_proto::RingMachine (covers,
# living_peers, rejoin_ack, declare_failed's return as the guard), so the
# core fell 7,240 -> 7,196 (cub.rs 1,298 -> 1,254) and its limit follows.
# crates/proto/src and crates/rt/src get totals of their own at what they
# measured, 1,206 and 478 (top-level files, like every total here; rt's
# bin/ is not counted): ROADMAP items 10 and 11 will grow the machines,
# and item 14 keeps the socket driver near 1k lines.
# The timing contract's derived values then moved into TigerConfig (the
# loss-window bound out of tiger_faults) and two switches went: core
# 7,196 -> 7,195, faults 1,268 -> 1,254, workload 1,214 -> 1,208, bench
# 2,921 -> 2,918; each limit follows what it measured.
# Files are laid out a run at a time by `tiger_layout::lay`: the per-block
# placement loops in `add_file`, `lay_secondaries` and `maybe_shield` and
# the two per-block loads (now one `Cub::load`) went, core 7,195 -> 7,184
# and system.rs 1,077 -> 1,050; both limits follow.
# A workload plan enters the event queue as it comes due: its operations
# wait in a script store, one flat arena, and the queue holds one a
# session (crates/core/src/demand.rs, 339 lines). 146 of them moved out
# of system.rs: the one-at-a-time request API and the client-side
# start/stop/VCR handlers the scripts dispatch into, which took system.rs
# 1,050 -> 904, and its limit follows. The other 193 are new: the store,
# its four scripting calls and its release, and the viewer -> client
# table that replaced the handlers' two scans over every client; with
# them came the `Scripted` event (event.rs +9), an end-of-file notice
# aged out with the retired log (cub.rs +9) and the `mod` line. In
# return the queue no longer holds a plan: at vcr-churn 43 events
# pending after the drive phase instead of 38,777, and peak_rss_mb 3 MiB
# lower (docs/perf-log.md "DEMAND"). The core rose 7,184 -> 7,396, by
# what it measured; the workload crate, for DriveStats' documentation,
# 1,208 -> 1,214.
# A committed block's service life became one typed state (a read stage,
# a send outcome and the forward flag, private to a module in service.rs,
# changed only by Active's ten transition methods): service.rs
# 1,036 -> 1,155 for the two enums, the send-due verdict and the methods
# the compiler now holds every flag write to; cub.rs 1,257 -> 1,236 and
# system.rs 904 -> 898 (BitrateMode); table.rs 559 -> 568 (the failure's
# re-forward and the cut-over as two table operations in place of a
# wholesale `values_mut`). The core rose 7,396 -> 7,497, by what it
# measured; the workspace total fell 23,183 -> 23,167, the satellites
# taking sched 1,635 -> 1,578 (DiskSchedule trimmed to the checker's
# needs), workload 1,214 -> 1,211 and bench 2,918 -> 2,907 down to what
# they measured.
# Mirrored, shielded and coded service became one degraded-read path
# (one secondary-piece spec, one acceptance step, one coded driver, one
# place deciding a dead mirror holder's fate), bit-exact: service.rs
# 1,155 -> 1,124, and it gets a limit of its own at that, so the
# degraded path cannot grow back without an argued raise. With
# MbrConfig's five single-valued fields made constants the core fell
# 7,497 -> 7,452; the view's hand-written kind comparison went (sched
# 1,578 -> 1,551) and the insert machine lost take_queue and requeue
# (proto 1,206 -> 1,191). Each limit follows what it measured.
# The hot-standby controller no experiment ran went, and the control
# plane became one `Controller` (its `Membership` and handler with it):
# the core fell 7,452 -> 7,328 (system.rs 898 -> 872, controller.rs
# 375 -> 293) and faults 1,254 -> 1,238 (the `backup` node token). The
# fragmentation metric's unit fix took sched 1,551 -> 1,554. Each limit
# follows what it measured.
# Every fleet table now prints through one writer (crates/bench/src/
# table.rs, 74 lines) and every job runs its points through one sweep;
# the report bodies left fleet.rs for figures.rs and ablations.rs.
# crates/bench/src fell 2,907 -> 2,821 and fleet.rs 1,692 -> 606, which
# gets a limit of its own at that, so the catalogue file cannot regrow
# report bodies. The empty rejoin hand-back grant went (core
# 7,328 -> 7,304), tiger_workload's two table formatters moved into the
# writer (workload 1,211 -> 1,143) and the socket driver lost the
# grant's empty record (rt 478 -> 467). Each limit follows what it
# measured. Column widths then came from the cells (the width literals
# went) and the chaos, workload and coded rows name themselves in their
# violations: crates/bench/src 2,821 -> 2,812, fleet.rs 606 -> 604.
# §4.2's two-phase reservation became a sans-io machine
# (tiger_proto::reserve, 283 lines) and MbrSystem its wiring (mbr.rs
# 469 -> 196), bit-exact; the mirror of the schedule's instance index
# (the successor's held map and the attempt's entry id) went with it.
# The core fell 7,304 -> 7,031 and proto rose 1,191 -> 1,480: the typed
# inputs and outputs (entry, message, wake, outcome, step) cost more
# than the parent's inline calls. The schedule's commit by instance and
# its quantum accessor took sched 1,554 -> 1,564. Each limit follows
# what it measured.
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }
for f in crates/core/src/*.rs; do
    limit=1299
    [ "$f" = crates/core/src/system.rs ] && limit=872
    [ "$f" = crates/core/src/service.rs ] && limit=1124
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
for dir_limit in crates/core/src:7031 crates/faults/src:1238 crates/net/src:497 \
    crates/workload/src:1143 crates/bench/src:2812 \
    crates/sched/src:1564 crates/proto/src:1480 crates/rt/src:467; do
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
