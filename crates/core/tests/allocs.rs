//! Heap allocations per block sent: a count, exactly repeatable. A test
//! binary of its own, because counting needs a `#[global_allocator]` and a
//! binary has one.

mod common;

use tiger_core::{RedundancyMode, TigerConfig, TigerSystem};
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

/// Allocations a block sent between `from` and `to`, after running `sys`
/// to `from`.
fn per_block(sys: &mut TigerSystem, from: SimTime, to: SimTime) -> f64 {
    sys.run_until(from);
    let open = (common::allocs(), sys.metrics().loss.blocks_sent);
    sys.run_until(to);
    let allocs = common::allocs() - open.0;
    let blocks = (sys.metrics().loss.blocks_sent - open.1) as f64;
    let per_block = allocs as f64 / blocks;
    println!("{allocs} allocations for {blocks} blocks: {per_block:.3} a block");
    per_block
}

#[test]
fn full_load_allocates_little_per_block() {
    // `sosp97`, blips off, a start queued for every slot of the schedule
    // as `protocol::full_load_dispatches_what_a_block_needs` queues them;
    // allocations between t = 100 s and t = 200 s over the blocks sent in
    // the same span. Measured here: 2,940 allocations for 60,186 blocks,
    // 0.049 a block — the `Arc` a forwarded batch travels in, one or two a
    // pass. (85,124 and 1.414 while a view slot's entry lived in a `Vec`
    // of its own and the per-instance questions in two B-trees; 14,278 and
    // 0.237 before the forward pass kept its two vectors.)
    let mut cfg = TigerConfig::sosp97();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    let capacity = sys.world().params.capacity();
    let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(400));
    for i in 0..u64::from(capacity) {
        let client = sys.add_client();
        let at = SimTime::from_millis(100 + i * 100);
        sys.request_start_at(at, client, file, (i * 7 % 191) as u32);
    }
    let per_block = per_block(&mut sys, SimTime::from_secs(100), SimTime::from_secs(200));
    assert!(per_block < 0.4, "{per_block:.3} allocations a block");
}

#[test]
fn coded_service_allocates_little_per_block() {
    // The `sosp97` geometry at decluster 2 under the coded backend, as the
    // benchmark's `coded-k2` workload runs it: 392 starts over 90 s, cub 5
    // cut at 130 s, allocations between t = 150 s and t = 250 s over the
    // blocks sent in the same span — healthy fan-out and degraded repair
    // both. Each shard send counts as a block sent. Measured here: 2,700
    // allocations for 78,398 sends, 0.034 a send. (42,327 and 0.540 while
    // the view kept its entries apart, a slot's list moving to a `Vec`
    // whenever it took a second record, as a coded holder's slot does; a
    // per-instance record keeps its spill while it lives. 159,078 to
    // 159,080 and 2.029 while the load rings were `NetworkSchedule`s with
    // a `Vec` per ranking; their SipHash maps' growth depended on the
    // random keys' layout, so the count moved by a few from run to run.)
    let mut cfg = TigerConfig::sosp97();
    cfg.disk = cfg.disk.without_blips();
    cfg.stripe = StripeConfig::new(14, 4, 2);
    cfg.redundancy = RedundancyMode::Coded;
    let mut sys = TigerSystem::new(cfg);
    let files: Vec<_> = (0..8)
        .map(|_| sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(600)))
        .collect();
    for i in 0..392u64 {
        let client = sys.add_client();
        let at = SimTime::from_millis(50) + SimDuration::from_nanos(90_000_000_000 * i / 392);
        sys.request_start(at, client, files[i as usize % files.len()]);
    }
    sys.fail_cub_at(SimTime::from_secs(130), CubId(5));
    let per_block = per_block(&mut sys, SimTime::from_secs(150), SimTime::from_secs(250));
    assert!(per_block < 0.05, "{per_block:.3} allocations a block");
}
