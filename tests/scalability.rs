//! The §4 scalability conditions, verified against running systems.
//!
//! "A necessary but insufficient condition for scalability is that
//! participants' views be limited to a size that does not grow as a
//! function of the scale of the system. Fault tolerance requires that
//! every part of the hallucination is contained in more than one view, or
//! can be reconstructed using only data from views available after a
//! failure."

use tiger::core::{TigerConfig, TigerSystem};
use tiger::layout::StripeConfig;
use tiger::sim::{Bandwidth, SimDuration, SimTime};
use tiger::workload::{populate_catalog, CatalogSpec};
use tiger_sim::RngTree;

/// Runs a system of `cubs` cubs at ~70% of its capacity and samples the
/// peak schedule information any cub holds.
fn peak_schedule_information(cubs: u32) -> usize {
    let mut cfg = TigerConfig::sosp97();
    cfg.stripe = StripeConfig::new(cubs, 4, 4);
    cfg.num_clients = (cubs * 3).max(8);
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    let files = populate_catalog(
        &mut sys,
        &CatalogSpec::sized_for(SimDuration::from_secs(200), 8),
    );
    let capacity = sys.shared().params.capacity();
    let target = capacity * 7 / 10;
    let mut chooser = RngTree::new(3).fork("files", 0);
    for i in 0..u64::from(target) {
        let client = sys.add_client();
        let file = files[chooser.gen_range(0..files.len())];
        sys.request_start(SimTime::from_millis(100 + i * 45), client, file);
    }
    // Sample held schedule information while everything plays.
    let mut peak = 0usize;
    let mut t = SimTime::from_secs(60);
    while t < SimTime::from_secs(120) {
        sys.run_until(t);
        for cub in sys.cubs() {
            peak = peak.max(cub.schedule_information_held());
        }
        t += SimDuration::from_secs(5);
    }
    peak
}

#[test]
fn per_cub_view_size_does_not_grow_with_system_scale() {
    // Doubling the system (cubs AND streams) must not grow any single
    // cub's held schedule information: views are bounded by maxVStateLead,
    // not by system size.
    let small = peak_schedule_information(7);
    let big = peak_schedule_information(14);
    assert!(small > 0 && big > 0);
    let ratio = big as f64 / small as f64;
    assert!(
        ratio < 1.5,
        "per-cub schedule information grew with system size: {small} -> {big}"
    );
}

#[test]
fn every_committed_entry_is_known_twice() {
    // Fault tolerance condition: after any single failure, every viewer's
    // schedule information survives somewhere — demonstrated by killing
    // each cub in turn (fresh run each time) and checking no stream
    // starves.
    for victim in [0u32, 2, 3] {
        let mut cfg = TigerConfig::small_test();
        cfg.disk = cfg.disk.without_blips();
        cfg.deadman_timeout = SimDuration::from_millis(1_500);
        let mut sys = TigerSystem::new(cfg);
        let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(60));
        for i in 0..8u64 {
            let client = sys.add_client();
            sys.request_start(SimTime::from_millis(100 + i * 300), client, file);
        }
        sys.fail_cub_at(SimTime::from_secs(20), tiger::layout::CubId(victim));
        sys.run_until(SimTime::from_secs(80));
        for c in sys.clients() {
            for (_, v) in c.viewers() {
                assert_eq!(
                    v.tail_missing(),
                    0,
                    "stream starved when cub {victim} died: some schedule \
                     information existed in only one view"
                );
            }
        }
    }
}

#[test]
fn restripe_preserves_content_and_service() {
    // Load a 4-cub system, restripe to 5 cubs, verify the moved layout
    // still serves every block.
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(20));
    // Serve one viewer on the old geometry first.
    let c0 = sys.add_client();
    sys.request_start(SimTime::from_millis(50), c0, file);
    sys.run_until(SimTime::from_secs(30));
    assert_eq!(sys.client_report(c0).completed_viewers, 1);

    let (mut new_sys, plan) = sys.restripe_into(StripeConfig::new(5, 1, 2));
    let stats = plan.stats();
    assert_eq!(
        stats.moved_blocks + stats.stationary_blocks,
        plan.total_blocks()
    );
    assert!(stats.moved_blocks > 0, "a geometry change moves blocks");

    // The same file plays end-to-end on the new geometry.
    let c1 = new_sys.add_client();
    new_sys.request_start(SimTime::from_millis(50), c1, file);
    new_sys.run_until(SimTime::from_secs(30));
    let report = new_sys.client_report(c1);
    assert_eq!(report.completed_viewers, 1, "{report:?}");
    assert_eq!(report.blocks_missing, 0);
}
