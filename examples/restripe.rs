//! Restriping (§2.2): add a cub to a loaded system and plan the data
//! movement. The paper's claim: restripe time depends on per-cub content
//! and disk speed, not on system size.
//!
//! Run with: `cargo run --release --example restripe`

use tiger::layout::{FileCatalog, RestripePlan, StripeConfig};
use tiger::sim::{Bandwidth, SimDuration};

fn plan_for(cubs_before: u32, cubs_after: u32, files: u32) -> RestripePlan {
    let old = StripeConfig::new(cubs_before, 4, 4);
    let new = StripeConfig::new(cubs_after, 4, 4);
    let mut catalog = FileCatalog::new(
        old,
        SimDuration::from_secs(1),
        Bandwidth::from_mbit_per_sec(2),
    );
    for _ in 0..files {
        catalog.add_file(
            Bandwidth::from_mbit_per_sec(2),
            SimDuration::from_secs(3600),
        );
    }
    RestripePlan::plan(&catalog, old, new)
}

fn main() {
    let disk_bw = Bandwidth::from_bytes_per_sec(4_000_000);
    let nic_bw = Bandwidth::from_mbit_per_sec(135);

    // First, a *live* restripe: build a 4-cub system, play a file, add a
    // cub, and play the same file on the new geometry.
    {
        use tiger::core::{TigerConfig, TigerSystem};
        use tiger::sim::SimTime;
        let mut cfg = TigerConfig::small_test();
        cfg.disk = cfg.disk.without_blips();
        let mut sys = TigerSystem::new(cfg);
        let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(12));
        let c = sys.add_client();
        sys.request_start(SimTime::from_millis(50), c, film);
        sys.run_until(SimTime::from_secs(20));
        println!(
            "before restripe: viewer completed = {}",
            sys.client_report(c).completed_viewers == 1
        );
        let (mut bigger, plan) = sys.restripe_into(StripeConfig::new(5, 1, 2));
        println!(
            "restriped 4 -> 5 cubs: {} blocks moved, estimated offline time {}",
            plan.stats().moved_blocks,
            plan.estimate_duration(disk_bw, nic_bw),
        );
        let c2 = bigger.add_client();
        bigger.request_start(SimTime::from_millis(50), c2, film);
        bigger.run_until(SimTime::from_secs(20));
        println!(
            "after restripe:  viewer completed = {}\n",
            bigger.client_report(c2).completed_viewers == 1
        );
    }

    println!("scenario: add one cub to a system with one hour of content per 16 disks");
    println!();
    println!("cubs      blocks_moved  stationary  max_disk_MB  max_nic_MB  est_time");
    for (before, files) in [(4u32, 16u32), (8, 32), (14, 56), (28, 112)] {
        let plan = plan_for(before, before + 1, files);
        let stats = plan.stats();
        let t = plan.estimate_duration(disk_bw, nic_bw);
        println!(
            "{before:>2}->{:<4} {:>12} {:>11} {:>12.0} {:>11.0}  {t}",
            before + 1,
            stats.moved_blocks,
            stats.stationary_blocks,
            stats.max_disk_bytes.as_bytes() as f64 / 1e6,
            stats.max_cub_nic_bytes.as_bytes() as f64 / 1e6,
        );
    }
    println!();
    println!(
        "the total moved volume grows with the system, but the per-disk and \
         per-NIC maxima — and hence the estimated restripe time — stay flat: \
         \"the time to restripe a system does not depend on the size of the \
         system\" (§2.2)."
    );
}
