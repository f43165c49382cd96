//! The multiple-bitrate network schedule (§3.2, §4.2): mixed-rate streams,
//! two-phase insertion with speculative disk reads, and the fragmentation
//! fix.
//!
//! Run with: `cargo run --release --example multi_bitrate`

use tiger::core::{MbrConfig, MbrSystem};
use tiger::sim::{Bandwidth, SimDuration, SimTime};

fn main() {
    // A 14-cub ring: the network schedule is 14 s long (one block play
    // time per cub) and 135 Mbit/s tall (the NIC capacity). Starts are
    // quantized to bpt/decluster = 250 ms, the paper's fragmentation fix.
    // Reserve requests, replies and commit floods travel over the
    // simulated switched network; 700 ms is the scheduling-lead budget an
    // insertion must resolve within.
    let mut ring = MbrSystem::new(MbrConfig::default_ring(), SimDuration::from_millis(700));

    // Insert a mix of 1-6 Mbit/s streams from different originating cubs.
    let mix = [1u64, 2, 3, 2, 6, 4, 2, 1, 3, 2, 2, 5, 1, 2, 4, 2];
    for (i, &mbit) in mix.iter().cycle().take(200).enumerate() {
        ring.request_insert(
            SimTime::from_millis(i as u64 * 120),
            (i % 14) as u32,
            Bandwidth::from_mbit_per_sec(mbit),
        );
    }
    ring.run_until(SimTime::from_secs(40));

    let stats = ring.stats();
    println!(
        "200 mixed-bitrate requests: {} committed, {} aborted by the \
         successor or the deadline, {} ruled out by the originator's own view",
        stats.committed, stats.aborted, stats.rejected_local
    );
    println!(
        "confirmation round trips hidden behind the speculative disk read: \
         {}/{} (the §4.2 latency-hiding claim)",
        stats.hidden_confirms, stats.committed
    );
    // Every cub's view agrees on the committed entries, and the omniscient
    // reference schedule never saw the NIC overcommitted.
    for cub in 0..14 {
        assert_eq!(ring.view(cub).len() as u64, stats.committed);
    }
    assert_eq!(stats.violations, 0);
    println!("all 14 per-cub views agree on the committed schedule; 0 capacity violations.");
}
