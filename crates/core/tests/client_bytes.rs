//! The test client's memory per play instance: bytes of live heap one
//! `Client` keeps for instances that played a few blocks of a long file
//! and were stopped, which is what an interactive session leaves behind
//! (a seek or a resume is a new instance). A test binary of its own,
//! because counting needs a `#[global_allocator]` and a binary has one.

mod common;

use tiger_core::Client;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{FileId, ViewerId};
use tiger_sim::SimTime;

#[test]
fn a_stopped_ten_block_instance_keeps_at_most_256_bytes() {
    // 10,000 instances of an hour-long file (3,600 one-second blocks),
    // based across 0..3,500 as seeks and resumes land, each playing ten
    // blocks before it is stopped. Everything the client keeps is charged
    // to the instances, the map's own slack included. The only test in
    // this binary, so nothing else allocates meanwhile. Measured here:
    // 204.0 bytes an instance (680.5 while every instance kept a receipt
    // bit for each block of its file and a piece map of its own).
    const INSTANCES: u32 = 10_000;
    const NUM_BLOCKS: u32 = 3_600;
    let before = common::live();
    let mut client = Client::new();
    for i in 0..INSTANCES {
        let instance = ViewerInstance {
            viewer: ViewerId(u64::from(i)),
            incarnation: 0,
        };
        let base = i * 3_500 / INSTANCES;
        client.on_request(instance, FileId(0), NUM_BLOCKS, base, SimTime::ZERO, 0.5);
        for b in 0..10 {
            let now = SimTime::from_secs(u64::from(b) + 1);
            client.on_stream_data(instance, base + b, None, 1, now);
        }
        client.on_stopped(instance);
    }
    let bytes = common::live() - before;
    let report = client.report();
    assert_eq!(report.stopped_viewers, INSTANCES);
    assert_eq!(report.blocks_received, u64::from(INSTANCES) * 10);
    assert_eq!(report.blocks_missing, 0);
    let per_instance = bytes as f64 / f64::from(INSTANCES);
    println!("{bytes} bytes for {INSTANCES} instances: {per_instance:.1} an instance");
    assert!(per_instance <= 256.0, "{per_instance:.1} bytes an instance");
}
