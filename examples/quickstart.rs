//! Quickstart: build a small Tiger, play one movie, watch it arrive.
//!
//! Run with: `cargo run --release --example quickstart`

use tiger::core::{TigerConfig, TigerSystem};
use tiger::sim::{Bandwidth, SimDuration, SimTime};

fn main() {
    // A 4-cub test system with deterministic disks.
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();

    // Load a 30-second, 2 Mbit/s "movie": its blocks are striped across
    // every disk of every cub, with declustered mirror pieces on the disks
    // that follow each primary.
    let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(30));
    println!(
        "loaded {film:?}: {} blocks",
        sys.world().catalog.get(film).unwrap().num_blocks
    );

    // A client asks the controller to start playing.
    let client = sys.add_client();
    let viewer = sys.request_start(SimTime::from_millis(50), client, film);
    println!("viewer {viewer} requested start at t=0.05s");

    // Run the distributed machinery: ownership-window insertion, ring
    // forwarding of viewer states, paced block transmission.
    sys.run_until(SimTime::from_secs(45));

    let (latency, received, missing, complete) = {
        let p = sys.clients()[client as usize]
            .viewer(&viewer)
            .expect("viewer exists");
        (
            p.start_latency_secs().expect("started"),
            p.blocks_received(),
            p.blocks_missing(),
            p.complete(),
        )
    };
    println!("startup latency: {latency:.2}s (block transmission alone is 1s)");
    println!(
        "received {received}/{} blocks, {missing} missing",
        received + missing
    );
    let violations = sys.take_violations();
    println!(
        "omniscient hallucination checker: {} violations",
        violations.len()
    );
    assert!(violations.is_empty());
    assert!(complete);
    println!("done: the movie played to completion.");
}
