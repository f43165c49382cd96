//! A movie service under load: ramp a full-scale (14-cub, 56-disk, SOSP
//! testbed) Tiger toward its 602-stream capacity and print the load report
//! the paper's Figure 8 plots.
//!
//! Run with: `cargo run --release --example movie_service`

use tiger::bench::figures::ramp_table;
use tiger::sim::SimDuration;
use tiger::workload::{run_ramp, CatalogSpec, RampConfig};
use tiger_core::TigerConfig;

fn main() {
    let tiger = TigerConfig::sosp97();
    println!(
        "system: {} cubs x {} disks, capacity derivation gives 602 streams",
        tiger.stripe.num_cubs, tiger.stripe.disks_per_cub
    );

    // A catalog of 16 movies (full-scale uses 64 x 1 hour; this keeps the
    // example quick) and a ramp of +30 streams per 20 s step.
    let cfg = RampConfig {
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(600), 16),
        settle: SimDuration::from_secs(20),
        target: Some(480), // ~80% of capacity: the recommended operating point
        ..RampConfig::fig8(tiger, SimDuration::from_secs(20))
    };
    let result = run_ramp(&cfg);

    print!(
        "{}",
        ramp_table("movie service ramp to 480 streams", &result.windows)
    );
    println!();
    println!(
        "delivered {} blocks; server missed {}; clients report {} missing",
        result.loss.blocks_sent, result.loss.server_missed, result.client_missing
    );
    let last = result.windows.last().expect("windows");
    println!(
        "at {} streams: cub CPU {:.0}%, disk load {:.0}%, control traffic {:.1} KB/s per cub",
        last.streams,
        last.cub_cpu * 100.0,
        last.disk_load * 100.0,
        last.control_bytes_per_sec / 1e3,
    );
}
