//! The block index's memory per extent, against the paper's 64 bits an
//! entry (§4.1.1): bytes of live heap the `sosp97` catalog leaves behind
//! once loaded. A test binary of its own, because counting needs a
//! `#[global_allocator]` and a binary has one.

mod common;

use tiger_core::{TigerConfig, TigerSystem};
use tiger_sim::{Bandwidth, SimDuration};

#[test]
fn sosp97_catalog_leaves_at_most_0_6_bytes_an_extent() {
    // `CatalogSpec::sosp97()` as `populate_catalog` loads it: 64 files of
    // an hour at 2 Mbit/s on the 14-cub testbed, each block a primary
    // extent and four declustered mirror pieces. Everything the load
    // leaves on the heap is charged to the index, so the bound covers the
    // space maps and the catalog too. The only test in this binary, so
    // nothing else allocates meanwhile. Measured here: 584,960 bytes,
    // 0.5 an extent — each run laid as one progression, the run one
    // 32-byte segment whose tail (none, for a laid run) sits in its
    // lanes' store. (1,015,040 and 0.9 with a 24-byte vector for the
    // tail beside it, 56 bytes a run, under a bound of 1.5; 1,158,400 and
    // 1.0 with the segments in a vector of their own; 9,800,960 and 8.5
    // with one 8-byte slot a block; 12,381,440 and 10.7 while those runs
    // grew by doubling a block at a time; 57,347,008 and 49.8 while the
    // entries sat in two hash maps.)
    let mut sys = TigerSystem::new(TigerConfig::sosp97());
    let before = common::live();
    for _ in 0..64 {
        sys.add_file(
            Bandwidth::from_mbit_per_sec(2),
            SimDuration::from_secs(3600),
        );
    }
    let bytes = common::live() - before;
    let world = sys.world();
    let blocks: u64 = world
        .catalog
        .files()
        .iter()
        .map(|f| u64::from(f.num_blocks))
        .sum();
    let extents = blocks * u64::from(1 + world.cfg.stripe.decluster);
    assert_eq!(extents, 1_152_000);
    let per_extent = bytes as f64 / extents as f64;
    println!(
        "{bytes} bytes ({:.1} MiB) for {extents} extents: {per_extent:.1} an extent",
        bytes as f64 / f64::from(1 << 20)
    );
    assert!(per_extent <= 0.6, "{per_extent:.2} bytes an extent");
}
