//! Pins where every extent sits. `layout_digest` covers only which disk
//! holds each primary block; the offset and length of every extent, and
//! the disk each mirror piece or coded shard lands on, set the simulated
//! read times, so a layout change that moves any of them must show here.
//!
//! The digest is FNV-1a over every primary and secondary extent the cubs'
//! block indexes hold, as `(disk, file, block, piece, offset, length)`
//! sorted, then each disk's two bump positions in cub and local-disk
//! order. Taken on the §5 catalog, the `coded-k2` geometry, quick rings
//! holding files of 1, `n − 1`, `n` and `n + 1` blocks, and the state a
//! live grow and a live shrink leave after their cut-overs. Regenerate by
//! running with `-- --nocapture` and copying the printed values.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::{DiskRegion, RedundancyMode, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest over every extent and bump position, and the extent count.
fn extent_digest(sys: &TigerSystem) -> (u64, usize) {
    let mut extents: Vec<[u64; 6]> = (sys.cubs().iter())
        .flat_map(|cub| cub.index().extents())
        .map(|(disk, piece, file, block, entry)| {
            [
                u64::from(disk.raw()),
                u64::from(file.raw()),
                u64::from(block.raw()),
                piece.map_or(0, |p| u64::from(p) + 1),
                entry.offset(),
                entry.length().as_bytes(),
            ]
        })
        .collect();
    extents.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for word in extents.iter().flatten() {
        h = fnv1a(h, *word);
    }
    for space in sys.cubs().iter().flat_map(|cub| cub.space()) {
        h = fnv1a(h, space.next(DiskRegion::Primary));
        h = fnv1a(h, space.next(DiskRegion::Secondary));
    }
    (h, extents.len())
}

fn check(name: &str, sys: &TigerSystem, extents: usize, want: u64) {
    let (digest, len) = extent_digest(sys);
    println!("{name}: {digest:#018x} ({len} extents)");
    assert_eq!(len, extents, "{name}: extent count");
    assert_eq!(digest, want, "{name}: extent digest");
}

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn sosp97_catalog_extents() {
    // `CatalogSpec::sosp97()`: 64 files of an hour, decluster 4.
    let mut sys = TigerSystem::new(TigerConfig::sosp97());
    for _ in 0..64 {
        sys.add_file(rate(), SimDuration::from_secs(3600));
    }
    check("sosp97", &sys, 64 * 3600 * 5, 0xe393_34e7_9896_4b67);
}

#[test]
fn coded_k2_catalog_extents() {
    // The `coded-k2` workload's geometry and its catalog,
    // `CatalogSpec::sized_for(2000 s, 32)`: 32 files of 2,120 s, each
    // block its home shard and three remote ones.
    let mut cfg = TigerConfig::sosp97();
    cfg.stripe = StripeConfig::new(14, 4, 2);
    cfg.redundancy = RedundancyMode::Coded;
    let mut sys = TigerSystem::new(cfg);
    for _ in 0..32 {
        sys.add_file(rate(), SimDuration::from_secs(2120));
    }
    check("coded-k2", &sys, 32 * 2120 * 4, 0x80cd_0000_6e83_6375);
}

#[test]
fn quick_ring_short_file_extents() {
    // Four disks, decluster 2: files of 1, n − 1, n and n + 1 blocks
    // start at a lap's edges and wrap, mirrored and coded.
    for (mode, pieces, want) in [
        (RedundancyMode::Mirrored, 3, 0xcf12_3ad4_070a_885c),
        (RedundancyMode::Coded, 4, 0x5a98_9fd0_5618_3899),
    ] {
        let mut cfg = TigerConfig::small_test();
        cfg.redundancy = mode;
        let mut sys = TigerSystem::new(cfg);
        for blocks in [1, 3, 4, 5] {
            sys.add_file(rate(), SimDuration::from_secs(blocks));
        }
        check(mode.name(), &sys, 13 * pieces, want);
    }
}

/// The six-cub ring, two spares and six viewers over two files that
/// recovery.rs restripes.
fn restripe_system() -> TigerSystem {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(6, 1, 2);
    cfg.spare_cubs = 2;
    cfg.num_clients = 6;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    let files = [
        sys.add_file(rate(), SimDuration::from_secs(120)),
        sys.add_file(rate(), SimDuration::from_secs(120)),
    ];
    for i in 0..6u64 {
        let client = sys.add_client();
        let at = SimTime::from_millis(100 + i * 400);
        sys.request_start(at, client, files[(i % 2) as usize]);
    }
    sys
}

#[test]
fn grow_cutover_extents() {
    let mut sys = restripe_system();
    sys.request_restripe(SimTime::from_secs(5), 2);
    sys.run_until(SimTime::from_secs(140));
    assert_eq!(sys.world().cfg.stripe.num_cubs, 8, "grow cut over");
    check("grow", &sys, 240 * 3, 0x76b6_7e91_f583_a5ce);
}

#[test]
fn shrink_cutover_extents() {
    let mut sys = restripe_system();
    sys.request_restripe_remove(SimTime::from_secs(5), 1);
    sys.run_until(SimTime::from_secs(160));
    assert_eq!(sys.world().cfg.stripe.num_cubs, 5, "shrink cut over");
    check("shrink", &sys, 240 * 3, 0x070c_203e_7c87_ad85);
}
