//! Byte-level goldens for the four block-service paths a cub can take:
//! a declustered mirror piece, a shielded piece served by a spare, a
//! healthy coded fan-out, and a coded degraded read with the home dead —
//! plus the two loss branches with adjacent cubs dead: too few coded
//! holders for the fan-out or the cover, and mirror pieces whose holders
//! died beside the home.
//!
//! Each scenario is a small fixed-seed run whose *entire* observable
//! output — every trace line, the loss ledger, the aggregate client
//! report — is folded into one FNV-1a digest and compared against a
//! checked-in value. The other goldens (`results/*.txt`, the chaos
//! sweep) pin the mirrored and coded paths only through coarser
//! summaries, and nothing else pins the shield path byte for byte, so a
//! refactor of the acceptance code is guarded here. A digest changes
//! only when service behaviour does; regenerate by running with
//! `-- --nocapture` and copying the printed values.

use tiger_core::{RedundancyMode, TigerConfig, TigerSystem};
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};
use tiger_trace::{TraceEvent, TraceRecord};

/// Large enough that no scenario overwrites a record: the digest covers
/// the whole run, not the ring's tail.
const TRACE_CAP: usize = 1 << 21;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An 8-cub ring, blip-free for deterministic loss accounting.
fn eight_cubs(decluster: u32) -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(8, 1, decluster);
    cfg.num_clients = 8;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    cfg.seed = 1997;
    cfg
}

/// Starts `viewers` staggered plays of one `secs`-long file.
fn load(sys: &mut TigerSystem, viewers: u64, secs: u64) {
    sys.enable_trace(TRACE_CAP);
    let file = sys.add_file(
        Bandwidth::from_mbit_per_sec(2),
        SimDuration::from_secs(secs),
    );
    for i in 0..viewers {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * 400), client, file);
    }
}

/// The run's records and the digest over everything it produced.
fn finish(sys: &TigerSystem, name: &str) -> (Vec<TraceRecord>, u64) {
    let records = sys.tracer().records();
    assert!(
        (records.len() as u64) == sys.tracer().recorded(),
        "{name}: trace ring overflowed; raise TRACE_CAP"
    );
    let text = format!(
        "{}{:?}\n{:?}\n",
        sys.tracer().dump().expect("tracing is on"),
        sys.metrics().loss,
        sys.all_clients_report()
    );
    let digest = fnv1a(&text);
    println!("{name}: {digest:#018x} ({} records)", records.len());
    (records, digest)
}

fn count(records: &[TraceRecord], pred: impl Fn(&TraceRecord) -> bool) -> usize {
    records.iter().filter(|r| pred(r)).count()
}

#[test]
fn mirrored_failover_at_decluster_4() {
    let mut sys = TigerSystem::new(eight_cubs(4));
    load(&mut sys, 8, 40);
    sys.fail_cub_at(SimTime::from_secs(12), CubId(3));
    sys.run_until(SimTime::from_secs(60));
    let (records, digest) = finish(&sys, "mirrored_failover_at_decluster_4");
    let creates = count(&records, |r| {
        matches!(r.ev, TraceEvent::MirrorCreate { .. })
    });
    assert!(creates > 0, "no block was covered by mirrors");
    // Every one of the four piece indices was served by a living holder.
    for piece in 0..4 {
        let n = count(
            &records,
            |r| matches!(r.ev, TraceEvent::MirrorAccept { piece: p, .. } if p == piece),
        );
        assert!(n > 0, "mirror piece {piece} never accepted");
    }
    assert_eq!(digest, 0x8caf_f37e_b9cd_372e);
}

#[test]
fn shielded_pieces_served_by_the_spare() {
    // Cub 1 dies; the shield copies the spans shadowing its disk onto
    // the spare (cub 8). Then cub 3 — holder of piece 1 of disk 1's
    // blocks, not adjacent to the first victim so piece 0's source
    // survives — dies too, and the cover path routes its pieces to the
    // spare.
    let mut cfg = eight_cubs(2);
    cfg.spare_cubs = 1;
    let mut sys = TigerSystem::new(cfg);
    load(&mut sys, 8, 100);
    sys.fail_cub_at(SimTime::from_secs(10), CubId(1));
    sys.fail_cub_at(SimTime::from_secs(60), CubId(3));
    sys.run_until(SimTime::from_secs(115));
    let (records, digest) = finish(&sys, "shielded_pieces_served_by_the_spare");
    let on_spare = count(&records, |r| {
        r.cub == 8 && matches!(r.ev, TraceEvent::MirrorAccept { .. })
    });
    assert!(on_spare > 0, "the spare never served a shielded piece");
    assert_eq!(digest, 0x1fd6_0015_454c_3c35);
}

#[test]
fn coded_k2_healthy_fan_out() {
    let mut cfg = eight_cubs(2);
    cfg.redundancy = RedundancyMode::Coded;
    let mut sys = TigerSystem::new(cfg);
    load(&mut sys, 8, 30);
    sys.run_until(SimTime::from_secs(45));
    let (records, digest) = finish(&sys, "coded_k2_healthy_fan_out");
    let report = sys.all_clients_report();
    assert_eq!(report.completed_viewers, 8, "{report:?}");
    assert_eq!(report.blocks_missing, 0);
    // Every block went out as k = 2 shard sends: the home's primary
    // entry plus one fanned-out holder.
    let loss = &sys.metrics().loss;
    assert_eq!(loss.blocks_sent, 2 * loss.blocks_scheduled, "{loss:?}");
    assert_eq!(
        count(&records, |r| matches!(
            r.ev,
            TraceEvent::DegradedPieceRead { .. }
        )),
        0
    );
    assert_eq!(digest, 0x473c_2f1b_4230_d797);
}

#[test]
fn coded_k2_home_dead() {
    let mut cfg = eight_cubs(2);
    cfg.redundancy = RedundancyMode::Coded;
    let mut sys = TigerSystem::new(cfg);
    load(&mut sys, 8, 40);
    sys.fail_cub_at(SimTime::from_secs(12), CubId(3));
    sys.run_until(SimTime::from_secs(60));
    let (records, digest) = finish(&sys, "coded_k2_home_dead");
    let repairs = count(&records, |r| matches!(r.ev, TraceEvent::CodedRepair { .. }));
    let degraded = count(&records, |r| {
        matches!(r.ev, TraceEvent::DegradedPieceRead { .. })
    });
    assert!(repairs > 0, "the acting successor never covered a block");
    assert!(degraded > 0, "no shard was served in the dead home's place");
    assert_eq!(digest, 0xe557_ed95_a721_c725);
}

#[test]
fn coded_k2_too_few_holders() {
    // Cubs 3, 4 and 5 die. A block homed on disk 2 has no living remote
    // holder left for its one fanned-out shard, and one homed on disk 3
    // keeps a single surviving shard of the k = 2 its cover needs: both
    // the home's fan-out and the acting successor's cover take their
    // loss branch instead of sending a partial block.
    let mut cfg = eight_cubs(2);
    cfg.redundancy = RedundancyMode::Coded;
    let mut sys = TigerSystem::new(cfg);
    load(&mut sys, 8, 40);
    for (secs, cub) in [(12, 3), (14, 4), (16, 5)] {
        sys.fail_cub_at(SimTime::from_secs(secs), CubId(cub));
    }
    sys.run_until(SimTime::from_secs(60));
    let (records, digest) = finish(&sys, "coded_k2_too_few_holders");
    let repairs = count(&records, |r| matches!(r.ev, TraceEvent::CodedRepair { .. }));
    assert!(repairs > 0, "the acting successor never covered a block");
    assert!(sys.metrics().loss.failover_lost > 0);
    assert_eq!(digest, 0x0bd5_6d49_ea65_8178);
}

#[test]
fn mirrored_decluster_4_adjacent_dead() {
    // Cubs 3 and 4 die. Cub 5 covers disk 3's blocks, and the mirror
    // record it starts names piece 0 — held by dead cub 4, so the piece
    // is counted lost before cub 5 serves its own piece 1.
    let mut sys = TigerSystem::new(eight_cubs(4));
    load(&mut sys, 8, 40);
    sys.fail_cub_at(SimTime::from_secs(12), CubId(3));
    sys.fail_cub_at(SimTime::from_secs(12), CubId(4));
    sys.run_until(SimTime::from_secs(60));
    let (records, digest) = finish(&sys, "mirrored_decluster_4_adjacent_dead");
    let creates = count(&records, |r| {
        matches!(r.ev, TraceEvent::MirrorCreate { .. })
    });
    assert!(creates > 0, "no block was covered by mirrors");
    assert!(sys.metrics().loss.failover_lost > 0);
    assert_eq!(digest, 0xd143_1e83_74f2_9f3a);
}
