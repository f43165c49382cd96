//! End-to-end tests of the `tiger-coded` redundancy backend: healthy
//! service assembles every block from `k` shard sends, a machine failure
//! is covered by degraded reads from any `k` surviving shards, and the
//! mirrored default is byte-identical with the backend compiled in.

use tiger_core::{RedundancyMode, TigerConfig, TigerSystem};
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};
use tiger_trace::TraceEvent;

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

/// The small test system with the coded backend on (k = 2, n = 4 shards
/// over 4 disks).
fn coded_config() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg.redundancy = RedundancyMode::Coded;
    cfg
}

/// An 8-cub coded system for failure scenarios: one dead machine leaves
/// 3 of every block's 4 shards, and any 2 reconstruct.
fn eight_cubs_coded() -> TigerConfig {
    let mut cfg = coded_config();
    cfg.stripe = StripeConfig::new(8, 1, 2);
    cfg.num_clients = 8;
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    cfg
}

#[test]
fn coded_single_viewer_plays_to_completion() {
    let mut sys = TigerSystem::new(coded_config());
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(12));
    let client = sys.add_client();
    sys.request_start(SimTime::from_millis(50), client, file);
    sys.run_until(SimTime::from_secs(30));
    let report = sys.client_report(client);
    assert_eq!(report.completed_viewers, 1, "{report:?}");
    assert_eq!(report.blocks_missing, 0);
    assert!(sys.take_violations().is_empty());
    assert_eq!(sys.controller().active_streams(), 0);
}

#[test]
fn coded_staggered_viewers_all_complete() {
    let mut sys = TigerSystem::new(coded_config());
    sys.enable_omniscient();
    let files: Vec<_> = (0..4)
        .map(|_| sys.add_file(rate(), SimDuration::from_secs(20)))
        .collect();
    for i in 0..12u64 {
        let client = sys.add_client();
        sys.request_start(
            SimTime::from_millis(100 + i * 730),
            client,
            files[(i % 4) as usize],
        );
    }
    sys.run_until(SimTime::from_secs(60));
    let report = sys.all_clients_report();
    assert_eq!(report.completed_viewers, 12, "{report:?}");
    assert_eq!(report.blocks_missing, 0);
    assert!(
        sys.take_violations().is_empty(),
        "{:?}",
        sys.take_violations()
    );
    assert_eq!(sys.metrics().loss.server_missed, 0);
}

#[test]
fn coded_capacity_exceeds_mirrored_at_k2() {
    // At k = 2 the coded worst-case service time (two half-block shard
    // reads) beats mirroring's full block + 1/decluster piece, so the
    // same hardware admits more streams. (At k = 4 the relation flips;
    // see docs/CODED.md.)
    let mirrored = TigerSystem::new(TigerConfig::small_test());
    let coded = TigerSystem::new(coded_config());
    let m = mirrored.world().params.capacity();
    let c = coded.world().params.capacity();
    assert!(c > m, "coded capacity {c} should exceed mirrored {m}");
}

#[test]
fn coded_survives_single_cub_failure_without_data_loss_after_detection() {
    // k = 2, n = 4: one dead machine kills at most one shard of any
    // block, leaving 3 ≥ k survivors — unlike mirroring, NO block is
    // unrecoverable. Loss is bounded by the failure-detection window.
    let mut sys = TigerSystem::new(eight_cubs_coded());
    sys.enable_trace(65_536);
    let file = sys.add_file(rate(), SimDuration::from_secs(100));
    let mut viewers = Vec::new();
    for i in 0..8u64 {
        let client = sys.add_client();
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
        ));
    }
    sys.fail_cub_at(SimTime::from_secs(20), CubId(3));
    sys.run_until(SimTime::from_secs(130));
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        assert!(p.tail_missing() == 0, "stream starved after failure");
        // Only blocks in flight during the detection window are lost.
        assert!(
            p.blocks_missing() <= 6,
            "lost {} blocks; any-k reconstruction should cover the rest",
            p.blocks_missing()
        );
    }
    let records = sys.tracer().records();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::CodedRepair { .. })),
        "acting successor never created coded repair records"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::DegradedPieceRead { .. })),
        "no holder traced a degraded shard read"
    );
}

#[test]
fn load_rings_are_empty_once_every_stream_ends() {
    // Every block's load is released when the home reclaims its primary
    // entry — including the entries a power cut or a restart throws
    // away, or the dead home's stale load would bias holder ranking on
    // its neighbours' disks for the rest of the run. A restripe cut-over
    // rebuilds the table for the new geometry: the entries still
    // transmitting then must release nothing on it (a release of a load
    // the table never took underflows in a debug build).
    let run = |events: &dyn Fn(&mut TigerSystem)| {
        let mut cfg = eight_cubs_coded();
        cfg.spare_cubs = 1;
        let mut sys = TigerSystem::new(cfg);
        sys.enable_trace(1 << 17);
        let file = sys.add_file(rate(), SimDuration::from_secs(100));
        for i in 0..8u64 {
            let client = sys.add_client();
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file);
        }
        events(&mut sys);
        sys.run_until(SimTime::from_secs(200));
        assert_eq!(
            sys.controller().active_streams(),
            0,
            "streams still running"
        );
        (sys.shared().loads.total(), transmitting_at_cutover(&sys))
    };
    let cut = |sys: &mut TigerSystem| sys.fail_cub_at(SimTime::from_secs(20), CubId(3));
    assert_eq!(run(&|_| {}), (0, None), "healthy");
    assert_eq!(run(&cut), (0, None), "cub 3 cut at 20 s");
    let back = |sys: &mut TigerSystem| {
        cut(sys);
        sys.restart_cub_at(SimTime::from_secs(60), CubId(3));
    };
    assert_eq!(run(&back), (0, None), "cub 3 cut, back at 60 s");
    let grow = |sys: &mut TigerSystem| sys.request_restripe(SimTime::from_secs(20), 1);
    let (load, transmitting) = run(&grow);
    assert_eq!(load, 0, "restripe at 20 s, add 1");
    assert!(
        transmitting.is_some_and(|n| n > 0),
        "no send was in flight at the cut-over: {transmitting:?}"
    );
}

/// How many sends were under way when the run's restripe cut over, if it
/// did: started (`send-due ok`) and not yet done.
fn transmitting_at_cutover(sys: &TigerSystem) -> Option<usize> {
    let records = sys.tracer().records();
    assert_eq!(
        records.len() as u64,
        sys.tracer().recorded(),
        "trace ring overflowed"
    );
    let mut open = std::collections::BTreeSet::new();
    for r in records {
        match r.ev {
            TraceEvent::SendDue {
                slot,
                viewer,
                inc,
                ok: true,
            } => {
                open.insert((r.cub, slot, viewer, inc));
            }
            TraceEvent::SendDone { slot, viewer, inc } => {
                open.remove(&(r.cub, slot, viewer, inc));
            }
            TraceEvent::RestripeCutover { .. } => return Some(open.len()),
            _ => {}
        }
    }
    None
}

#[test]
fn coded_run_is_deterministic() {
    // Two identical coded runs (holder choice ranks the load index;
    // nothing consults an RNG) produce identical client reports.
    let run = || {
        let mut sys = TigerSystem::new(eight_cubs_coded());
        let file = sys.add_file(rate(), SimDuration::from_secs(40));
        for i in 0..6u64 {
            let client = sys.add_client();
            sys.request_start(SimTime::from_millis(100 + i * 500), client, file);
        }
        sys.fail_cub_at(SimTime::from_secs(15), CubId(2));
        sys.run_until(SimTime::from_secs(60));
        format!("{:?}", sys.all_clients_report())
    };
    assert_eq!(run(), run());
}
