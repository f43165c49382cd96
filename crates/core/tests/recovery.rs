//! Online-recovery protocol tests: cub rejoin with mirror catch-up, the
//! monitoring-baseline reset, double failure during the hand-back window,
//! and live restriping (fault-free byte-equality against the offline
//! oracle, and resumption across a mid-restripe crash).

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};
use tiger_trace::TraceEvent;

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

/// An 8-cub system, blip-free for deterministic loss accounting.
fn eight_cubs() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(8, 1, 2);
    cfg.num_clients = 8;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    cfg
}

#[test]
fn rejoin_restores_service_and_converges() {
    // Crash a cub mid-playback, restart it, and check that (a) the rejoin
    // handshake runs (restart, hand-back grant, first re-accepted slot),
    // (b) streams survive with loss bounded by the detection window, and
    // (c) the rejoined cub is serving again — RejoinDone — within the
    // re-learning bound (its successor relays the states it had been
    // covering, so a forward interval or two suffices).
    let mut sys = TigerSystem::new(eight_cubs());
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
    sys.fail_cub_at(SimTime::from_secs(10), CubId(2));
    sys.restart_cub_at(SimTime::from_secs(25), CubId(2));
    sys.run_until(SimTime::from_secs(120));

    let records = sys.tracer().records();
    let restart_at = records
        .iter()
        .find_map(|r| match r.ev {
            TraceEvent::CubRestart { cub: 2 } => Some(r.at),
            _ => None,
        })
        .expect("restart traced");
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::RejoinGrant { to: 2, .. })),
        "covering successor never opened a hand-back window"
    );
    let done_at = records
        .iter()
        .find_map(|r| match r.ev {
            TraceEvent::RejoinDone { cub: 2 } => Some(r.at),
            _ => None,
        })
        .expect("rejoined cub never re-accepted a slot");
    // Convergence bound: the successor relays covered states as they come
    // due, so the first re-accepted slot lands within the hand-back window
    // plus scheduling slack.
    let bound = sys.shared().cfg.min_vstate_lead
        + sys.shared().cfg.forward_interval.mul_u64(2)
        + SimDuration::from_secs(2);
    assert!(
        done_at.saturating_since(restart_at) <= bound,
        "rejoin took {:?}, bound {:?}",
        done_at.saturating_since(restart_at),
        bound
    );
    // No second failure declaration of cub 2 after its restart (fresh
    // monitoring baseline on both sides of the rejoin).
    assert!(
        !records.iter().any(
            |r| matches!(r.ev, TraceEvent::DeadmanDeclare { failed: 2, .. } if r.at > restart_at)
        ),
        "rejoined cub re-declared dead: baseline reset failed"
    );
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        assert_eq!(p.tail_missing(), 0, "stream starved across rejoin");
        assert!(
            p.blocks_missing() <= 8,
            "lost {} blocks; a single covered failure plus rejoin must stay \
             within the detection window",
            p.blocks_missing()
        );
    }
}

#[test]
fn no_block_served_twice_during_handback() {
    // While the successor hands slots back, both it and the rejoined cub
    // know about the same viewers. The mirror-set rule (serve only what
    // you own or act for) must keep them from both sending a block.
    let mut sys = TigerSystem::new(eight_cubs());
    let file = sys.add_file(rate(), SimDuration::from_secs(90));
    let mut viewers = Vec::new();
    for i in 0..8u64 {
        let client = sys.add_client();
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
        ));
    }
    sys.fail_cub_at(SimTime::from_secs(10), CubId(5));
    sys.restart_cub_at(SimTime::from_secs(20), CubId(5));
    sys.run_until(SimTime::from_secs(110));
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        assert_eq!(
            p.dup_blocks, 0,
            "duplicate delivery during hand-back window"
        );
    }
}

#[test]
fn double_failure_during_catchup_bounds_loss() {
    // The covering successor (cub 3, for cub 2's disks) dies moments after
    // the rejoin starts — in the middle of its hand-back window. The
    // rejoined cub has its disks and a partial view; the loss must stay
    // bounded by one detection window per failure plus the hand-back gap,
    // and streams must not starve.
    let mut sys = TigerSystem::new(eight_cubs());
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
    sys.fail_cub_at(SimTime::from_secs(10), CubId(2));
    sys.restart_cub_at(SimTime::from_secs(20), CubId(2));
    // Mid-handback: the window is min_vstate_lead (2s in small_test) long.
    sys.fail_cub_at(SimTime::from_millis(20_400), CubId(3));
    sys.run_until(SimTime::from_secs(120));
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        assert_eq!(
            p.tail_missing(),
            0,
            "stream starved after partner died mid-handback"
        );
        // Two non-overlapping single failures, each covered by mirrors:
        // each costs at most the detection window (~2 blocks at 1 block/s)
        // plus hand-back re-learning slack.
        assert!(
            p.blocks_missing() <= 14,
            "lost {} blocks: catch-up state must survive the partner's death",
            p.blocks_missing()
        );
        assert_eq!(p.dup_blocks, 0, "duplicate delivery across double failure");
    }
}

/// Shared scaffolding for the live-restripe tests: a 6+2 system with two
/// files and six viewers, restriped to 8 cubs at `restripe_at`.
fn restripe_system() -> (TigerSystem, Vec<(u32, tiger_layout::ids::ViewerInstance)>) {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(6, 1, 2);
    cfg.spare_cubs = 2;
    cfg.num_clients = 6;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    let a = sys.add_file(rate(), SimDuration::from_secs(120));
    let b = sys.add_file(rate(), SimDuration::from_secs(120));
    let mut viewers = Vec::new();
    for i in 0..6u64 {
        let client = sys.add_client();
        let file = if i % 2 == 0 { a } else { b };
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
        ));
    }
    (sys, viewers)
}

/// The offline oracle: the same content statically laid out on the target
/// geometry. Byte-equality of layout digests is the acceptance bar for
/// the live restriper.
fn oracle_digest() -> String {
    let (sys, _) = restripe_system();
    let (oracle, _plan) = sys.restripe_into(StripeConfig::new(8, 1, 2));
    oracle.layout_digest()
}

#[test]
fn fault_free_live_restripe_matches_static_oracle() {
    let (mut sys, viewers) = restripe_system();
    sys.enable_trace(65_536);
    sys.request_restripe(SimTime::from_secs(5), 2);
    sys.run_until(SimTime::from_secs(140));

    let records = sys.tracer().records();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::RestripeCutover { .. })),
        "restripe never cut over"
    );
    assert_eq!(
        sys.layout_digest(),
        oracle_digest(),
        "live restripe landed a different layout than the static plan"
    );
    // Streams ride across the cut-over: the old incarnation is fenced and
    // a renewed one resumes at the high-water mark, so at most the
    // in-flight window of blocks is disturbed per viewer.
    for (client, v) in &viewers {
        let old = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        let renewed = tiger_layout::ids::ViewerInstance {
            viewer: v.viewer,
            incarnation: v.incarnation + 1,
        };
        let newp = sys.clients()[*client as usize].viewer(&renewed);
        let high = newp
            .and_then(|p| p.high_water)
            .or(old.high_water)
            .unwrap_or(0);
        assert!(
            high >= 115,
            "stream stalled at block {high} across the cut-over"
        );
        let missing = old.blocks_missing() + newp.map_or(0, |p| p.blocks_missing());
        assert!(
            missing <= 8,
            "lost {missing} blocks across a fault-free restripe"
        );
    }
}

#[test]
fn restripe_resumes_across_mid_restripe_crash() {
    // Crash a source cub while its moves are in flight, restart it, and
    // check the plan drains to the same final layout — a crash leaves a
    // resumable plan, not a corrupt one.
    let (mut sys, _viewers) = restripe_system();
    sys.enable_trace(65_536);
    sys.request_restripe(SimTime::from_secs(5), 2);
    sys.fail_cub_at(SimTime::from_millis(5_300), CubId(1));
    sys.restart_cub_at(SimTime::from_secs(15), CubId(1));
    sys.run_until(SimTime::from_secs(160));

    let records = sys.tracer().records();
    let cutover_at = records
        .iter()
        .find_map(|r| match r.ev {
            TraceEvent::RestripeCutover { .. } => Some(r.at),
            _ => None,
        })
        .expect("restripe never completed after the crash");
    assert!(
        cutover_at > SimTime::from_secs(15),
        "cut-over cannot precede the source cub's restart"
    );
    assert_eq!(
        sys.layout_digest(),
        oracle_digest(),
        "crash + resume corrupted the final layout"
    );
}

/// The shrink oracle: the same content statically laid out on the
/// 5-cub target geometry (one member drained and fenced).
fn shrink_oracle_digest() -> String {
    let (sys, _) = restripe_system();
    let (oracle, _plan) = sys.restripe_into(StripeConfig::new(5, 1, 2));
    oracle.layout_digest()
}

#[test]
fn fault_free_live_shrink_matches_static_oracle() {
    let (mut sys, _viewers) = restripe_system();
    sys.enable_trace(65_536);
    sys.request_restripe_remove(SimTime::from_secs(5), 1);
    sys.run_until(SimTime::from_secs(160));

    let records = sys.tracer().records();
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::ShrinkDrain { cub: 5, .. })),
        "departing cub never finished draining"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::ShrinkFence { cub: 5 })),
        "departing cub never fenced at cut-over"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::RestripeCutover { .. })),
        "shrink never cut over"
    );
    assert_eq!(
        sys.layout_digest(),
        shrink_oracle_digest(),
        "live shrink landed a different layout than the static plan"
    );
}

#[test]
fn shrink_resumes_across_mid_drain_crash() {
    // A surviving destination cub dies while the departing member's
    // primaries are draining onto it, then restarts: the moves targeting
    // it park, resume after the rejoin, and the plan still drains to the
    // oracle's exact layout.
    let (mut sys, _viewers) = restripe_system();
    sys.enable_trace(65_536);
    sys.request_restripe_remove(SimTime::from_secs(5), 1);
    sys.fail_cub_at(SimTime::from_millis(5_300), CubId(1));
    sys.restart_cub_at(SimTime::from_secs(15), CubId(1));
    sys.run_until(SimTime::from_secs(180));

    let records = sys.tracer().records();
    let cutover_at = records
        .iter()
        .find_map(|r| match r.ev {
            TraceEvent::RestripeCutover { .. } => Some(r.at),
            _ => None,
        })
        .expect("shrink never completed after the crash");
    assert!(
        cutover_at > SimTime::from_secs(15),
        "cut-over cannot precede the destination cub's restart"
    );
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::ShrinkFence { cub: 5 })),
        "departing cub never fenced after the crash"
    );
    assert_eq!(
        sys.layout_digest(),
        shrink_oracle_digest(),
        "crash + resume corrupted the shrink layout"
    );
}

#[test]
#[should_panic(expected = "shorter than maxVStateLead")]
fn a_shrink_below_the_lead_is_refused() {
    // 4 one-second disks under a 3 s lead: one may leave (a 3 s lap),
    // two may not.
    let mut sys = TigerSystem::new(TigerConfig::small_test());
    sys.request_restripe_remove(SimTime::from_secs(5), 1);
    sys.request_restripe_remove(SimTime::from_secs(9), 1);
}

#[test]
fn restripe_noop_when_no_moves_needed() {
    // Adding zero cubs plans zero moves and cuts over immediately without
    // touching the layout or the viewers.
    let (mut sys, _) = restripe_system();
    let before = sys.layout_digest();
    sys.request_restripe(SimTime::from_secs(5), 0);
    sys.run_until(SimTime::from_secs(30));
    assert_eq!(sys.layout_digest(), before, "no-op restripe moved blocks");
}

#[test]
fn sub_interval_restart_keeps_one_deadman_chain() {
    // A restart faster than one deadman interval leaves the previous
    // life's periodic events in the queue (cub 1's next ping is due at
    // 10.126 s, after the 10.1 s restart). They must die there: a revived
    // cub that adopted them would ping and check at twice the rate forever.
    let mut sys = TigerSystem::new(TigerConfig::small_test());
    sys.enable_trace(65_536);
    sys.fail_cub_at(SimTime::from_secs(10), CubId(1));
    sys.restart_cub_at(SimTime::from_millis(10_100), CubId(1));
    sys.run_until(SimTime::from_millis(20_100));
    let interval = sys.shared().cfg.deadman_interval;
    let pings = sys
        .tracer()
        .records()
        .iter()
        .filter(|r| {
            r.cub == 1
                && r.at > SimTime::from_millis(10_100)
                && matches!(r.ev, TraceEvent::DeadmanPing { .. })
        })
        .count() as u64;
    assert_eq!(
        pings,
        SimDuration::from_secs(10).as_nanos() / interval.as_nanos(),
        "exactly one ping per deadman interval after the restart"
    );
}
