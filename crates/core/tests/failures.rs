//! Failure-mode protocol tests: multi-failure bridging, data-loss
//! exposure, controller rerouting, and detection behaviour.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::{CubId, MirrorPlacement, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

/// An 8-cub system tolerant enough for the multi-failure scenarios.
fn eight_cubs() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(8, 1, 2);
    cfg.num_clients = 8;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    cfg
}

#[test]
fn two_distant_failures_survive() {
    // Decluster 2: failures more than two disks apart lose no data (§2.3).
    let mut sys = TigerSystem::new(eight_cubs());
    let file = sys.add_file(rate(), SimDuration::from_secs(100));
    let mut viewers = Vec::new();
    for i in 0..8u64 {
        let client = sys.add_client();
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
        ));
    }
    sys.fail_cub_at(SimTime::from_secs(20), CubId(1));
    sys.fail_cub_at(SimTime::from_secs(30), CubId(5));
    sys.run_until(SimTime::from_secs(120));
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        // Each failure costs at most the detection window; streams survive.
        assert!(
            p.tail_missing() == 0,
            "stream starved after distant double failure"
        );
        assert!(
            p.blocks_missing() <= 8,
            "lost {} blocks; mirrors should cover both failures",
            p.blocks_missing()
        );
    }
}

#[test]
fn adjacent_failures_lose_data_but_streams_continue() {
    // §2.3: "Even if Tiger suffers the failure of two cubs near to one
    // another, it will attempt to continue to send streams, although these
    // streams will necessarily miss some blocks of data. If two or more
    // consecutive cubs are failed, the preceding living cub will send
    // scheduling information to the succeeding living cub, bridging the
    // gap."
    let mut sys = TigerSystem::new(eight_cubs());
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
    sys.fail_cub_at(SimTime::from_secs(20), CubId(4));
    sys.run_until(SimTime::from_secs(130));
    let mut some_loss = false;
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        // The gap is bridged: schedule information keeps flowing, so the
        // stream reaches its final blocks. (The very last block may itself
        // be unrecoverable if it sits on the dead pair, so allow a tail of
        // one.)
        assert!(
            p.tail_missing() <= 1,
            "stream starved: gap bridging failed (high water {:?})",
            p.high_water
        );
        assert!(p.high_water.unwrap_or(0) >= 97, "stream stopped early");
        // ...but the blocks on the dead pair whose mirror pieces were on
        // the dead pair are unrecoverable.
        some_loss |= p.blocks_missing() > 0;
        // Bounded: ~2 of every 8 blocks plus the detection window.
        let missing = u64::from(p.blocks_missing());
        assert!(
            missing < 45,
            "lost {missing} of ~100: more than the dead span"
        );
    }
    assert!(
        some_loss,
        "adjacent failures must lose the doubly-dead pieces"
    );
}

#[test]
fn exposure_prediction_matches_observed_loss() {
    // The layout's second_failure_exposure says which second failures lose
    // data. Verify both directions against the running system.
    let placement = MirrorPlacement::new(StripeConfig::new(8, 1, 2));
    // disk i is on cub i (one disk per cub), so disk exposure = cub
    // exposure here.
    let exposed = placement.second_failure_exposure(tiger_layout::DiskId(3));
    assert!(exposed.contains(&tiger_layout::DiskId(4)));
    assert!(!exposed.contains(&tiger_layout::DiskId(6)));

    let run = |second: CubId| -> u64 {
        let mut sys = TigerSystem::new(eight_cubs());
        let file = sys.add_file(rate(), SimDuration::from_secs(80));
        let mut viewers = Vec::new();
        for i in 0..6u64 {
            let client = sys.add_client();
            viewers.push((
                client,
                sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
            ));
        }
        sys.fail_cub_at(SimTime::from_secs(20), CubId(3));
        sys.fail_cub_at(SimTime::from_secs(35), second);
        sys.run_until(SimTime::from_secs(110));
        // Count losses well after both detection windows (blocks due after
        // t=45): unrecoverable data, not detection transients.
        let mut steady_loss = 0u64;
        for (client, v) in &viewers {
            let p = sys.clients()[*client as usize]
                .viewer(v)
                .expect("viewer exists");
            let first = p.first_block_at.expect("started").as_secs_f64();
            let high = p.high_water.unwrap_or(0);
            for b in 0..=high {
                let due = first + f64::from(b);
                if due > 45.0 && !p.block_received(b) {
                    steady_loss += 1;
                }
            }
        }
        steady_loss
    };
    let exposed_loss = run(CubId(4)); // within decluster distance: loses data
    let safe_loss = run(CubId(6)); // outside: survives
    assert!(exposed_loss > 0, "adjacent second failure must lose data");
    assert_eq!(safe_loss, 0, "distant second failure must be fully covered");
}

#[test]
fn starts_route_around_a_dead_cub() {
    // A file whose first block lives on the failed cub can still be
    // started: the controller routes to the acting successor, which owns
    // the dead disk's slots.
    let mut sys = TigerSystem::new(eight_cubs());
    // Find a file whose start disk is on cub 2.
    let mut file = None;
    for _ in 0..64 {
        let f = sys.add_file(rate(), SimDuration::from_secs(40));
        let meta = *sys.world().catalog.get(f).expect("exists");
        if sys.world().params.stripe().cub_of(meta.start_disk) == CubId(2) {
            file = Some(f);
            break;
        }
    }
    let file = file.expect("some file starts on cub 2");
    sys.fail_cub_at(SimTime::from_secs(5), CubId(2));
    sys.run_until(SimTime::from_secs(12)); // past detection
    let client = sys.add_client();
    let viewer = sys.request_start(SimTime::from_secs(12), client, file);
    sys.run_until(SimTime::from_secs(60));
    let p = sys.clients()[client as usize]
        .viewer(&viewer)
        .expect("viewer exists");
    assert!(p.first_block_at.is_some(), "start never served");
    // Block 0 arrives via mirror pieces (its primary disk is dead).
    assert!(p.block_received(0), "first block must come from mirrors");
    assert!(
        p.blocks_received() >= 38,
        "only {} blocks arrived",
        p.blocks_received()
    );
}

#[test]
fn redundant_start_survives_primary_target_failure() {
    // The controller sends each start to the primary cub *and* its
    // successor; if the primary dies before inserting, the successor
    // promotes the redundant copy.
    let mut sys = TigerSystem::new(eight_cubs());
    let mut file = None;
    for _ in 0..64 {
        let f = sys.add_file(rate(), SimDuration::from_secs(40));
        let meta = *sys.world().catalog.get(f).expect("exists");
        if sys.world().params.stripe().cub_of(meta.start_disk) == CubId(6) {
            file = Some(f);
            break;
        }
    }
    let file = file.expect("some file starts on cub 6");
    // Kill cub 6 an instant after the start request is routed to it: the
    // request is in flight or queued, not yet inserted... or inserted but
    // unserved. Either way the viewer must eventually play.
    let client = sys.add_client();
    let viewer = sys.request_start(SimTime::from_millis(1_000), client, file);
    sys.fail_cub_at(SimTime::from_millis(1_030), CubId(6));
    sys.run_until(SimTime::from_secs(70));
    let p = sys.clients()[client as usize]
        .viewer(&viewer)
        .expect("viewer exists");
    assert!(
        p.first_block_at.is_some(),
        "start lost with its primary target (redundant routing failed)"
    );
    assert!(p.blocks_received() >= 35, "got {}", p.blocks_received());
}

#[test]
fn failure_detection_is_reported_once_per_failure() {
    let mut sys = TigerSystem::new(eight_cubs());
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    let client = sys.add_client();
    sys.request_start(SimTime::from_millis(100), client, file);
    sys.fail_cub_at(SimTime::from_secs(10), CubId(4));
    sys.run_until(SimTime::from_secs(70));
    let detections: Vec<_> = sys
        .metrics()
        .failure_detections
        .iter()
        .filter(|&&(_, failed)| failed == 4)
        .collect();
    assert_eq!(detections.len(), 1, "duplicate detections: {detections:?}");
}
