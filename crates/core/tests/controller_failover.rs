//! Controller fault tolerance — the paper's stated future work.
//!
//! §2.3: "While the Tiger controller is a single point of failure in the
//! current implementation, the distributed schedule work described in this
//! paper removes the major function that the controller in a centralized
//! Tiger system would have. The Netshow product group plans on making the
//! remaining functions of the controller fault tolerant."
//!
//! These tests verify both halves: (1) running streams never depend on the
//! controller at all (the paper's key point); (2) a hot-standby backup
//! restores start/stop service after the primary dies.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

fn quiet(backup: bool) -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg.backup_controller = backup;
    cfg
}

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn running_streams_survive_controller_death_without_backup() {
    // The distributed schedule's headline property: once started, a stream
    // needs only the ring of cubs — the controller can die and nobody's
    // video glitches.
    let mut sys = TigerSystem::new(quiet(false));
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    let mut viewers = Vec::new();
    for i in 0..10u64 {
        let client = sys.add_client();
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
        ));
    }
    sys.fail_controller_at(SimTime::from_secs(10));
    sys.run_until(SimTime::from_secs(80));
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        assert!(p.complete(), "a stream depended on the controller");
        assert_eq!(p.blocks_missing(), 0);
    }
}

#[test]
fn without_backup_no_new_starts_after_controller_death() {
    let mut sys = TigerSystem::new(quiet(false));
    let file = sys.add_file(rate(), SimDuration::from_secs(30));
    sys.fail_controller_at(SimTime::from_secs(5));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_secs(10), client, file);
    sys.run_until(SimTime::from_secs(40));
    let p = sys.clients()[client as usize]
        .viewer(&v)
        .expect("registered");
    assert!(
        p.first_block_at.is_none(),
        "a start succeeded with no controller and no backup"
    );
}

#[test]
fn backup_restores_starts_and_stops() {
    let mut sys = TigerSystem::new(quiet(true));
    let file = sys.add_file(rate(), SimDuration::from_secs(120));
    // One stream started under the primary...
    let c0 = sys.add_client();
    let v0 = sys.request_start(SimTime::from_millis(100), c0, file);
    // ... then the primary dies.
    sys.fail_controller_at(SimTime::from_secs(10));
    // A start after the failover timeout must succeed via the backup.
    let c1 = sys.add_client();
    let v1 = sys.request_start(SimTime::from_secs(20), c1, file);
    // And a stop of the pre-failure stream must work too: the backup
    // learned v0's slot from the mirrored commit notice.
    sys.request_stop(SimTime::from_secs(40), v0);
    sys.run_until(SimTime::from_secs(90));

    let p1 = sys.clients()[c1 as usize]
        .viewer(&v1)
        .expect("viewer exists");
    assert!(
        p1.blocks_received() >= 60,
        "post-failover start got only {} blocks",
        p1.blocks_received()
    );
    let p0 = sys.clients()[c0 as usize]
        .viewer(&v0)
        .expect("viewer exists");
    assert!(p0.stopped);
    assert!(
        p0.blocks_received() < 60,
        "stop via the backup did not take: {} blocks delivered",
        p0.blocks_received()
    );
    assert_eq!(p0.blocks_missing(), 0, "no gaps before the stop");
}

#[test]
fn backup_also_covers_cub_failure_routing() {
    // After promotion, the backup must route around failed cubs (it
    // mirrors failure notices before taking over).
    let mut cfg = quiet(true);
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    sys.fail_cub_at(SimTime::from_secs(5), tiger_layout::CubId(1));
    sys.fail_controller_at(SimTime::from_secs(10));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_secs(20), client, file);
    sys.run_until(SimTime::from_secs(90));
    let p = sys.clients()[client as usize]
        .viewer(&v)
        .expect("viewer exists");
    assert!(
        p.blocks_received() >= 50,
        "start under backup + failed cub got {} blocks",
        p.blocks_received()
    );
}

#[test]
fn promoted_backup_counts_only_streams_that_play() {
    // The §4.1.3 stop/insert race under a hot standby: a stop that
    // reaches the controllers while the start is still queued at a cub is
    // pinned to the record and honoured when `InsertCommitted` arrives.
    // The standby must take that deferred stop too — otherwise it keeps a
    // slot per race and, once promoted, reports and admission-limits on
    // streams nobody is watching.
    let mut sys = TigerSystem::new(quiet(true));
    sys.enable_trace(65_536);
    let file = sys.add_file(rate(), SimDuration::from_secs(120));
    for i in 0..3u64 {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * 400), client, file);
    }
    let mut raced = Vec::new();
    for i in 0..3u64 {
        let client = sys.add_client();
        let at = SimTime::from_millis(2_000 + i * 400);
        let v = sys.request_start(at, client, file);
        // After the controllers have the start, before any cub commits it.
        let stop_at = at + SimDuration::from_millis(5);
        sys.request_stop(stop_at, v);
        raced.push((v, stop_at));
    }
    sys.fail_controller_at(SimTime::from_secs(10));
    // A stream is delivering if its client's high-water mark still moves
    // (clients log data for stopped viewers too).
    let marks = |sys: &TigerSystem| -> Vec<Option<u32>> {
        let viewers = sys.clients().iter().flat_map(|c| c.viewers());
        let mut marks: Vec<_> = viewers.map(|(v, p)| (*v, p.high_water)).collect();
        marks.sort();
        marks.into_iter().map(|(_, high)| high).collect()
    };
    sys.run_until(SimTime::from_secs(20));
    let before = marks(&sys);
    sys.run_until(SimTime::from_secs(25));
    let after = marks(&sys);
    let delivering = before.iter().zip(&after).filter(|(b, a)| a > b).count();

    let records = sys.tracer().records();
    for (v, stop_at) in &raced {
        let committed_at = records
            .iter()
            .find_map(|r| match r.ev {
                tiger_trace::TraceEvent::InsertCommit { viewer, .. }
                    if viewer == v.viewer.raw() =>
                {
                    Some(r.at)
                }
                _ => None,
            })
            .expect("raced start never committed");
        assert!(
            committed_at > *stop_at,
            "the stop did not race the insert; the scenario needs retiming"
        );
    }
    // At least one deferred stop took effect (a stop that beats its own
    // start request to the controller is simply lost, and that stream
    // plays on), and the three ordinary streams are untouched.
    assert!(
        (3..6).contains(&delivering),
        "{delivering} streams delivering"
    );
    assert_eq!(
        sys.controller().active_streams() as usize,
        delivering,
        "the promoted backup counts streams that were stopped while queued"
    );
}
