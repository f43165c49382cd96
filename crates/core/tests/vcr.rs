//! VCR operations: pause/resume and seek, built on the §4.1.2 deschedule
//! semantics. The instance (incarnation) numbers exist precisely so that a
//! viewer can stop and restart "quickly" without the old deschedule killing
//! the new play — these tests exercise that machinery end-to-end.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

fn quiet() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg
}

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn start_mid_file_plays_the_tail_only() {
    let mut sys = TigerSystem::new(quiet());
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(30));
    let client = sys.add_client();
    let v = sys.request_start_at(SimTime::from_millis(50), client, file, 20);
    sys.run_until(SimTime::from_secs(20));
    let p = sys.clients()[client as usize]
        .viewer(&v)
        .expect("viewer exists");
    assert!(p.complete(), "blocks 20..30 all arrived");
    assert_eq!(p.blocks_received(), 10, "only the tail is expected");
    assert!(
        !p.block_received(5) || p.base_block == 20,
        "pre-base blocks are padding"
    );
    assert!(sys.take_violations().is_empty());
}

#[test]
fn pause_then_resume_completes_the_file() {
    let mut sys = TigerSystem::new(quiet());
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(40));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_millis(50), client, file);
    // Pause after ~12 s of play, resume 10 s later.
    sys.request_pause(SimTime::from_secs(12), v);
    let resumed = sys.request_resume(SimTime::from_secs(22), v);
    sys.run_until(SimTime::from_secs(70));

    let clients = &sys.clients()[client as usize];
    let before = clients.viewer(&v).expect("paused instance exists");
    let after = clients.viewer(&resumed).expect("resumed instance exists");
    assert!(before.stopped);
    let got_before = before.blocks_received();
    assert!(
        (8..=15).contains(&got_before),
        "paused after {got_before} blocks"
    );
    // The resumed instance picks up exactly where the pause left off and
    // finishes the file: between them, every block arrived exactly once.
    assert_eq!(
        after.base_block,
        before.high_water.expect("played some") + 1
    );
    assert!(after.complete(), "resume did not finish the file");
    assert_eq!(
        got_before + after.blocks_received(),
        40,
        "pause+resume must cover the file exactly"
    );
    assert!(
        sys.take_violations().is_empty(),
        "{:?}",
        sys.take_violations()
    );
}

#[test]
fn immediate_resume_survives_stale_deschedule() {
    // §4.1.2: "a viewer cannot be spontaneously rescheduled" and a
    // restarted viewer must not be killed by its predecessor's deschedule
    // — the incarnation number does the disambiguation. Resume right on
    // the heels of the pause so the deschedule and the new insert race
    // through the ring together.
    let mut sys = TigerSystem::new(quiet());
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(30));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_millis(50), client, file);
    sys.request_pause(SimTime::from_secs(10), v);
    let resumed = sys.request_resume(SimTime::from_millis(10_050), v);
    sys.run_until(SimTime::from_secs(60));
    let after = sys.clients()[client as usize]
        .viewer(&resumed)
        .expect("resumed instance exists");
    assert!(
        after.complete(),
        "stale deschedule killed the resumed incarnation (got {} of {})",
        after.blocks_received(),
        30 - after.base_block
    );
    assert!(
        sys.take_violations().is_empty(),
        "{:?}",
        sys.take_violations()
    );
}

#[test]
fn seek_jumps_forward_and_back() {
    let mut sys = TigerSystem::new(quiet());
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_millis(50), client, file);
    // After ~8 s, jump to block 40 (fast-forward).
    let fwd = sys.request_seek(SimTime::from_secs(8), v, 40);
    // After ~10 more seconds, jump back to block 10 (rewind).
    let back = sys.request_seek(SimTime::from_secs(18), fwd, 10);
    sys.run_until(SimTime::from_secs(90));

    let clients = &sys.clients()[client as usize];
    let first = clients.viewer(&v).expect("original instance");
    let jumped = clients.viewer(&fwd).expect("fast-forward instance");
    let rewound = clients.viewer(&back).expect("rewind instance");
    assert!(first.stopped);
    assert!(jumped.stopped);
    assert_eq!(jumped.base_block, 40);
    assert!(jumped.blocks_received() >= 5, "fast-forward played");
    assert_eq!(rewound.base_block, 10);
    assert!(
        rewound.complete(),
        "rewound play should run to end of file: {} of {}",
        rewound.blocks_received(),
        60 - 10
    );
}

#[test]
fn resume_at_eof_is_a_noop() {
    let mut sys = TigerSystem::new(quiet());
    let file = sys.add_file(rate(), SimDuration::from_secs(8));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_millis(50), client, file);
    sys.run_until(SimTime::from_secs(15)); // plays to completion
    let resumed = sys.request_resume(SimTime::from_secs(16), v);
    sys.run_until(SimTime::from_secs(25));
    // high_water+1 == num_blocks: nothing to play, no new viewer appears.
    assert!(sys.clients()[client as usize].viewer(&resumed).is_none());
    assert_eq!(sys.controller().active_streams(), 0);
}

#[test]
fn a_stop_issued_before_its_start_lands_still_stops_the_stream() {
    // ROADMAP defect 1(d): each viewer is stopped 1 ms after its start, so
    // on the 2–10 ms LAN every stop is issued while its start is still on
    // the wire to the controller. Every one must still end its stream:
    // nothing left counted, and no block after the stop's delivery plus
    // one block play time.
    let cfg = quiet();
    let (bpt, worst) = (cfg.block_play_time, cfg.latency.worst_case());
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    let client = sys.add_client();
    let stopped: Vec<_> = (0..8u64)
        .map(|i| {
            let at = SimTime::from_millis(50 + i * 100);
            let v = sys.request_start(at, client, file);
            let stop = at + SimDuration::from_millis(1);
            sys.request_stop(stop, v);
            (v, stop + worst)
        })
        .collect();
    sys.run_until(SimTime::from_secs(30));
    assert_eq!(sys.controller().active_streams(), 0, "a stop was dropped");
    for (v, delivered_by) in stopped {
        let p = sys.clients()[client as usize]
            .viewer(&v)
            .expect("requested");
        let last = p
            .first_block_at
            .zip(p.high_water)
            .map(|(first, high)| first + bpt.mul_u64(u64::from(high - p.base_block)));
        assert!(
            last.is_none_or(|t| t <= delivered_by + bpt),
            "{v:?} played on to {last:?} after its stop"
        );
    }
    let violations = sys.take_violations();
    assert!(violations.is_empty(), "{violations:?}");
}
