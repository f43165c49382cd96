//! End-to-end protocol tests on small Tiger systems.
//!
//! These run the full distributed machinery — controller routing, ownership
//! insertion, ring forwarding, deschedules, deadman detection, mirror
//! takeover — and check both client-observable behaviour and the
//! omniscient hallucination checker (every cub action must be one the
//! never-materialized global schedule would permit).

use tiger_core::{ForwardingPolicy, TigerConfig, TigerSystem};
use tiger_layout::CubId;
use tiger_sim::{Bandwidth, SimDuration, SimTime};

fn quiet_config() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg
}

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn single_viewer_plays_to_completion() {
    let mut sys = TigerSystem::new(quiet_config());
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(12));
    let client = sys.add_client();
    sys.request_start(SimTime::from_millis(50), client, file);
    sys.run_until(SimTime::from_secs(30));
    let report = sys.client_report(client);
    assert_eq!(report.completed_viewers, 1);
    assert_eq!(report.blocks_missing, 0);
    assert!(sys.take_violations().is_empty());
    // EOF released the stream slot at the controller.
    assert_eq!(sys.controller().active_streams(), 0);
}

#[test]
fn staggered_viewers_all_complete() {
    let mut sys = TigerSystem::new(quiet_config());
    sys.enable_omniscient();
    let files: Vec<_> = (0..4)
        .map(|_| sys.add_file(rate(), SimDuration::from_secs(20)))
        .collect();
    for i in 0..16u64 {
        let client = sys.add_client();
        sys.request_start(
            SimTime::from_millis(100 + i * 730),
            client,
            files[(i % 4) as usize],
        );
    }
    sys.run_until(SimTime::from_secs(60));
    let report = sys.all_clients_report();
    assert_eq!(report.completed_viewers, 16, "{report:?}");
    assert_eq!(report.blocks_missing, 0);
    assert_eq!(report.never_started, 0);
    assert!(
        sys.take_violations().is_empty(),
        "{:?}",
        sys.take_violations()
    );
    assert_eq!(sys.metrics().loss.server_missed, 0);
}

#[test]
fn blocks_arrive_equitemporally() {
    // Once started, a viewer receives one block per block play time; the
    // schedule guarantees the spacing.
    let mut sys = TigerSystem::new(quiet_config());
    let file = sys.add_file(rate(), SimDuration::from_secs(10));
    let client = sys.add_client();
    let instance = sys.request_start(SimTime::from_millis(50), client, file);
    sys.run_until(SimTime::from_secs(20));
    let v = sys.clients()[client as usize]
        .viewer(&instance)
        .expect("viewer exists");
    assert!(v.complete());
    // First block took the startup path; transmission is paced over one
    // block play time, so latency is at least 1 s plus scheduling lead.
    let latency = v.start_latency_secs().expect("started");
    assert!(latency >= 1.0, "startup latency {latency}");
    assert!(latency < 6.0, "startup latency {latency} too high at idle");
}

#[test]
fn deschedule_stops_delivery_and_frees_slot() {
    let mut sys = TigerSystem::new(quiet_config());
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    let client = sys.add_client();
    let instance = sys.request_start(SimTime::from_millis(50), client, file);
    sys.request_stop(SimTime::from_secs(10), instance);
    sys.run_until(SimTime::from_secs(40));
    let v = sys.clients()[client as usize]
        .viewer(&instance)
        .expect("viewer exists");
    assert!(v.stopped);
    // Delivery ceased shortly after the stop: far fewer than 35 blocks.
    let got = v.blocks_received();
    assert!((5..=16).contains(&got), "received {got} blocks");
    assert_eq!(v.blocks_missing(), 0, "no gaps before the stop");
    assert_eq!(sys.controller().active_streams(), 0);
    assert!(sys.take_violations().is_empty());

    // The freed slot is reusable: a new viewer starts fine.
    let c2 = sys.add_client();
    sys.request_start(SimTime::from_secs(41), c2, file);
    sys.run_until(SimTime::from_secs(50));
    assert_eq!(sys.controller().active_streams(), 1);
}

#[test]
fn capacity_is_never_exceeded() {
    let mut sys = TigerSystem::new(quiet_config());
    sys.enable_omniscient();
    let capacity = sys.shared().params.capacity();
    let file = sys.add_file(rate(), SimDuration::from_secs(300));
    for i in 0..u64::from(capacity) + 10 {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * 40), client, file);
    }
    sys.run_until(SimTime::from_secs(90));
    let active = sys.controller().active_streams();
    assert!(active <= capacity, "{active} > capacity {capacity}");
    // The system actually fills up (ownership scanning finds the slots).
    assert!(
        active >= capacity - 1,
        "only {active} of {capacity} started"
    );
    assert!(
        sys.take_violations().is_empty(),
        "{:?}",
        sys.take_violations()
    );
}

#[test]
fn startup_latency_grows_with_load() {
    let mut sys = TigerSystem::new(quiet_config());
    let file = sys.add_file(rate(), SimDuration::from_secs(600));
    let capacity = u64::from(sys.shared().params.capacity());
    // Fill ~90% of the schedule.
    let fill = capacity * 9 / 10;
    for i in 0..fill {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * 120), client, file);
    }
    // A late request must wait for a free owned slot.
    let c = sys.add_client();
    let late = sys.request_start(SimTime::from_secs(80), c, file);
    sys.run_until(SimTime::from_secs(120));
    let samples = &sys.metrics().start_latencies;
    let idle_mean = {
        let lows: Vec<f64> = samples
            .iter()
            .filter(|(l, _)| *l < 0.3)
            .map(|&(_, s)| s)
            .collect();
        lows.iter().sum::<f64>() / lows.len() as f64
    };
    let late_latency = sys.clients()[c as usize]
        .viewer(&late)
        .and_then(|v| v.start_latency_secs())
        .expect("late viewer started");
    assert!(
        late_latency >= idle_mean,
        "late start {late_latency:.2}s should not beat idle mean {idle_mean:.2}s"
    );
}

#[test]
fn cub_failure_mirrors_take_over() {
    let mut cfg = quiet_config();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    let file = sys.add_file(rate(), SimDuration::from_secs(90));
    let mut viewers = Vec::new();
    for i in 0..8u64 {
        let client = sys.add_client();
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 500), client, file),
        ));
    }
    // Let the system reach steady state, then cut a cub's power.
    sys.fail_cub_at(SimTime::from_secs(20), CubId(2));
    sys.run_until(SimTime::from_secs(110));

    // Detection happened and was recorded.
    assert!(
        !sys.metrics().failure_detections.is_empty(),
        "deadman never fired"
    );
    let (detected_at, failed) = sys.metrics().failure_detections[0];
    assert_eq!(failed, 2);
    let detection_delay = detected_at.saturating_since(SimTime::from_secs(20));
    assert!(
        detection_delay.as_secs_f64() < 4.0,
        "detection took {detection_delay}"
    );

    // Viewers kept playing: losses are confined to the detection window.
    // With a ~1.5 s timeout each viewer misses at most a few blocks out of
    // 90 (the §5 power-cut experiment measured an ~8 s window with a longer
    // timeout).
    for (client, instance) in &viewers {
        let v = sys.clients()[*client as usize]
            .viewer(instance)
            .expect("viewer exists");
        let missing = v.blocks_missing();
        assert!(
            missing <= 10,
            "viewer lost {missing} blocks; takeover failed"
        );
        assert!(
            v.blocks_received() >= 75,
            "viewer only got {} blocks",
            v.blocks_received()
        );
    }
}

#[test]
fn double_forwarding_preserves_schedule_across_failure() {
    // The §4.1.1 design argument: with single forwarding, the records in
    // flight to (and buffered on) a failed cub are lost outright, and
    // without the "go back … and recreate it" machinery the affected
    // streams starve permanently. With double forwarding another cub
    // always has them, no recovery pass needed.
    let run = |policy: ForwardingPolicy, recovery: bool| -> (u64, u64) {
        let mut cfg = quiet_config();
        cfg.forwarding = policy;
        cfg.gap_recovery = recovery;
        cfg.deadman_timeout = SimDuration::from_millis(1_500);
        let mut sys = TigerSystem::new(cfg);
        let file = sys.add_file(rate(), SimDuration::from_secs(60));
        for i in 0..8u64 {
            let client = sys.add_client();
            sys.request_start(SimTime::from_millis(100 + i * 500), client, file);
        }
        sys.fail_cub_at(SimTime::from_secs(15), CubId(1));
        sys.run_until(SimTime::from_secs(80));
        let report = sys.all_clients_report();
        let starved: u64 = sys
            .clients()
            .iter()
            .flat_map(|c| c.viewers())
            .map(|(_, v)| u64::from(v.tail_missing()))
            .sum();
        (report.blocks_missing, starved)
    };
    // Single forwarding without recovery: streams whose record died with
    // the cub starve for good.
    let (_, single_starved) = run(ForwardingPolicy::Single, false);
    assert!(
        single_starved > 50,
        "single forwarding without go-back recovery must starve streams; starved {single_starved}"
    );
    // Double forwarding never needs the recovery pass.
    let (double_missing, double_starved) = run(ForwardingPolicy::Double, false);
    assert_eq!(double_starved, 0, "double forwarding must not starve");
    assert!(
        double_missing <= 16,
        "double-forwarding losses stay in the window"
    );
}

#[test]
fn deterministic_runs_are_identical() {
    let run = || {
        let mut sys = TigerSystem::new(quiet_config());
        let file = sys.add_file(rate(), SimDuration::from_secs(30));
        for i in 0..6u64 {
            let client = sys.add_client();
            sys.request_start(SimTime::from_millis(100 + i * 700), client, file);
        }
        sys.run_until(SimTime::from_secs(50));
        let r = sys.all_clients_report();
        (
            r.blocks_received,
            r.blocks_missing,
            sys.metrics().loss.blocks_sent,
            sys.metrics()
                .start_latencies
                .iter()
                .map(|&(_, l)| (l * 1e9) as u64)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run(), "same seed must give identical runs");
}

#[test]
fn seeds_change_latency_details_not_correctness() {
    let run = |seed: u64| {
        let mut cfg = quiet_config();
        cfg.seed = seed;
        let mut sys = TigerSystem::new(cfg);
        let file = sys.add_file(rate(), SimDuration::from_secs(20));
        for i in 0..4u64 {
            let client = sys.add_client();
            sys.request_start(SimTime::from_millis(100 + i * 900), client, file);
        }
        sys.run_until(SimTime::from_secs(40));
        sys.all_clients_report()
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a.completed_viewers, 4);
    assert_eq!(b.completed_viewers, 4);
    assert_eq!(a.blocks_missing, 0);
    assert_eq!(b.blocks_missing, 0);
}

#[test]
fn control_traffic_is_bounded_per_cub() {
    let mut sys = TigerSystem::new(quiet_config());
    let file = sys.add_file(rate(), SimDuration::from_secs(120));
    for i in 0..20u64 {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * 200), client, file);
    }
    sys.run_until(SimTime::from_secs(30));
    // Settle, then measure a window.
    let t0 = sys.now();
    sys.sample_window(t0, CubId(0), None);
    sys.run_until(t0 + SimDuration::from_secs(20));
    let sample = sys.sample_window(t0 + SimDuration::from_secs(20), CubId(0), None);
    // 20 streams over 4 cubs: each cub forwards ~5 viewer states/s twice,
    // plus pings. Well under a few KB/s (the paper saw <21 KB/s at 602
    // streams over 14 cubs).
    assert!(
        sample.control_bytes_per_sec > 100.0,
        "implausibly low control traffic: {}",
        sample.control_bytes_per_sec
    );
    assert!(
        sample.control_bytes_per_sec < 10_000.0,
        "control traffic blew up: {} B/s",
        sample.control_bytes_per_sec
    );
    assert_eq!(sample.streams, 20);
}

/// `sosp97` with disk blips off and a start queued for every slot of the
/// schedule, one each 100 ms: full load from about t = 61 s. Viewer `i`
/// starts `7 i mod 191` blocks into the one file, so that neighbours in
/// the schedule do not share their reads (from block 0 they would, one
/// read in eight, and a shared read holds no buffer).
fn sosp97_filling_to_capacity() -> (TigerSystem, u32) {
    let mut cfg = TigerConfig::sosp97();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    let capacity = sys.shared().params.capacity();
    let file = sys.add_file(rate(), SimDuration::from_secs(400));
    for i in 0..u64::from(capacity) {
        let client = sys.add_client();
        let at = SimTime::from_millis(100 + i * 100);
        sys.request_start_at(at, client, file, (i * 7 % 191) as u32);
    }
    (sys, capacity)
}

#[test]
fn full_load_never_regrows_the_event_queue() {
    // `TigerSystem::new` sizes the queue from `max_vstate_lead`; at the
    // paper's scale and full load (≈17.6 pending events a stream) that
    // must cover the ramp and the steady state both.
    let (mut sys, capacity) = sosp97_filling_to_capacity();
    let built = sys.shared().queue.capacity();
    sys.run_until(SimTime::from_secs(100));
    let active = sys.controller().active_streams();
    assert!(active >= capacity * 97 / 100, "only {active} streaming");
    assert_eq!(sys.shared().queue.capacity(), built, "regrew while warming");
    sys.run_until(SimTime::from_secs(200));
    assert_eq!(sys.shared().queue.capacity(), built, "regrew at full load");
    assert!(sys.shared().queue.len() > capacity as usize * 17);
}

#[test]
fn full_load_dispatches_what_a_block_needs() {
    // Events dispatched per block sent over 100 s of full load: a count,
    // exactly repeatable. A block's own life is a `ReadIssue`, a
    // `DiskDone`, a `SendDue`, a `SendDone` and the client's `Deliver`,
    // plus its share of the control traffic and the periodic work, the
    // cub's `PoolFloor` timer among it. Measured here: 323,881 events for
    // 60,186 blocks, 5.38 a block. (While a read that found the buffer
    // pool full re-polled every 50 ms it was 823,248 and 13.68; with one
    // floor event for each such read, 378,068 and 6.28.)
    let (mut sys, _) = sosp97_filling_to_capacity();
    let counts = |sys: &TigerSystem| {
        let reads: u64 = sys
            .events_dispatched_by_kind()
            .filter(|(kind, _)| ["ReadIssue", "PoolFloor"].contains(kind))
            .map(|(_, n)| n)
            .sum();
        let all = sys.shared().queue.dispatched();
        (all, reads, sys.metrics().loss.blocks_sent)
    };
    sys.run_until(SimTime::from_secs(100));
    let open = counts(&sys);
    sys.run_until(SimTime::from_secs(200));
    let close = counts(&sys);
    let blocks = (close.2 - open.2) as f64;
    let (events, reads) = (close.0 - open.0, close.1 - open.1);
    assert!(
        (events as f64) < 6.0 * blocks,
        "{events} events for {blocks} blocks: {:.2} a block",
        events as f64 / blocks
    );
    assert!(
        (reads as f64) < 1.2 * blocks,
        "{reads} ReadIssue and PoolFloor events for {blocks} blocks"
    );
}

/// The wire decoder parses any `u32` slot, and a cub's schedule
/// information is indexed by slot: a viewer state or a deschedule naming
/// one past the schedule's capacity is refused on receipt, one traced drop
/// each, and changes nothing the cub holds.
#[test]
fn a_slot_past_capacity_is_refused_as_a_traced_drop() {
    use tiger_core::event::Event;
    use tiger_core::Message;
    use tiger_layout::BlockNum;
    use tiger_sched::{Deschedule, SlotId, StreamKind, ViewerState};
    use tiger_trace::TraceEvent;

    let mut sys = TigerSystem::new(quiet_config());
    sys.enable_trace(1 << 14);
    let file = sys.add_file(rate(), SimDuration::from_secs(30));
    let client = sys.add_client();
    let instance = sys.request_start(SimTime::from_millis(50), client, file);
    sys.run_until(SimTime::from_secs(5));
    let vs = ViewerState {
        instance,
        client: sys.shared().client_node(0).0,
        file,
        position: BlockNum(3),
        slot: SlotId(u32::MAX),
        play_seq: 3,
        bitrate: rate(),
        kind: StreamKind::Primary,
    };
    let refused = |sys: &TigerSystem| {
        let records = sys.tracer().records();
        let refused =
            |ev: &TraceEvent| matches!(ev, TraceEvent::SlotRefused { slot: u32::MAX, .. });
        records.iter().filter(|r| refused(&r.ev)).count()
    };
    let deschedule = Message::Deschedule {
        request: Deschedule::of(&vs),
        hops_left: 2,
    };
    for (sent, msg) in [Message::ViewerState(vs), deschedule]
        .into_iter()
        .enumerate()
    {
        let held = sys.cubs()[0].schedule_information_held();
        assert!(held > 0, "the cub holds the stream's records");
        sys.with_cub_mut(CubId(0), |cub, sh| {
            let (now, dst) = (sh.queue.now(), sh.cub_node(cub.id));
            cub.on_event(sh, now, Event::Deliver { dst, msg });
        });
        assert_eq!(sys.cubs()[0].schedule_information_held(), held);
        assert_eq!(refused(&sys), sent + 1, "one traced drop a message");
    }
}
