//! Byte-level goldens for the cub's per-stream tables: the paths that
//! read or edit the active-service table, the shadow records, the
//! retired log and the held deschedules — VCR churn with deschedules
//! circulating, a power-cut with deschedules in flight and a takeover
//! promoting shadows, the two halves of a rejoin, and insertion under
//! ownership misses with the start disk's cub cut mid-queue — plus the
//! network fault paths: injected drops, delays and duplicates, traced
//! and delivered.
//!
//! Same discipline as `service_paths.rs` and `reconfig_paths.rs`: each
//! scenario is a small fixed-seed run whose *entire* observable output —
//! every trace line (so every `DeschedApply`'s `first` and `killed`,
//! every `DeschedExpire` and its order within a forward pass), the loss
//! ledger and the aggregate client report — is folded into one FNV-1a
//! digest and compared against a checked-in value produced before the
//! tables were indexed. A digest changes only when behaviour does;
//! regenerate by running with `-- --nocapture` and copying the printed
//! values.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_faults::FaultPlan;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{Bandwidth, RngTree, SimDuration, SimTime};
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
fn eight_cubs() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(8, 1, 2);
    cfg.num_clients = 8;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    cfg.seed = 1997;
    cfg
}

/// Starts `viewers` staggered plays alternating over two `secs`-long
/// files; returns `(client, instance)` in start order.
fn load(sys: &mut TigerSystem, viewers: u64, secs: u64) -> Vec<(u32, ViewerInstance)> {
    sys.enable_trace(TRACE_CAP);
    let rate = Bandwidth::from_mbit_per_sec(2);
    let files = [
        sys.add_file(rate, SimDuration::from_secs(secs)),
        sys.add_file(rate, SimDuration::from_secs(secs)),
    ];
    (0..viewers)
        .map(|i| {
            let client = sys.add_client();
            let at = SimTime::from_millis(100 + i * 400);
            (
                client,
                sys.request_start(at, client, files[(i % 2) as usize]),
            )
        })
        .collect()
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
fn vcr_churn_circulates_deschedules_twice_per_cub() {
    // Sixteen interactive sessions on eight cubs: every second or so one
    // of them pauses (and resumes five seconds on), seeks, or abandons
    // and is replaced by a fresh start. Every operation but the resume
    // circulates a deschedule, double-forwarded, so each cub applies it
    // once as a first sighting and once as a repeat.
    let mut sys = TigerSystem::new(eight_cubs());
    let mut live = load(&mut sys, 16, 300);
    let file = tiger_layout::FileId(0);
    let mut rng = RngTree::new(1997).fork("cub-paths-churn", 0);
    let mut t = SimTime::from_secs(12);
    for _ in 0..60 {
        let idx = rng.gen_range(0..live.len());
        let (client, victim) = live[idx];
        match rng.gen_range(0u32..3) {
            0 => {
                sys.request_pause(t, victim);
                let resumed = sys.request_resume(t + SimDuration::from_secs(5), victim);
                live[idx] = (client, resumed);
            }
            1 => {
                let to = rng.gen_range(0u32..200);
                live[idx] = (client, sys.request_seek(t, victim, to));
            }
            _ => {
                sys.request_stop(t, victim);
                let at = t + SimDuration::from_millis(50);
                live[idx] = (client, sys.request_start(at, client, file));
            }
        }
        t += SimDuration::from_millis(rng.gen_range(400u64..1_600));
    }
    sys.run_until(t + SimDuration::from_secs(30));
    let (records, digest) = finish(&sys, "vcr_churn_circulates_deschedules_twice_per_cub");
    let applied = |first: bool| {
        count(
            &records,
            |r| matches!(r.ev, TraceEvent::DeschedApply { first: f, .. } if f == first),
        )
    };
    println!("  first {}, repeat {}", applied(true), applied(false));
    assert!(applied(true) >= 60, "an operation circulated no deschedule");
    assert!(
        applied(false) >= applied(true) / 2,
        "deschedules were not sighted twice: {} first, {} repeat",
        applied(true),
        applied(false)
    );
    let kills = count(
        &records,
        |r| matches!(r.ev, TraceEvent::DeschedApply { killed, .. } if killed > 0),
    );
    assert!(kills > 0, "no deschedule killed an active service");
    let blocked = count(&records, |r| matches!(r.ev, TraceEvent::VsBlocked { .. }));
    let expired = count(&records, |r| {
        matches!(r.ev, TraceEvent::DeschedExpire { .. })
    });
    assert!(expired > 0, "no hold expiry was traced");
    println!("  kills {kills}, blocked {blocked}, expired {expired}");
    assert!(sys.take_violations().is_empty());
    assert_eq!(digest, 0xb8d6_b514_fdfa_12fe);
}

#[test]
fn power_cut_with_deschedules_in_flight_promotes_shadows() {
    // Five viewers stop within the 20 ms before cub 3 dies, so their
    // deschedules are between cubs when it goes, and three more inside
    // the detection window; the survivors circulate them across the
    // gap. Cub 4 then takes over, promoting the shadows it holds for cub
    // 3's disk — minus the ones a deschedule has just dropped. Five
    // more stop under mirror service, when a piece holder has the
    // primary of the viewer's next block in service beside the piece:
    // one deschedule, two victims.
    let mut sys = TigerSystem::new(eight_cubs());
    let live = load(&mut sys, 16, 120);
    let stop = |sys: &mut TigerSystem, at_ms: u64, i: usize| {
        sys.request_stop(SimTime::from_millis(at_ms), live[i].1);
    };
    for (n, i) in [0, 3, 6, 12, 15].into_iter().enumerate() {
        stop(&mut sys, 14_980 + 4 * n as u64, i);
    }
    sys.fail_cub_at(SimTime::from_secs(15), CubId(3));
    for (n, i) in [1, 5, 13].into_iter().enumerate() {
        stop(&mut sys, 15_400 + 300 * n as u64, i);
    }
    for (n, i) in [2, 4, 7, 8, 10].into_iter().enumerate() {
        stop(&mut sys, 20_000 + 700 * n as u64, i);
    }
    sys.run_until(SimTime::from_secs(60));
    let (records, digest) = finish(
        &sys,
        "power_cut_with_deschedules_in_flight_promotes_shadows",
    );
    let takeover_at = records
        .iter()
        .find(|r| r.cub == 4 && r.ev == TraceEvent::MirrorTakeover { failed_cub: 3 })
        .expect("cub 4 never took over")
        .at;
    let promoted = count(&records, |r| {
        r.cub == 4 && r.at == takeover_at && matches!(r.ev, TraceEvent::MirrorCreate { .. })
    });
    assert!(promoted > 0, "the takeover promoted no shadow");
    let in_gap = count(&records, |r| {
        matches!(r.ev, TraceEvent::DeschedApply { .. })
            && r.at >= SimTime::from_secs(15)
            && r.at < SimTime::from_millis(16_500)
    });
    assert!(in_gap > 0, "no deschedule was applied during the gap");
    println!("  promoted {promoted}, applied in the gap {in_gap}");
    let pairs = count(
        &records,
        |r| matches!(r.ev, TraceEvent::DeschedApply { killed, .. } if killed > 1),
    );
    assert!(
        pairs > 0,
        "no deschedule killed a piece and a primary at once"
    );
    assert_eq!(digest, 0x7c83_1f2a_15e8_9e51);
}

#[test]
fn rejoin_reads_shadows_and_the_retired_log() {
    // Three restarts. Cub 2 comes back after its declaration: covering
    // cub 3 opens its hand-back window and predecessor cub 1 replays the
    // tail of its retired log (`replay_retired_tail`). Cub 3 then dies inside the hand-back
    // window, so cub 4's takeover walks its shadows for records the
    // fresh rejoiner never saw, and cub 3's own return repeats both
    // halves against cub 4 and cub 2. Last, cub 6 blips for less than
    // the deadman timeout: nobody covered it, so only the replay runs —
    // against a log the forward pass has been pruning for a minute.
    // Stops around each restart keep deschedules held throughout.
    let mut sys = TigerSystem::new(eight_cubs());
    let live = load(&mut sys, 16, 150);
    sys.fail_cub_at(SimTime::from_secs(12), CubId(2));
    sys.request_stop(SimTime::from_millis(19_700), live[3].1);
    sys.restart_cub_at(SimTime::from_secs(20), CubId(2));
    sys.request_stop(SimTime::from_millis(20_300), live[7].1);
    sys.fail_cub_at(SimTime::from_millis(20_400), CubId(3));
    sys.restart_cub_at(SimTime::from_secs(40), CubId(3));
    sys.fail_cub_at(SimTime::from_secs(60), CubId(6));
    sys.restart_cub_at(SimTime::from_millis(60_600), CubId(6));
    sys.request_stop(SimTime::from_millis(60_700), live[11].1);
    sys.run_until(SimTime::from_secs(100));
    let (records, digest) = finish(&sys, "rejoin_reads_shadows_and_the_retired_log");
    let opens = count(&records, |r| {
        matches!(r.ev, TraceEvent::HandbackOpen { .. })
    });
    assert_eq!(opens, 2, "each declared failure ends in one hand-back");
    let replayed: Vec<u32> = records
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::RetiredReplay { count, .. } => Some(count),
            _ => None,
        })
        .collect();
    assert_eq!(replayed.len(), 3, "every restart draws one replay");
    assert!(
        replayed.iter().all(|&n| n > 0),
        "a replay carried no record: {replayed:?}"
    );
    for cub in [2, 3, 6] {
        assert_eq!(
            count(&records, |r| r.ev == TraceEvent::RejoinDone { cub }),
            1,
            "cub {cub} did not converge"
        );
    }
    assert_eq!(sys.all_clients_report().dup_blocks, 0);
    assert_eq!(digest, 0x7d01_2b5c_f068_5ae8);
}

#[test]
fn ownership_misses_queue_starts_across_a_power_cut() {
    // Twelve clients ask for the same file in the same instant, on top
    // of sixteen plays already running: every start is gated on the
    // file's start disk, whose pointer opens one ownership window per
    // block service time, so the queue drains a slot at a time and
    // misses wherever a running stream sits. Two of the twelve stop 20 ms
    // after asking — once the controller has routed their start (a stop
    // inside the 2–10 ms request latency finds no record and is dropped
    // as "never started") but seconds before it has a slot, so the
    // controller can only note `stop_wanted` and route the deschedule
    // when the commit arrives (the §4.1.3 stop/insert race). The start
    // disk's cub is cut with most of the queue still waiting: its
    // successor promotes the redundant copies it held and inserts
    // through `cover_failed_disk`, on the dead pointer's ownership
    // windows.
    let mut sys = TigerSystem::new(eight_cubs());
    load(&mut sys, 16, 120);
    let file = tiger_layout::FileId(0);
    let at = SimTime::from_secs(12);
    let burst: Vec<ViewerInstance> = (0..12)
        .map(|_| {
            let client = sys.add_client();
            sys.request_start(at, client, file)
        })
        .collect();
    let stopped = [burst[4], burst[9]];
    for inst in stopped {
        sys.request_stop(at + SimDuration::from_millis(20), inst);
    }
    // File 0 starts on disk 0, which is cub 0's.
    sys.fail_cub_at(SimTime::from_millis(12_700), CubId(0));
    sys.run_until(SimTime::from_secs(60));
    let (records, digest) = finish(&sys, "ownership_misses_queue_starts_across_a_power_cut");
    let in_burst = |viewer: u64| burst.iter().any(|i| i.viewer.raw() == viewer);
    let commits: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::InsertCommit { viewer, .. } if in_burst(viewer)))
        .collect();
    assert_eq!(commits.len(), 12, "every queued start found a slot");
    let windows = commits.windows(2).filter(|w| w[0].at < w[1].at).count() + 1;
    let misses = count(
        &records,
        |r| matches!(r.ev, TraceEvent::InsertMiss { viewer, disk: 0, .. } if in_burst(viewer)),
    );
    let by_home = commits.iter().filter(|r| r.cub == 0).count();
    let by_successor = commits.iter().filter(|r| r.cub == 1).count();
    println!("  misses {misses}, windows {windows}, home {by_home}, successor {by_successor}");
    assert_eq!(misses, 78, "starts that found their window's slot taken");
    assert_eq!(windows, 12, "one commit per ownership window");
    assert_eq!((by_home, by_successor), (5, 7));
    let takeover_at = records
        .iter()
        .find(|r| r.cub == 1 && r.ev == TraceEvent::MirrorTakeover { failed_cub: 0 })
        .expect("cub 1 never took over")
        .at;
    for r in commits.iter().filter(|r| r.cub == 1) {
        assert!(r.at >= takeover_at, "cub 1 inserted before it took over");
        let TraceEvent::InsertCommit { slot, viewer, .. } = r.ev else {
            unreachable!("filtered above");
        };
        let covered = TraceEvent::MirrorCreate {
            slot,
            viewer,
            inc: 0,
            failed_disk: 0,
        };
        assert!(
            records
                .iter()
                .any(|m| m.at == r.at && m.cub == 1 && m.ev == covered),
            "viewer {viewer} was not inserted through the mirror path"
        );
    }
    for inst in stopped {
        let viewer = inst.viewer.raw();
        let committed = commits
            .iter()
            .find(|r| matches!(r.ev, TraceEvent::InsertCommit { viewer: v, .. } if v == viewer))
            .expect("counted above")
            .at;
        let routed: Vec<SimTime> = records
            .iter()
            .filter(
                |r| matches!(r.ev, TraceEvent::CtrlRouteDesched { viewer: v, .. } if v == viewer),
            )
            .map(|r| r.at)
            .collect();
        assert_eq!(
            routed.len(),
            1,
            "viewer {viewer}: one deschedule, at commit"
        );
        assert!(routed[0] > committed && routed[0] < committed + SimDuration::from_millis(50));
        assert!(sys.controller().viewer(&inst).is_none(), "record freed");
    }
    assert!(sys.take_violations().is_empty());
    assert_eq!(digest, 0x1595_51c8_6091_5dea);
}

/// A quick chaos ring: the small test system, blip-free, half loaded
/// from four 320 s files with titles drawn from the `"chaos-files"` RNG
/// fork, with `plan` applied and run to 90 s. (`tiger_workload`'s
/// `Scenario::quick` has the same shape but draws its titles from the
/// §5 power cut's fork; this ring keeps its own so the pinned digests
/// stay put.)
fn half_loaded_small_ring(plan: &str) -> TigerSystem {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let seed = cfg.seed;
    let mut sys = TigerSystem::new(cfg);
    sys.enable_trace(TRACE_CAP);
    let rate = Bandwidth::from_mbit_per_sec(2);
    let files: Vec<_> = (0..4)
        .map(|_| sys.add_file(rate, SimDuration::from_secs(320)))
        .collect();
    let mut chooser = RngTree::new(seed).fork("chaos-files", 0);
    let want = (f64::from(sys.shared().params.capacity()) * 0.5).round() as u64;
    for i in 0..want {
        let client = sys.add_client();
        let file = files[chooser.gen_range(0..files.len())];
        sys.request_start(SimTime::from_millis(100 + 150 * i), client, file);
    }
    sys.apply_fault_plan(&FaultPlan::parse(plan).expect("plan parses"));
    sys.run_until(SimTime::from_secs(90));
    sys
}

#[test]
fn net_fault_paths() {
    // Injected drops, delays and duplicates, each traced on the sender's
    // lane and each duplicate delivered as a second `Deliver`: ten
    // seconds of loss, delay and echo windows around the controller (at
    // this load only cub 1's delays find traffic, its stream data among
    // it); a partition that splits the ring in two for three seconds;
    // and duplication everywhere with delays on every link. Client nodes
    // follow the controller and the four cubs.
    let plans = [
        (
            "lossy_control",
            "drop ctrl>* prob=0.2 from=30s until=40s\n\
             delay c1>* extra=5ms jitter=5ms from=30s until=40s\n\
             dup *>ctrl prob=0.2 from=30s until=40s\n",
            true,
            0xb740_780c_715c_20cd,
        ),
        (
            "partition",
            "partition c0,c1|c2,c3 from=30s heal=33s\n",
            false,
            0x23f1_1381_d568_f219,
        ),
        (
            "dup_and_delay_everywhere",
            "dup *>* prob=0.5 from=0s until=90s\n\
             delay *>* extra=3ms jitter=2ms from=10s until=60s\n",
            true,
            0xd766_49c2_84f1_a78f,
        ),
    ];
    for (name, plan, data_plane, want) in plans {
        let sys = half_loaded_small_ring(plan);
        let (records, digest) = finish(&sys, name);
        let drops = count(&records, |r| matches!(r.ev, TraceEvent::NetDrop { .. }));
        let delays = count(&records, |r| matches!(r.ev, TraceEvent::NetDelay { .. }));
        let dups = count(&records, |r| matches!(r.ev, TraceEvent::NetDup { .. }));
        let to_clients = count(
            &records,
            |r| matches!(r.ev, TraceEvent::NetDelay { dst, .. } if dst > 4),
        );
        println!("  drops {drops}, delays {delays} ({to_clients} to clients), dups {dups}");
        assert!(
            drops + delays + dups > 0,
            "{name}: the plan injected nothing"
        );
        assert_eq!(to_clients > 0, data_plane, "{name}: data-plane delays");
        assert_eq!(digest, want, "{name}");
    }
}
