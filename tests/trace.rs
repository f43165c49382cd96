//! Protocol-trace integration tests: deadman edge cases golden-tested
//! through the ring-buffer trace, trace transparency (a traced run is the
//! same run), and the property-failure auto-dump pipeline.
//!
//! Nothing here sets process environment variables — the suite runs
//! multithreaded, so tracing is switched on per-system with
//! [`TigerSystem::enable_trace`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use tiger::core::event::Event;
use tiger::core::{Message, TigerConfig, TigerSystem};
use tiger::layout::ids::ViewerInstance;
use tiger::layout::{BlockNum, CubId, ViewerId};
use tiger::sched::{Deschedule, SlotId, StreamKind, ViewerState};
use tiger::sim::{Bandwidth, SimDuration, SimTime};
use tiger::trace::{parse_dump, TraceEvent};

fn small() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg
}

fn traced_system() -> TigerSystem {
    let mut sys = TigerSystem::new(small());
    sys.enable_trace(16_384);
    sys
}

/// Event names recorded on `cub`, in order.
fn names_on(sys: &TigerSystem, cub: CubId) -> Vec<&'static str> {
    sys.tracer()
        .records()
        .iter()
        .filter(|r| r.cub == cub.raw())
        .map(|r| r.ev.name())
        .collect()
}

// --- Deadman edge cases (§2.3) ---------------------------------------------

/// A ping arriving exactly `deadman_timeout` ago is still alive: the
/// declaration threshold is strictly `silence > deadman_timeout`, so the
/// boundary instant must NOT declare a failure.
#[test]
fn ping_at_exactly_deadman_timeout_is_not_a_failure() {
    // Cub 1 hears cub 0's ping at t0 and checks `silence` later: one
    // system a check, since a check runs its chain's next one.
    let timeout = small().deadman_timeout;
    let check_after = |silence: SimDuration| {
        let mut sys = traced_system();
        let t0 = SimTime::from_secs(1);
        let ping = Message::DeadmanPing {
            from: CubId(0),
            life: 0,
        };
        sys.deliver(CubId(1), t0, ping);
        sys.with_cub_mut(CubId(1), t0 + silence, |cub, cx| {
            cub.on_event(cx, Event::DeadmanCheck { cub: cub.id });
        });
        sys
    };
    assert_eq!(
        names_on(&check_after(timeout), CubId(1)),
        Vec::<&str>::new(),
        "silence == timeout must stay silent in the trace"
    );

    // One nanosecond later the same check crosses the strict threshold.
    let sys = check_after(timeout + SimDuration::from_nanos(1));
    let records = sys.tracer().records();
    let declare = records
        .iter()
        .find_map(|r| match r.ev {
            TraceEvent::DeadmanDeclare { failed, silence_ns } => Some((failed, silence_ns)),
            _ => None,
        })
        .expect("one nanosecond past the timeout must declare");
    assert_eq!(declare.0, 0, "the silent predecessor is cub0");
    assert_eq!(
        declare.1,
        timeout.as_nanos() + 1,
        "declared silence is exactly timeout + 1ns"
    );
}

/// A failure notice racing a deschedule hold: whichever arrives first, the
/// hold survives and a late viewer state for the descheduled instance is
/// still blocked. Golden-tested as the exact per-cub trace sequence.
#[test]
fn failure_notice_racing_deschedule_hold() {
    let run = |notice_first: bool| {
        let mut sys = traced_system();
        let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(10));
        let loc = sys
            .world()
            .catalog
            .locate(film, BlockNum(0))
            .expect("block 0 exists");
        let target = loc.cub;
        // A cub whose failure target is *not* acting-successor-covered by
        // `target`, so the notice itself adds no takeover events.
        let far = CubId((target.raw() + 2) % sys.world().cfg.stripe.num_cubs);
        let instance = ViewerInstance {
            viewer: ViewerId(7),
            incarnation: 0,
        };
        let slot = SlotId(5);
        let vs = ViewerState {
            instance,
            client: 0,
            file: film,
            position: BlockNum(0),
            slot,
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        };
        let d = Deschedule { instance, slot };
        let t = SimTime::from_secs(1);
        let desched = Message::Deschedule {
            request: d,
            hops_left: 2,
        };
        let notice = Message::FailureNotice {
            failed: far,
            life: 0,
        };
        let (first, second) = if notice_first {
            (notice, desched)
        } else {
            (desched, notice)
        };
        sys.deliver(target, t, first);
        sys.deliver(target, t + SimDuration::from_millis(1), second);
        let state = Message::ViewerState(vs);
        sys.deliver(target, t + SimDuration::from_millis(2), state);
        (names_on(&sys, target), sys)
    };

    let (desched_first, sys_a) = run(false);
    let (notice_first, _sys_b) = run(true);
    assert_eq!(
        desched_first,
        vec!["desched-apply", "failure-notice", "vs-blocked"],
        "hold taken, then notice, then the late state bounces"
    );
    assert_eq!(
        notice_first,
        vec!["failure-notice", "desched-apply", "vs-blocked"],
        "notice first changes nothing: the hold still blocks the state"
    );

    // The golden detail: the hold was a first sighting that killed nothing,
    // and the block happened regardless of notice order.
    let apply = sys_a
        .tracer()
        .records()
        .into_iter()
        .find_map(|r| match r.ev {
            TraceEvent::DeschedApply {
                first,
                killed,
                hops_left,
                ..
            } => Some((first, killed, hops_left)),
            _ => None,
        })
        .expect("deschedule was applied");
    assert_eq!(apply, (true, 0, 2));
}

// --- Trace transparency -----------------------------------------------------

/// The tracer is a pure observer: the same scripted run with tracing on
/// and off produces identical metrics (the whole-run measurement state).
#[test]
fn tracing_does_not_change_the_run() {
    let scripted = |trace: bool| {
        let mut sys = TigerSystem::new(small());
        if trace {
            sys.enable_trace(8_192);
        }
        let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(15));
        let a = sys.add_client();
        let b = sys.add_client();
        let va = sys.request_start(SimTime::from_millis(50), a, film);
        let _vb = sys.request_start(SimTime::from_millis(450), b, film);
        sys.request_stop(SimTime::from_secs(5), va);
        sys.fail_cub_at(SimTime::from_secs(7), CubId(2));
        sys.run_until(SimTime::from_secs(12));
        sys
    };
    let plain = scripted(false);
    let traced = scripted(true);
    assert_eq!(
        plain.metrics(),
        traced.metrics(),
        "tracing must not perturb the simulation"
    );
    assert_eq!(plain.tracer().recorded(), 0);
    assert!(
        traced.tracer().recorded() > 100,
        "the scripted run covers a rich slice of the protocol: {}",
        traced.tracer().recorded()
    );
}

/// A dump is a lossless wire format: parsing it back yields the same
/// records the ring held.
#[test]
fn dump_round_trips_through_the_parser() {
    let mut sys = traced_system();
    let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(10));
    let c = sys.add_client();
    sys.request_start(SimTime::from_millis(50), c, film);
    sys.run_until(SimTime::from_secs(3));
    let records = sys.tracer().records();
    assert!(!records.is_empty());
    let dump = sys.tracer().dump().expect("tracer is on");
    let parsed = parse_dump(&dump).expect("own dump must parse");
    assert_eq!(parsed, records);
}

// --- Property-failure auto-dump (TIGER_PROP_REPLAY pipeline) ----------------

/// A failing property case dumps its ring-buffer trace to a file and names
/// the path in the failure report — the same pipeline a
/// `TIGER_PROP_REPLAY` run uses to hand the investigator a timeline.
#[test]
fn failing_property_dumps_its_trace() {
    tiger::trace::install_property_dump();
    let result = catch_unwind(AssertUnwindSafe(|| {
        tiger::sim::check::check_cases("trace-dump-vehicle", 1, |rng| {
            let mut sys = traced_system();
            let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(10));
            let c = sys.add_client();
            sys.request_start(SimTime::from_millis(rng.gen_range(10u64..100)), c, film);
            sys.run_until(SimTime::from_secs(2));
            assert!(
                sys.tracer().recorded() == 0,
                "deliberate failure to exercise the dump path"
            );
        });
    }));
    let payload = result.expect_err("the vehicle property always fails");
    let report = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(report.contains("TIGER_PROP_REPLAY"), "{report}");
    let path = report
        .lines()
        .find_map(|l| l.trim().strip_prefix("trace dumped to: "))
        .unwrap_or_else(|| panic!("report must name the dump file:\n{report}"));
    let text = std::fs::read_to_string(path).expect("dump file exists");
    let records = parse_dump(&text).expect("dump file parses");
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::InsertCommit { .. })),
        "the failing run's insert is in the dump"
    );
    std::fs::remove_file(path).ok();
}
