//! Fault-subsystem integration tests: the deadman/stall boundary golden-
//! tested with and without a concurrent partition, empty-plan
//! transparency (a plan-free run is byte-identical to one with an empty
//! plan applied), and the §5 power-cut experiment expressed as a fault
//! plan reproducing the direct `fail_cub_at` results exactly.

use tiger::core::event::Event;
use tiger::core::{Message, TigerConfig, TigerSystem};
use tiger::faults::FaultPlan;
use tiger::layout::CubId;
use tiger::sim::{Bandwidth, SimDuration, SimTime};
use tiger::trace::TraceEvent;
use tiger::workload::{populate_catalog, CatalogSpec, Demand, Run};

fn small() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg
}

// --- Deadman/stall boundary (§2.3) ------------------------------------------

/// Drives the monitor cub through a stall of exactly `stall` observed
/// silence and returns the deadman declarations it recorded. When
/// `partitioned`, a network partition separating the monitor's half of
/// the ring is live for the whole window — the declaration boundary must
/// not move, because the deadman decision is local (the partition can
/// only affect how the resulting notice propagates, never whether the
/// silence is judged fatal).
fn stall_declares(stall: SimDuration, partitioned: bool) -> Vec<(u32, u64)> {
    let mut sys = TigerSystem::new(small());
    sys.enable_trace(16_384);
    if partitioned {
        let plan = FaultPlan::parse("partition c0,c1|c2,c3 from=0s heal=60s");
        sys.apply_fault_plan(&plan.expect("plan parses"));
    }
    // Cub1 hears its predecessor at t0; the predecessor then stalls for
    // `stall`, so the deadman check that ends the stall sees silence of
    // exactly that length.
    let t0 = SimTime::from_secs(1);
    sys.with_cub_mut(CubId(1), |cub, sh| {
        let (dst, msg) = (sh.cub_node(cub.id), Message::DeadmanPing { from: CubId(0) });
        cub.on_event(sh, t0, Event::Deliver { dst, msg });
        cub.on_event(sh, t0 + stall, Event::DeadmanCheck { cub: cub.id });
    });
    sys.tracer()
        .records()
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::DeadmanDeclare { failed, silence_ns } => Some((failed, silence_ns)),
            _ => None,
        })
        .collect()
}

/// A cub silent for exactly the deadman timeout is still alive (the
/// threshold is strictly `silence > timeout`); one nanosecond longer is
/// dead. Golden on the declared silence, with and without a concurrent
/// partition.
#[test]
fn stall_of_exactly_the_deadman_timeout_is_the_boundary() {
    let timeout = small().deadman_timeout;
    let tick = SimDuration::from_nanos(1);
    for partitioned in [false, true] {
        assert_eq!(
            stall_declares(timeout, partitioned),
            vec![],
            "silence == timeout must not declare (partitioned: {partitioned})"
        );
        assert_eq!(
            stall_declares(timeout + tick, partitioned),
            vec![(0, timeout.as_nanos() + 1)],
            "one tick past the timeout must declare the predecessor \
             with silence timeout+1ns (partitioned: {partitioned})"
        );
    }
}

/// The same boundary through the event loop and the fault plan: a freeze
/// short enough that worst-case observed silence (stall + ping interval +
/// delivery latency) stays under the timeout produces no declaration; a
/// freeze well past the timeout is declared. Run with and without a
/// concurrent partition on the far side of the ring.
#[test]
fn plan_driven_freeze_respects_the_deadman_boundary() {
    let run = |freeze: SimDuration, partitioned: bool| {
        let mut sys = TigerSystem::new(small());
        sys.enable_trace(32_768);
        let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(30));
        let c = sys.add_client();
        sys.request_start(SimTime::from_millis(50), c, film);
        let resume = SimTime::from_secs(5) + freeze;
        let mut plan = format!("freeze c1 from=5s until={}ns\n", resume.as_nanos());
        if partitioned {
            // A partition that never separates cub1 from its monitor:
            // clients on one side, the whole ring on the other.
            plan += "partition client2,client3|c0,c1,c2,c3 from=4s heal=12s\n";
        }
        sys.apply_fault_plan(&FaultPlan::parse(&plan).expect("plan parses"));
        sys.run_until(SimTime::from_secs(15));
        sys.tracer()
            .records()
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::DeadmanDeclare { .. }))
            .count()
    };
    let cfg = small();
    let blip = cfg
        .deadman_timeout
        .saturating_sub(cfg.deadman_interval + cfg.latency.worst_case() * 4);
    for partitioned in [false, true] {
        assert_eq!(
            run(blip, partitioned),
            0,
            "a sub-timeout blip must pass unnoticed (partitioned: {partitioned})"
        );
        assert!(
            run(cfg.deadman_timeout * 3, partitioned) >= 1,
            "a stall of 3x the timeout must be declared (partitioned: {partitioned})"
        );
    }
}

// --- Empty-plan transparency -------------------------------------------------

/// Applying an empty fault plan is free: metrics and the full protocol
/// trace are byte-identical to a run that never touched the fault layer.
/// This is the integration-level face of the acceptance criterion that
/// the no-faults hot path stays a single null-pointer test.
#[test]
fn empty_plan_leaves_the_run_byte_identical() {
    let scripted = |with_empty_plan: bool| {
        let mut sys = TigerSystem::new(small());
        sys.enable_trace(32_768);
        let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(15));
        let a = sys.add_client();
        let b = sys.add_client();
        let va = sys.request_start(SimTime::from_millis(50), a, film);
        let _vb = sys.request_start(SimTime::from_millis(450), b, film);
        if with_empty_plan {
            let plan = FaultPlan::new();
            assert!(plan.is_empty());
            sys.apply_fault_plan(&plan);
        }
        sys.request_stop(SimTime::from_secs(5), va);
        sys.fail_cub_at(SimTime::from_secs(7), CubId(2));
        sys.run_until(SimTime::from_secs(12));
        (sys.metrics().clone(), sys.tracer().dump().expect("traced"))
    };
    let (plain_metrics, plain_trace) = scripted(false);
    let (planned_metrics, planned_trace) = scripted(true);
    assert_eq!(plain_metrics, planned_metrics, "metrics must not move");
    assert_eq!(plain_trace, planned_trace, "trace must be byte-identical");
}

// --- §5 equivalence ----------------------------------------------------------

/// The paper's power-cut experiment re-expressed as a declarative fault
/// plan (`crash c<victim> at=<cut>`) is the direct `fail_cub_at` run
/// exactly — same metrics, same client report, same ledger of lost
/// blocks. This pins the fault subsystem to the §5 reconfiguration
/// measurement.
#[test]
fn crash_plan_reproduces_the_power_cut_experiment() {
    let cut = SimTime::from_secs(30);
    let power_cut = |planned: bool| {
        let mut sys = TigerSystem::new(small());
        let catalog = CatalogSpec::sized_for(SimDuration::from_secs(200), 4);
        let files = populate_catalog(&mut sys, &catalog);
        let drive = Demand::half_load(&small()).drive(&mut sys, &files);
        if planned {
            let plan = FaultPlan::parse("crash c1 at=30s").expect("crash plan parses");
            sys.apply_fault_plan(&plan);
        } else {
            sys.fail_cub_at(cut, CubId(1));
        }
        sys.run_until(cut + SimDuration::from_secs(60));
        let r = Run {
            sys,
            drive,
            violations: Vec::new(),
        };
        let mut lost: Vec<_> = r.lost_blocks().collect();
        lost.sort_by_key(|&(vi, b, _)| (vi, b));
        let report = r.sys.all_clients_report();
        (
            (r.sys.metrics().clone(), report, lost),
            r.loss_window_secs(),
        )
    };
    let (direct, window) = power_cut(false);
    let (planned, _) = power_cut(true);
    assert_eq!(
        direct, planned,
        "the two failure paths must be one experiment"
    );
    assert!(!direct.2.is_empty(), "the cut must cost blocks");
    assert!(window < 10.0, "loss window {window} out of the §5 ballpark");
}
