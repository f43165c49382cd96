//! Chaos-campaign integration tests: the property-harness hookup (a
//! failing chaos invariant auto-dumps its fault-annotated trace, and the
//! case seed reproduces the identical fault sequence), and fleet-level
//! bit-identity of chaos digests and traces across thread counts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tiger::bench::fleet::run_indexed;
use tiger::core::TigerConfig;
use tiger::faults::FaultPlan;
use tiger::sim::SimTime;
use tiger::trace::{parse_dump, TraceEvent};
use tiger::workload::{chaos_digest, run, Run, Scenario};

/// A plan the invariants deterministically reject on the small test
/// system: a power-domain cut taking two cubs at once. On 4 cubs with
/// decluster 2 every cub pair shares a mirror group, so the double
/// failure is beyond the design tolerance and the checker flags it.
fn violating_plan() -> FaultPlan {
    FaultPlan::parse("power-domain c1,c2 at=30s").expect("plan parses")
}

fn trace(r: &Run) -> String {
    r.sys.tracer().dump().expect("every run is traced")
}

/// A failing chaos invariant rides the existing `tiger_sim::check`
/// failure hook: the campaign's ring-buffer trace — fault injections
/// inline with the protocol's reactions — is dumped to a file named in
/// the failure report, next to the `TIGER_PROP_REPLAY` seed that
/// reproduces the identical fault sequence.
#[test]
fn failing_chaos_invariant_dumps_its_fault_trace() {
    tiger::trace::install_property_dump();
    let result = catch_unwind(AssertUnwindSafe(|| {
        tiger::sim::check::check_cases("chaos-invariant-vehicle", 1, |rng| {
            let mut s = Scenario::quick(TigerConfig::small_test(), violating_plan());
            s.tiger.seed = rng.gen_range(1u64..1 << 20);
            let r = run(&s);
            assert!(
                r.violations.is_empty(),
                "beyond-tolerance plan must violate: {:?}",
                r.violations
            );
        });
    }));
    let payload = result.expect_err("the double failure always violates");
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
    let cut: Vec<u32> = records
        .iter()
        .filter_map(|r| match r.ev {
            TraceEvent::PowerCut { cub } => Some(cub),
            _ => None,
        })
        .collect();
    assert_eq!(
        cut,
        vec![1, 2],
        "both correlated power cuts are in the dump, in order"
    );
    std::fs::remove_file(path).ok();
}

/// The case seed is the whole story: re-running a chaos campaign with
/// the same plan and seed reproduces the injection sequence, metrics,
/// and trace bit for bit — which is what makes a `TIGER_PROP_REPLAY`
/// run show the investigator the exact failing timeline.
#[test]
fn same_seed_reproduces_the_identical_fault_sequence() {
    let plan = FaultPlan::parse(
        "drop c1>* prob=0.3 from=10s until=25s\n\
         disk-transient c2:0 prob=0.5 from=15s until=30s\n\
         crash c3 at=35s",
    )
    .expect("plan parses");
    let mut s = Scenario::quick(TigerConfig::small_test(), plan);
    s.tiger.seed = 0xC0FFEE;
    s.run_to = SimTime::from_secs(60);
    let (a, b) = (run(&s), run(&s));
    assert_eq!(chaos_digest(&a), chaos_digest(&b));
    let trace_a = trace(&a);
    assert_eq!(
        trace_a,
        trace(&b),
        "fault sequence must replay bit-identically"
    );
    assert!(trace_a.contains("net-drop"), "probabilistic drops fired");
    assert!(trace_a.contains("disk-transient"), "disk faults fired");
}

/// Chaos campaigns shard through the fleet like any other job: the same
/// sweep at 1 and 2 threads yields byte-identical digests and traces.
#[test]
fn chaos_digests_are_fleet_thread_invariant() {
    let plans = ["crash c1 at=30s", "freeze c2 from=30s until=31s"];
    let sweep = |threads: usize| {
        run_indexed(plans.len(), threads, |i| {
            let plan = FaultPlan::parse(plans[i]).expect("plan parses");
            let mut s = Scenario::quick(TigerConfig::small_test(), plan);
            s.run_to = SimTime::from_secs(50);
            let r = run(&s);
            (chaos_digest(&r), trace(&r))
        })
    };
    assert_eq!(sweep(1), sweep(2), "thread count must be invisible");
}

/// The plan-free fast path: a run with an empty plan is just a traced
/// workload — no injections, no declarations, no violations.
#[test]
fn empty_plan_chaos_run_is_clean() {
    let mut s = Scenario::quick(TigerConfig::small_test(), FaultPlan::new());
    s.run_to = SimTime::from_secs(40);
    let r = run(&s);
    assert!(r.declares().is_empty(), "{:?}", r.declares());
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.sys.all_clients_report().dup_blocks, 0);
    assert!(chaos_digest(&r).contains("  transient 0  "));
    assert_eq!(r.loss_window_secs(), 0.0);
}
