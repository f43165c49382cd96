//! Self-tests of the harness (run by `benchmark/run.sh`, not by the root
//! tier-1 gate, which must not notice this directory).

use std::time::Instant;

use tiger_core::TigerConfig;
use tiger_perf::json::Json;
use tiger_perf::measure::{close_window, open_window, run_window, sim_outcome, Sampled};
use tiger_perf::refclock::RefClock;
use tiger_perf::report::verdict;
use tiger_perf::spec::{self, Better, EndToEndSpec, CLUSTER_KINDS, END_TO_END, WORKLOADS};
use tiger_perf::stats::{median, quantile, quantile_sorted, quartile_spread};
use tiger_perf::trace::run_window_traced;
use tiger_perf::workloads::{plan, prepare, Demand, Observe, RunPlan};
use tiger_sim::{SimDuration, SimTime};
use tiger_workload::CatalogSpec;

#[test]
fn order_statistics_match_hand_computed_values() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&v), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&v, 1.0), 5.0);
    assert_eq!(quantile(&v, 0.25), 2.0);
    // Rank 0.95 * 4 = 3.8: four fifths of the way from 4 to 5.
    assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
    assert_eq!(quantile_sorted(&[7.0], 0.75), 7.0);

    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
    assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5].
    assert!((quartile_spread(&[3.0, 1.0]) - 3.0 / 2.0).abs() < 1e-12);
}

#[test]
fn json_round_trips_what_the_harness_writes() {
    let doc = Json::obj([
        ("name", Json::str("a \"quoted\"\tname\n")),
        (
            "values",
            Json::Arr(vec![Json::Num(1.0), Json::Num(-0.125), Json::Num(1.0e-9)]),
        ),
        ("ok", Json::Bool(true)),
        ("none", Json::Null),
        ("nested", Json::obj([("k", Json::Num(2409.0))])),
    ]);
    assert_eq!(Json::parse(&doc.to_line()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    assert!(!doc.to_line().contains('\n'));
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1, 2] x").is_err());
}

#[test]
fn verdicts_apply_the_bound_in_the_metrics_direction() {
    let spec = |better, exact| EndToEndSpec {
        name: "m",
        unit: "u",
        better,
        bound: 0.10,
        exact,
    };
    let rate = spec(Better::Higher, false);
    assert_eq!(verdict(&rate, 100.0, 100.0, 0.5), "same");
    assert_eq!(verdict(&rate, 100.0, 95.0, 0.02), "same");
    assert_eq!(verdict(&rate, 100.0, 85.0, 0.02), "worse");
    assert_eq!(verdict(&rate, 100.0, 115.0, 0.02), "better");
    assert_eq!(verdict(&rate, 100.0, 85.0, 0.2), "unresolved");
    let cost = spec(Better::Lower, false);
    assert_eq!(verdict(&cost, 1.0, 1.3, 0.0), "worse");
    assert_eq!(verdict(&cost, 1.0, 0.7, 0.0), "better");
    // Exact metrics never read "unresolved".
    let exact = spec(Better::Lower, true);
    assert_eq!(verdict(&exact, 1.69, 1.70, 9.0), "same");
    assert_eq!(verdict(&exact, 1.0, 1.2, 9.0), "worse");
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `perf --list` and `BENCHMARK.json` name the same workloads and metrics
/// with the same unit, direction and bound, inside the contract's limits.
#[test]
fn list_equals_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(tiger_perf::workloads::BASE_SECONDS)
    );

    let mut listed = String::new();
    let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap().to_string();
    for w in file.get("workloads").unwrap().as_arr().unwrap() {
        assert_eq!(w.as_obj().unwrap().len(), 2);
        listed += &format!("workload\t{}\t{}\n", field(w, "name"), field(w, "why"));
    }
    for m in file.get("end_to_end").unwrap().as_arr().unwrap() {
        assert_eq!(m.as_obj().unwrap().len(), 4);
        listed += &format!(
            "end_to_end\t{}\t{}\t{}\t{}\n",
            field(m, "name"),
            field(m, "unit"),
            field(m, "better"),
            m.get("bound").and_then(Json::as_f64).unwrap()
        );
    }
    for m in file.get("per_layer").unwrap().as_arr().unwrap() {
        assert_eq!(m.as_obj().unwrap().len(), 3);
        listed += &format!(
            "per_layer\t{}\t{}\t{}\n",
            field(m, "name"),
            field(m, "unit"),
            field(m, "better")
        );
    }
    assert_eq!(listed, spec::list_text());

    let mut names: Vec<String> = Vec::new();
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        names.push(w.name.to_string());
    }
    for m in &END_TO_END {
        assert!(valid_unit(m.unit), "{}", m.unit);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name.to_string());
    }
    let layers = spec::per_layer();
    assert!(layers.len() <= 128);
    for m in &layers {
        assert!(valid_unit(m.unit), "{}", m.unit);
        names.push(m.name.clone());
    }
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
        && m.unit == "s"
        && m.better == Better::Lower
        && m.bound == 0.25));
}

/// One untraced quick-scale pass; returns the digest.
fn untraced_digest(p: &RunPlan) -> String {
    let mut clock = RefClock::new();
    let mut prep = prepare(p, &mut clock, Observe::Off, Instant::now()).expect("guard rails hold");
    let (w, _) = run_window(&mut prep.sys, p, &mut clock);
    sim_outcome(&mut prep.sys, p, &prep.starts, &w).digest
}

#[test]
fn quick_workloads_are_deterministic_and_their_cluster_shares_sum_to_one() {
    for w in &WORKLOADS {
        let p = plan(w.name, 1997, 10.0, true).unwrap();
        let first = untraced_digest(&p);
        assert_eq!(first, untraced_digest(&p), "{}: two runs differ", w.name);

        let mut clock = RefClock::new();
        let epoch = Instant::now();
        let mut prep = prepare(&p, &mut clock, Observe::Traced, epoch).unwrap();
        let t = run_window_traced(&mut prep.sys, &p, &mut clock, epoch);
        let sim = sim_outcome(&mut prep.sys, &p, &prep.starts, &t.outcome);
        assert_eq!(sim.digest, first, "{}: tracing changed the run", w.name);
        assert_eq!(sim.violations, 0, "{}", w.name);
        assert_eq!(sim.dup_blocks, 0, "{}", w.name);
        assert_eq!(sim.failed, 0, "{}", w.name);
        let total: f64 = (0..CLUSTER_KINDS.len()).map(|k| t.share(k)).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: shares sum to {total}",
            w.name
        );
        assert_eq!(t.clusters(), t.cluster_ns.len() as u64);
        assert!(t.records() > 0 && t.outcome.blocks() > 0, "{}", w.name);
    }
}

#[test]
fn stepping_granularity_does_not_change_the_run() {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let p = RunPlan {
        name: "small-test",
        seed: cfg.seed,
        cfg,
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(200), 4),
        demand: Demand::Closed {
            starts: 6,
            spread: SimDuration::from_secs(10),
        },
        warm: SimTime::from_secs(20),
        window_s: 60,
        fail_at: None,
        min_active: 1,
    };
    let by_seconds = untraced_digest(&p);

    let mut clock = RefClock::new();
    let epoch = Instant::now();
    let mut prep = prepare(&p, &mut clock, Observe::Traced, epoch).unwrap();
    let t = run_window_traced(&mut prep.sys, &p, &mut clock, epoch);
    let by_clusters = sim_outcome(&mut prep.sys, &p, &prep.starts, &t.outcome).digest;
    assert_eq!(by_clusters, by_seconds);

    let mut prep = prepare(&p, &mut clock, Observe::Off, epoch).unwrap();
    let open = open_window(&mut prep.sys, &p);
    prep.sys.run_until(p.window_end());
    let w = close_window(
        &mut prep.sys,
        &p,
        clock.take(),
        open,
        Sampled::default(),
        None,
    );
    let in_one_call = sim_outcome(&mut prep.sys, &p, &prep.starts, &w).digest;
    assert_eq!(in_one_call, by_seconds);
}
