//! The golden determinism test: a run is a pure function of
//! `(TigerConfig, workload, seed)`.
//!
//! This is the repo's foundational contract (see `crates/core/src/lib.rs`
//! and DESIGN.md), now enforced end-to-end: the event queue breaks ties by
//! sequence number, maps iterate deterministically, and — as of the
//! dependency-free substrate — the PRNG (`tiger_sim::SimRng`) is in-tree,
//! so no registry crate can change a stream between builds.

use tiger::core::{TigerConfig, TigerSystem};
use tiger::sim::{SimDuration, SimTime};
use tiger::workload::{populate_catalog, CatalogSpec};
use tiger_sim::RngTree;

/// Drives a moderately busy system — blips on, failures, churn — and
/// returns everything observable about the run.
fn run_once(seed: u64) -> (tiger::core::Metrics, tiger::core::LossReport, u64, u64) {
    let mut cfg = TigerConfig::small_test();
    cfg.seed = seed;
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();
    let files = populate_catalog(
        &mut sys,
        &CatalogSpec::sized_for(SimDuration::from_secs(120), 6),
    );
    let mut rng = RngTree::new(seed).fork("workload", 0);
    let mut live = Vec::new();
    let mut t = SimTime::from_millis(100);
    // Random starts and stops, plus one cub failure mid-run: every
    // stochastic subsystem (disk blips, net jitter, arrivals) is exercised.
    sys.fail_cub_at(SimTime::from_secs(35), tiger::layout::CubId(1));
    for _ in 0..60 {
        t += SimDuration::from_millis(rng.gen_range(100u64..700));
        if live.len() < 10 && rng.gen_bool(0.7) {
            let client = sys.add_client();
            let file = files[rng.gen_range(0..files.len())];
            live.push(sys.request_start(t, client, file));
        } else if !live.is_empty() {
            let idx = rng.gen_range(0..live.len());
            sys.request_stop(t, live.swap_remove(idx));
        }
    }
    sys.run_until(t + SimDuration::from_secs(90));
    sys.sample_window(sys.now(), tiger::layout::CubId(0), None);

    let mut received = 0u64;
    let mut missing = 0u64;
    for c in sys.clients() {
        for (_, v) in c.viewers() {
            received += u64::from(v.blocks_received());
            missing += u64::from(v.blocks_missing());
        }
    }
    let loss = sys.metrics().loss.clone();
    (sys.metrics().clone(), loss, received, missing)
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a.0, b.0, "Metrics diverged between identical runs");
    assert_eq!(a.1, b.1, "LossReport diverged between identical runs");
    assert_eq!(a.2, b.2, "client block receipt diverged");
    assert_eq!(a.3, b.3, "client block loss diverged");
    // The run must have actually done something for the equality above to
    // mean anything.
    assert!(a.2 > 0, "golden run delivered no blocks");
    assert!(!a.0.windows.is_empty(), "golden run sampled no windows");
}

/// The fleet extends the contract to parallel execution: sharding
/// independent experiments across worker threads must not change one bit
/// of the merged output, because results merge in shard order, not
/// completion order.
#[test]
fn fleet_output_is_identical_at_any_thread_count() {
    use tiger::bench::fleet::{metrics_digest, run_fleet, select, standard_jobs, Scale};

    // A cross-section of the catalogue: full-system ramps (fig8, the
    // multi-seed capacity sweep and the two loss-rate ramps, which carry
    // merged Metrics), one data-structure churn sweep, one analytic
    // sweep, and the five message-level §4.2 rings. Quick scale keeps the
    // three runs to seconds.
    let pick = [
        "fig8_unfailed",
        "loss_rates",
        "capacity",
        "ablation_fragmentation",
        "ablation_decluster",
        "ablation_mbr",
    ];
    let jobs: Vec<_> = standard_jobs()
        .into_iter()
        .filter(|j| pick.contains(&j.name))
        .collect();
    assert_eq!(jobs.len(), pick.len(), "a picked job left the catalogue");
    let [one, two, three] =
        [1usize, 2, 3].map(|threads| run_fleet(&jobs, |_| Scale::Quick, threads));

    assert_eq!(
        one.merged, two.merged,
        "merged Metrics diverged at 2 threads"
    );
    assert_eq!(
        one.merged, three.merged,
        "merged Metrics diverged at 3 threads"
    );
    for (i, job) in jobs.iter().enumerate() {
        let at = |run: &tiger::bench::fleet::FleetResult| run.reports[i].output.clone();
        assert_eq!(at(&one), at(&two), "'{}' diverged at 2 threads", job.name);
        assert_eq!(at(&one), at(&three), "'{}' diverged at 3 threads", job.name);
    }
    // The runs must have measured something for equality to mean anything.
    assert!(!one.merged.windows.is_empty(), "fleet sampled no windows");
    assert!(one.merged.loss.blocks_sent > 0, "fleet sent no blocks");
    assert_eq!(metrics_digest(&one.merged), metrics_digest(&three.merged));

    // A job alone gets the fleet's threads for its own sweep: the two
    // loss-rate ramps on two workers print what they print in sequence.
    let alone = select(standard_jobs(), Some("loss_rates"));
    let sharded = run_fleet(&alone, |_| Scale::Quick, 2);
    let at = jobs
        .iter()
        .position(|j| j.name == "loss_rates")
        .expect("picked");
    assert_eq!(sharded.reports[0].output, one.reports[at].output);
}

#[test]
fn different_seeds_give_different_runs() {
    // The converse sanity check: the seed actually reaches the streams.
    let a = run_once(42);
    let b = run_once(1997);
    assert!(
        a.0 != b.0 || a.2 != b.2,
        "changing the seed changed nothing — the RNG tree is disconnected"
    );
}
