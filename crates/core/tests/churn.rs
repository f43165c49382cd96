//! High-churn and randomized ("chaos") runs: the §4.1.3 races, exercised
//! hard, with the omniscient checker watching.
//!
//! "If the inserting cub believes that the slot is empty because it saw a
//! deschedule request for the previous occupant, any cub seeing the newly
//! inserted viewer must also have seen the deschedule, or never have seen
//! the old occupant in the first place." A violation of that argument
//! shows up as a view `Conflict` (counted as a violation) or as an
//! omniscient-checker finding; churning stop/start traffic at high load is
//! how to provoke it.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::CubId;
use tiger_sim::{Bandwidth, RngTree, SimDuration, SimTime};

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn stop_start_churn_at_high_load_stays_coherent() {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();
    let file = sys.add_file(rate(), SimDuration::from_secs(600));
    let capacity = sys.world().params.capacity();

    // Fill to ~90%.
    let fill = capacity * 9 / 10;
    let mut live: Vec<ViewerInstance> = Vec::new();
    for i in 0..u64::from(fill) {
        let client = sys.add_client();
        live.push(sys.request_start(SimTime::from_millis(100 + i * 100), client, file));
    }
    sys.run_until(SimTime::from_secs(40));

    // Churn: every 2 s stop one viewer and immediately request a new one —
    // the new insertion often lands in the just-freed slot, exercising the
    // deschedule/insert ordering argument.
    let mut rng = RngTree::new(17).fork("churn", 0);
    let mut t = SimTime::from_secs(40);
    for _ in 0..30 {
        let idx = rng.gen_range(0..live.len());
        let victim = live.swap_remove(idx);
        sys.request_stop(t, victim);
        let client = sys.add_client();
        live.push(sys.request_start(t + SimDuration::from_millis(50), client, file));
        t += SimDuration::from_secs(2);
    }
    sys.run_until(t + SimDuration::from_secs(30));

    let violations = sys.take_violations();
    assert!(
        violations.is_empty(),
        "churn broke coherence: {violations:?}"
    );
    // Stream accounting stayed consistent.
    let active = sys.controller().active_streams();
    assert!(
        active <= capacity,
        "churn overcommitted the schedule: {active} > {capacity}"
    );
    // No viewer that survived the churn has gaps.
    let mut gaps = 0u64;
    for c in sys.clients() {
        for (_, v) in c.viewers() {
            gaps += u64::from(v.blocks_missing());
        }
    }
    assert_eq!(gaps, 0, "churn caused delivery gaps");
}

#[test]
fn chaos_runs_stay_coherent_across_seeds() {
    // Randomized workloads: random starts, stops, and one random failure.
    // Invariants: zero checker violations, no capacity breach, and no
    // surviving stream starves.
    for seed in [1u64, 7, 1997] {
        let mut cfg = TigerConfig::small_test();
        cfg.disk = cfg.disk.without_blips();
        cfg.seed = seed;
        cfg.deadman_timeout = SimDuration::from_millis(1_500);
        let mut sys = TigerSystem::new(cfg);
        sys.enable_omniscient();
        let files: Vec<_> = (0..3)
            .map(|_| sys.add_file(rate(), SimDuration::from_secs(120)))
            .collect();
        let mut rng = RngTree::new(seed).fork("chaos", 0);
        let capacity = sys.world().params.capacity();
        let mut live: Vec<ViewerInstance> = Vec::new();
        let mut t = SimTime::from_millis(100);
        let kill_at = SimTime::from_secs(30 + rng.gen_range(0u64..20));
        let victim_cub = CubId(rng.gen_range(0u32..4));
        sys.fail_cub_at(kill_at, victim_cub);
        for _ in 0..120 {
            t += SimDuration::from_millis(rng.gen_range(100u64..900));
            if live.len() < (capacity as usize) * 3 / 4 && rng.gen_bool(0.7) {
                let client = sys.add_client();
                let file = files[rng.gen_range(0..files.len())];
                live.push(sys.request_start(t, client, file));
            } else if !live.is_empty() {
                let idx = rng.gen_range(0..live.len());
                sys.request_stop(t, live.swap_remove(idx));
            }
        }
        sys.run_until(t + SimDuration::from_secs(140));

        let violations = sys.take_violations();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        assert!(sys.controller().active_streams() <= capacity, "seed {seed}");
        for c in sys.clients() {
            for (_, v) in c.viewers() {
                assert_eq!(
                    v.tail_missing(),
                    0,
                    "seed {seed}: a surviving stream starved (hw {:?})",
                    v.high_water
                );
            }
        }
    }
}
