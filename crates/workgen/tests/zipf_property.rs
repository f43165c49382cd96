//! Property tests for the Zipf sampler: across many seeded cases, the
//! empirical rank-frequency histogram must track the analytic law
//! `p_i = (1/(i+1)^s) / H_{n,s}` within a tolerance band, and the
//! degenerate corners (s = 0 → uniform, one title → constant) must hold
//! exactly.

use tiger_sim::check::check_cases;
use tiger_sim::SimTime;
use tiger_workgen::{Popularity, PopularitySpec, WorkloadPlan};

/// Analytic Zipf pmf over `titles` ranks.
fn analytic(s: f64, titles: u32) -> Vec<f64> {
    let w: Vec<f64> = (0..titles)
        .map(|i| 1.0 / ((i + 1) as f64).powf(s))
        .collect();
    let h: f64 = w.iter().sum();
    w.into_iter().map(|x| x / h).collect()
}

#[test]
fn empirical_rank_frequency_tracks_the_analytic_law() {
    check_cases("zipf-rank-frequency", 48, |rng| {
        // Case-random skew and catalog size; the sampler's own stream is
        // the case rng, so every case exercises a different draw sequence.
        let s = rng.gen_range(0.0..2.0);
        let titles = rng.gen_range(2u32..64);
        let pop = Popularity::new(&PopularitySpec::Zipf { s, titles }, &[]);
        let p = analytic(s, titles);

        let n = 60_000u64;
        let mut counts = vec![0u64; titles as usize];
        for _ in 0..n {
            counts[pop.sample(SimTime::ZERO, rng) as usize] += 1;
        }

        for (i, (&k, &want)) in counts.iter().zip(&p).enumerate() {
            let got = k as f64 / n as f64;
            // Binomial 5σ band plus a small absolute floor for rare tails.
            let sigma = (want * (1.0 - want) / n as f64).sqrt();
            let tol = 5.0 * sigma + 2e-3;
            assert!(
                (got - want).abs() < tol,
                "s={s:.3} titles={titles} rank {i}: want {want:.5} got {got:.5} (tol {tol:.5})"
            );
        }
    });
}

#[test]
fn zipf_head_dominates_in_rank_order() {
    // Monotonicity: with real skew, empirical frequency must be
    // non-increasing in rank (up to noise) — the head strictly beats the
    // tail.
    check_cases("zipf-head-dominates", 32, |rng| {
        let s = rng.gen_range(0.8..1.6);
        let titles = rng.gen_range(8u32..40);
        let pop = Popularity::new(&PopularitySpec::Zipf { s, titles }, &[]);
        let n = 40_000u64;
        let mut counts = vec![0u64; titles as usize];
        for _ in 0..n {
            counts[pop.sample(SimTime::ZERO, rng) as usize] += 1;
        }
        assert!(
            counts[0] > counts[(titles - 1) as usize] * 2,
            "head {} should dominate tail {} at s={s:.2}",
            counts[0],
            counts[(titles - 1) as usize]
        );
    });
}

#[test]
fn s_zero_degenerates_to_uniform_exactly() {
    // Not just statistically uniform: the s=0 table must produce the
    // bit-identical draw sequence to the uniform table.
    check_cases("zipf-s0-uniform", 16, |rng| {
        let titles = rng.gen_range(1u32..32);
        let z = Popularity::new(&PopularitySpec::Zipf { s: 0.0, titles }, &[]);
        let u = Popularity::new(&PopularitySpec::Uniform { titles }, &[]);
        let mut mirror = rng.clone();
        for _ in 0..500 {
            assert_eq!(
                z.sample(SimTime::ZERO, rng),
                u.sample(SimTime::ZERO, &mut mirror)
            );
        }
    });
}

#[test]
fn one_title_is_constant_for_any_skew() {
    check_cases("zipf-one-title", 16, |rng| {
        let s = rng.gen_range(0.0..3.0);
        let pop = Popularity::new(&PopularitySpec::Zipf { s, titles: 1 }, &[]);
        for _ in 0..200 {
            assert_eq!(pop.sample(SimTime::ZERO, rng), 0);
        }
    });
}

#[test]
fn compiled_plan_zipf_matches_direct_sampler() {
    // The plan path (parse → compile) must agree with constructing the
    // popularity model directly — same table, same law.
    let plan = WorkloadPlan::parse("zipf s=1.1 titles=24").unwrap();
    let tree = tiger_sim::RngTree::new(99).subtree("workgen", 0);
    let mut w = plan.compile(&tree);
    let p = analytic(1.1, 24);
    let n = 60_000u64;
    let mut counts = [0u64; 24];
    for _ in 0..n {
        counts[w.popularity.sample(SimTime::ZERO, &mut w.chooser) as usize] += 1;
    }
    for (i, (&k, &want)) in counts.iter().zip(&p).enumerate() {
        let got = k as f64 / n as f64;
        let sigma = (want * (1.0 - want) / n as f64).sqrt();
        assert!(
            (got - want).abs() < 5.0 * sigma + 2e-3,
            "rank {i}: want {want:.5} got {got:.5}"
        );
    }
}
