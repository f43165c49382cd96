//! The canonical workload-plan sweep: declarative `tiger-workgen` plans
//! (skewed popularity, flash crowds, VCR churn, diurnal load, and a
//! flash-crowd composed with a cub crash) driven through the fleet.
//!
//! Each point is one [`tiger_workload::run`] of one plan at one seed, so
//! the full invariant set (1–6) is enforced on every point. Demand-only
//! plans reduce to blocking-probability / ownership-conflict /
//! deschedule-churn digests, the composed flashcrowd-crash plan to the
//! chaos digest. The flash-crowd plan also emits its blocking-probability
//! curve — the §2.2 quantity the coded-storage comparison (PAPERS.md)
//! optimizes.
//!
//! Every point is a pure function of `(plan, seed)`, so the sweep shards
//! through `fleet::sweep` and its report is bit-identical at any thread
//! count. Digest lines ending in `violations 0` pass; the report is not
//! `ok`, and `fleet` exits non-zero, on any violation.

use tiger_core::RedundancyMode;
use tiger_workgen::WorkloadPlan;
use tiger_workload::{chaos_digest, run, workgen_digest, CurvePoint, Scenario};

use crate::fleet::{at, sweep, ExpReport, Scale};
use crate::table::Table;

/// One plan template: a stable name and the plan text at a given scale.
type PlanTemplate = (&'static str, fn(Scale) -> String);

/// The canonical plan catalogue, in the fixed order the report prints.
pub fn plans() -> Vec<PlanTemplate> {
    vec![
        // Zipf-skewed demand near capacity: the head titles concentrate
        // load; striping must keep it a non-event (§2.2).
        ("zipf-hotspot", |s| match s {
            Scale::Quick => "zipf s=1.1 titles=16\narrivals rate=0.45/s\n\
                             viewers max=40\nhorizon t=60s"
                .into(),
            Scale::Full => "zipf s=1.1 titles=32\narrivals rate=0.6/s\n\
                            viewers max=200\nhorizon t=180s"
                .into(),
        }),
        // Correlated point-to-multipoint surge on one title — the
        // worst case for declustered mirroring in the coded-storage
        // comparison; blocking probability is the figure of merit.
        ("flash-crowd", |s| match s {
            Scale::Quick => "zipf s=1.1 titles=16\n\
                             flashcrowd title=t0 at=30s peak=40x decay=15s\n\
                             arrivals rate=0.3/s\nviewers max=150\nhorizon t=60s"
                .into(),
            Scale::Full => "zipf s=1.1 titles=32\n\
                            flashcrowd title=t0 at=60s peak=50x decay=30s\n\
                            arrivals rate=0.4/s\nviewers max=400\nhorizon t=180s"
                .into(),
        }),
        // Heavy VCR interactivity: the §4.1.2 instance/deschedule
        // machinery under constant pause/resume/seek churn.
        ("vcr-heavy", |s| {
            match s {
            Scale::Quick => "uniform titles=8\narrivals rate=0.3/s\n\
                             session interactive=0.6 pause=3/min dwell=8s seek=2/min abandon=0.5/min\n\
                             viewers max=30\nhorizon t=60s"
                .into(),
            Scale::Full => "uniform titles=16\narrivals rate=0.5/s\n\
                            session interactive=0.6 pause=3/min dwell=15s seek=2/min abandon=0.5/min\n\
                            viewers max=150\nhorizon t=180s"
                .into(),
        }
        }),
        // A compressed day: load swings between peak and trough through
        // two full periods; admission must track the swing cleanly.
        ("diurnal-endurance", |s| match s {
            Scale::Quick => "uniform titles=8\narrivals rate=0.5/s\n\
                             diurnal period=80s trough=0.2\n\
                             viewers max=60\nhorizon t=120s"
                .into(),
            Scale::Full => "uniform titles=16\narrivals rate=0.8/s\n\
                            diurnal period=120s trough=0.15\n\
                            viewers max=300\nhorizon t=240s"
                .into(),
        }),
        // Demand surge composed with a fault plan: a cub dies at the
        // crest of the flash crowd. Runs under the full chaos invariant
        // set (1–6); the single clean crash keeps the loss-window bound
        // (invariant 4) in force.
        ("flashcrowd-crash", |s| match s {
            Scale::Quick => "zipf s=1.1 titles=4\n\
                             flashcrowd title=t0 at=30s peak=20x decay=15s\n\
                             arrivals rate=0.2/s\nviewers max=60\nhorizon t=70s\n\
                             fault crash c1 at=40s"
                .into(),
            Scale::Full => "zipf s=1.1 titles=4\n\
                            flashcrowd title=t0 at=30s peak=30x decay=20s\n\
                            arrivals rate=0.3/s\nviewers max=120\nhorizon t=70s\n\
                            fault crash c1 at=40s"
                .into(),
        }),
    ]
}

/// One sweep point's reduced result.
pub(crate) struct PointResult {
    pub(crate) digest: String,
    pub(crate) curve: Vec<CurvePoint>,
    pub(crate) missing: u64,
}

/// Runs one plan at one seed on one redundancy backend; returns the run's
/// reduced result and its violations. A plan with embedded faults reduces
/// to the chaos digest.
pub(crate) fn run_point(text: &str, mode: RedundancyMode, seed: u64) -> (PointResult, Vec<String>) {
    let plan = WorkloadPlan::parse(text).expect("canonical plan parses");
    let mut scenario = Scenario::quick_plan(plan);
    scenario.tiger.seed = seed;
    scenario.tiger.redundancy = mode;
    let r = run(&scenario);
    let point = PointResult {
        digest: if scenario.faults.is_empty() {
            workgen_digest(&r)
        } else {
            chaos_digest(&r)
        },
        curve: r.blocking_curve(),
        missing: r.sys.all_clients_report().blocks_missing,
    };
    (point, r.violations)
}

/// The share of a bucket's arrivals that were blocked.
pub(crate) fn p_block(p: &CurvePoint) -> f64 {
    if p.arrivals > 0 {
        f64::from(p.blocked) / f64::from(p.arrivals)
    } else {
        0.0
    }
}

/// The workload sweep: plan × seed, optionally filtered to plans whose
/// name contains `filter`.
pub fn workloads_report(scale: Scale, threads: usize, filter: Option<&str>) -> ExpReport {
    let all = plans();
    let seeds: &[u64] = match scale {
        Scale::Full => &[1997, 42],
        Scale::Quick => &[1997],
    };
    let points: Vec<(&PlanTemplate, u64)> = all
        .iter()
        .filter(|(name, _)| filter.is_none_or(|f| name.contains(f)))
        .flat_map(|plan| seeds.iter().map(move |&seed| (plan, seed)))
        .collect();
    let runs = sweep(&points, threads, |&(plan, seed)| {
        let (result, violations) = run_point(&(plan.1)(scale), RedundancyMode::Mirrored, seed);
        (result, at(format!("{} {seed}", plan.0), violations))
    });

    let mut out = Table::new(points.iter().zip(&runs.results))
        .note(format!("({} runs, small-test system)", points.len()))
        .left("plan", |((plan, _), _)| plan.0.to_string())
        .right("seed", |((_, seed), _)| seed.to_string())
        .left("outcome", |(_, r)| r.digest.clone())
        .render();
    // The flash-crowd blocking-probability curve (first seed): arrivals
    // and blocked per bucket, the series plotted against the
    // coded-storage yardstick.
    if let Some(((plan, seed), r)) = points
        .iter()
        .zip(&runs.results)
        .find(|((plan, _), r)| plan.0 == "flash-crowd" && !r.curve.is_empty())
    {
        let plan = plan.0;
        out += &format!("\nflash-crowd blocking-probability curve (plan {plan}, seed {seed}):\n");
        out += &Table::new(&r.curve)
            .right("t_bucket", |p| format!("{}s", p.t_secs))
            .right("arrivals", |p| p.arrivals.to_string())
            .right("blocked", |p| p.blocked.to_string())
            .right("p_block", |p| format!("{:.4}", p_block(p)))
            .render();
    }
    out += &format!(
        "\nfigures of merit: blocking probability (admitted, never served), \
         ownership conflicts (vs-conflict), deschedule churn (desched-apply); \
         the composed flashcrowd-crash plan runs under chaos invariants 1-6. \
         violations: {}.\n",
        runs.violations()
    );
    runs.report(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_plan_parses_at_both_scales() {
        for (name, tmpl) in plans() {
            for scale in [Scale::Quick, Scale::Full] {
                let plan = WorkloadPlan::parse(&tmpl(scale))
                    .unwrap_or_else(|e| panic!("plan {name} at {scale:?}: {e}"));
                assert!(plan.max_viewers > 0, "plan {name} admits nobody");
            }
        }
        // The composed plan must actually embed a fault.
        let composed = plans()
            .into_iter()
            .find(|(n, _)| *n == "flashcrowd-crash")
            .expect("catalogue has the composed plan");
        let plan = WorkloadPlan::parse(&(composed.1)(Scale::Quick)).unwrap();
        assert!(!plan.faults.is_empty(), "composed plan lost its crash");
    }

    #[test]
    fn workloads_report_is_thread_count_invariant() {
        let one = workloads_report(Scale::Quick, 1, None);
        let three = workloads_report(Scale::Quick, 3, None);
        assert_eq!(one.output, three.output);
        assert!(one.ok, "{}", one.output);
        assert!(
            one.output.contains("blocking-probability curve"),
            "flash-crowd curve missing:\n{}",
            one.output
        );
    }

    #[test]
    fn filter_narrows_the_sweep() {
        let only = workloads_report(Scale::Quick, 1, Some("diurnal"));
        assert!(only.output.contains("diurnal-endurance"));
        assert!(!only.output.contains("vcr-heavy"));
    }
}
