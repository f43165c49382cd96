//! Drives a [`TigerSystem`] from a compiled [`WorkloadPlan`] — the bridge
//! between `tiger-workgen`'s declarative demand and the system's workload
//! API. [`crate::scenario::Demand::Plan`] runs a plan as an experiment.
//!
//! Everything is a deterministic function of `(TigerConfig, plan)`: the
//! generators draw only from the `"workgen"` RNG subtree, and the driver
//! walks arrivals in a single sequential pass, so runs are bit-identical
//! at any fleet thread count.

use tiger_core::TigerSystem;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::FileId;
use tiger_sim::{RngTree, SimTime};
use tiger_trace::TraceEvent;
use tiger_workgen::{SessionOp, WorkloadPlan};

/// What [`drive_plan`] scheduled: the request-side ledger, before the
/// system has run.
#[derive(Clone, Debug, Default)]
pub struct DriveStats {
    /// Viewers admitted to the driver (arrival process × caps).
    pub arrivals: u32,
    /// Every initial play instance, with its arrival time and client.
    pub starts: Vec<(SimTime, u32, ViewerInstance)>,
    /// Pause operations scheduled.
    pub pauses: u32,
    /// Resume operations scheduled.
    pub resumes: u32,
    /// Seek operations scheduled.
    pub seeks: u32,
    /// Abandon (early stop) operations scheduled.
    pub abandons: u32,
}

/// Schedules everything `plan` generates against `sys`: arrivals become
/// start requests on round-robin clients, titles map to `files` by rank,
/// and each viewer's session script threads pause/resume/seek/stop
/// through the incarnation chain. Flash-crowd onsets drop
/// [`TraceEvent::WorkgenBurst`] markers into the trace ring.
///
/// `files` must hold at least [`WorkloadPlan::titles`] entries.
pub fn drive_plan(sys: &mut TigerSystem, plan: &WorkloadPlan, files: &[FileId]) -> DriveStats {
    assert!(
        files.len() >= plan.titles() as usize,
        "catalog has {} files but the plan draws over {} titles",
        files.len(),
        plan.titles()
    );
    let tree = RngTree::new(sys.shared().cfg.seed).subtree("workgen", 0);
    let mut w = plan.compile(&tree);
    let horizon = SimTime::ZERO + plan.horizon;

    for crowd in &plan.crowds {
        sys.trace_note_at(
            crowd.at,
            TraceEvent::WorkgenBurst {
                title: crowd.title,
                peak_x10: (crowd.peak * 10.0).round() as u32,
            },
        );
    }

    let mut stats = DriveStats::default();
    for ordinal in 0..u64::from(plan.max_viewers) {
        let at = w.arrivals.next_arrival();
        if at > horizon {
            break;
        }
        let title = w.popularity.sample(at, &mut w.chooser);
        let file = files[title as usize];
        let client = sys.add_client();
        let mut current = sys.request_start(at, client, file);
        stats.arrivals += 1;
        stats.starts.push((at, client, current));

        let file_blocks = sys
            .shared()
            .catalog
            .get(file)
            .expect("populated file")
            .num_blocks;
        for ev in w.sessions.script(ordinal, at, file_blocks, horizon) {
            match ev.op {
                SessionOp::Pause => {
                    sys.request_pause(ev.at, current);
                    stats.pauses += 1;
                }
                SessionOp::Resume => {
                    current = sys.request_resume(ev.at, current);
                    stats.resumes += 1;
                }
                SessionOp::Seek { to_block } => {
                    current = sys.request_seek(ev.at, current, to_block);
                    stats.seeks += 1;
                }
                SessionOp::Stop => {
                    sys.request_stop(ev.at, current);
                    stats.abandons += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use crate::scenario::{run, workgen_digest, Run, Scenario};
    use tiger_sim::SimDuration;

    use super::*;

    fn quick(plan_text: &str) -> Scenario {
        Scenario::quick_plan(WorkloadPlan::parse(plan_text).expect("plan parses"))
    }

    fn blocked(r: &Run) -> u32 {
        r.blocking_curve().iter().map(|p| p.blocked).sum()
    }

    #[test]
    fn uniform_plan_under_capacity_serves_everyone() {
        let r = run(&quick(
            "uniform titles=4\narrivals rate=0.2/s\nviewers max=10\nhorizon t=50s",
        ));
        assert!(r.drive.arrivals > 0, "nothing arrived");
        assert_eq!(blocked(&r), 0, "under-capacity load blocked viewers");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let report = r.sys.all_clients_report();
        assert_eq!(report.dup_blocks, 0);
        assert!(report.blocks_received > 0);
    }

    #[test]
    fn interactive_sessions_reach_the_schedule() {
        // Half the viewers pause, resume, seek and abandon; the §4.1.2
        // instance numbers and idempotent deschedules must keep that
        // churn free of gaps as well as of violations.
        let r = run(&quick(
            "uniform titles=4\narrivals rate=0.3/s\n\
             session interactive=0.5 pause=6/min dwell=4s seek=4/min abandon=1/min\n\
             viewers max=12\nhorizon t=60s",
        ));
        let d = &r.drive;
        assert!(d.pauses + d.resumes + d.seeks + d.abandons > 0, "no ops");
        let transitions = r
            .sys
            .tracer()
            .iter()
            .filter(|rec| matches!(rec.ev, TraceEvent::SessionTransition { .. }))
            .count();
        assert!(transitions > 0, "no resume/seek reached the system: {d:?}");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let missing = r.sys.all_clients_report().blocks_missing;
        assert_eq!(missing, 0, "interactive churn caused gaps");
    }

    #[test]
    fn oversubscribed_flash_crowd_blocks_and_stays_coherent() {
        // A flash crowd that far exceeds the small system's capacity:
        // blocking must appear (that's the measured quantity, not a bug)
        // while every coherence property still holds.
        let r = run(&quick(
            "zipf s=1.1 titles=4\nflashcrowd title=t0 at=20s peak=30x decay=10s\n\
             arrivals rate=0.3/s\nviewers max=120\nhorizon t=60s",
        ));
        assert!(blocked(&r) > 0, "30× surge on the small system must block");
        assert!(blocked(&r) <= r.drive.arrivals);
        assert_eq!(r.sys.all_clients_report().dup_blocks, 0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let curve = r.blocking_curve();
        let total: u32 = curve.iter().map(|p| p.arrivals).sum();
        assert_eq!(total, r.drive.arrivals, "curve buckets lose arrivals");
    }

    #[test]
    fn runs_are_bit_identical_across_reruns() {
        let s = quick(
            "zipf s=1.0 titles=4\narrivals rate=0.4/s\n\
             session interactive=0.5 pause=4/min dwell=5s seek=3/min abandon=1/min\n\
             viewers max=20\nhorizon t=60s",
        );
        let (a, b) = (run(&s), run(&s));
        assert_eq!(workgen_digest(&a), workgen_digest(&b));
        assert_eq!(a.blocking_curve(), b.blocking_curve());
    }

    #[test]
    fn horizon_caps_arrivals() {
        let mut s = quick("uniform titles=2\narrivals rate=50/s\nviewers max=500\nhorizon t=5s");
        s.run_to = SimTime::from_secs(20);
        let r = run(&s);
        assert!(r.drive.arrivals <= 500);
        for &(at, _, _) in &r.drive.starts {
            assert!(at <= SimTime::from_secs(5) + SimDuration::from_secs(1));
        }
    }
}
