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

/// What a plan [`drive_plan`] drew holds: the request-side ledger, before
/// the system has run. The operations wait in the system's script store
/// and enter the event queue as they come due, so this counts what the
/// plan asks for, not what the queue holds.
#[derive(Clone, Debug, Default)]
pub struct DriveStats {
    /// Viewers admitted to the driver (arrival process × caps).
    pub arrivals: u32,
    /// Every initial play instance, with its arrival time and client.
    pub starts: Vec<(SimTime, u32, ViewerInstance)>,
    /// Pause operations in the plan.
    pub pauses: u32,
    /// Resume operations in the plan.
    pub resumes: u32,
    /// Seek operations in the plan.
    pub seeks: u32,
    /// Abandon (early stop) operations in the plan.
    pub abandons: u32,
}

/// Scripts everything `plan` generates against `sys`: arrivals become
/// start requests on round-robin clients, titles map to `files` by rank,
/// and each viewer's session script threads pause/resume/seek/stop
/// through the incarnation chain. The whole plan is drawn here, in one
/// sequential pass; it enters the event queue a session's next operation
/// at a time, each under the tie rank it was drawn with
/// ([`TigerSystem::release_scripts`]). Flash-crowd onsets drop
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
        let mut current = sys.script_start(at, client, file);
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
                    sys.script_stop(ev.at, current);
                    stats.pauses += 1;
                }
                SessionOp::Resume => {
                    current = sys.script_resume(ev.at, current);
                    stats.resumes += 1;
                }
                SessionOp::Seek { to_block } => {
                    current = sys.script_seek(ev.at, current, to_block);
                    stats.seeks += 1;
                }
                SessionOp::Stop => {
                    sys.script_stop(ev.at, current);
                    stats.abandons += 1;
                }
            }
        }
    }
    sys.release_scripts();
    stats
}

#[cfg(test)]
mod tests {
    use crate::scenario::{run, workgen_digest, Demand, Run, Scenario};
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

    /// The queue's capacity and the most it held pending at once, over
    /// the first `window` of a quick interactive plan whose arrivals and
    /// scripts run to `horizon`.
    fn queue_footprint(horizon: u64, window: SimTime) -> (usize, usize) {
        let s = quick(&format!(
            "uniform titles=4\narrivals rate=0.3/s\n\
             session interactive=1 pause=6/min dwell=4s seek=4/min abandon=1/min\n\
             viewers max=1000\nhorizon t={horizon}s"
        ));
        let Demand::Plan(plan) = &s.demand else {
            unreachable!("a quick plan scenario");
        };
        let mut sys = TigerSystem::new(s.tiger.clone());
        let files = crate::catalog::populate_catalog(&mut sys, &s.catalog);
        drive_plan(&mut sys, plan, &files);
        let mut peak = sys.shared().queue.len();
        while let Some(at) = sys.shared().queue.peek_time().filter(|&at| at <= window) {
            sys.run_until(at);
            peak = peak.max(sys.shared().queue.len());
        }
        (sys.shared().queue.capacity(), peak)
    }

    #[test]
    fn the_queue_is_flat_in_the_plan_horizon() {
        // The same first minute of one plan drawn to 2 and to 4 minutes:
        // what waits in the queue is the sessions under way, not the plan.
        let window = SimTime::from_secs(60);
        let (capacity, peak) = queue_footprint(120, window);
        assert_eq!(queue_footprint(240, window), (capacity, peak));
    }

    #[test]
    fn end_of_file_notices_are_forgotten_a_window_later() {
        // Twenty-second titles, so sessions play out: a long run reports
        // hundreds of ends of file, and no cub keeps them past the window
        // a double-forwarded record could still re-deliver one in.
        let mut s = quick(
            "uniform titles=4\narrivals rate=1/s\n\
             session interactive=0.5 pause=2/min dwell=4s seek=2/min abandon=1/min\n\
             viewers max=1000\nhorizon t=400s",
        );
        s.catalog.duration = SimDuration::from_secs(20);
        let mut sys = TigerSystem::new(s.tiger.clone());
        let files = crate::catalog::populate_catalog(&mut sys, &s.catalog);
        s.demand.drive(&mut sys, &files);
        let held = |sys: &TigerSystem| sys.cubs().iter().map(|c| c.eof_notices_held()).sum();
        let mut peak = 0;
        for secs in 1..=460 {
            sys.run_until(SimTime::from_secs(secs));
            peak = peak.max(held(&sys));
        }
        let ended = sys.all_clients_report().completed_viewers as usize;
        assert!(ended > 150, "only {ended} instances played to their end");
        assert!(
            peak > 0 && peak < ended / 10,
            "peak {peak} of {ended} notices held"
        );
        assert_eq!(held(&sys), 0, "notices outlived the window");
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
