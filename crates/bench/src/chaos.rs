//! Chaos campaigns: fault scenarios swept over injection timing and
//! workload seed, every run checked against the Tiger invariants.
//!
//! Each sweep point is one [`tiger_workload::run`] of a
//! [`Scenario::quick`]: the small-test system (or its 8-cub widening)
//! loaded to 50%, a
//! declarative fault plan applied, and the run reduced to the one-line
//! [`tiger_workload::chaos_digest`].
//! Scenarios are written in the `FaultPlan::parse` text format — the same
//! path an operator's scenario file takes — parameterized only by the
//! injection instant.
//!
//! Because every campaign is a pure function of `(scenario, t, seed)`, the
//! sweep shards through [`run_indexed`] like any other fleet job and its
//! report is bit-identical at any thread count. A digest line ending in
//! `violations 0` is a passing point; the report is not `ok`, and `fleet`
//! exits non-zero, if any point violates an invariant.

use std::fmt::Write as _;

use tiger_core::TigerConfig;
use tiger_faults::FaultPlan;
use tiger_layout::StripeConfig;
use tiger_workload::{chaos_digest, run, Scenario};

use crate::fleet::{run_indexed, ExpReport, Scale};

/// Which topology a scenario runs on. Most templates target the
/// small-test ring (cubs c0..c3, one disk each, 2 s deadman); scenarios
/// that kill two cubs need the wide 8-cub ring (on 4 cubs with
/// decluster 2 every pair overlaps a mirror group), and the spare-shield
/// scenario additionally provisions one spare for the shield to claim.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// The 4-cub small-test ring.
    Small,
    /// The 8-cub wide ring.
    Wide,
    /// The 8-cub wide ring plus one provisioned spare.
    WideSpare,
}

/// One scenario template: a stable name, the plan text at injection
/// instant `t` (seconds), and the topology it needs.
type Template = (&'static str, fn(u64) -> String, Topo);

/// The scenario catalogue, in the fixed order the report prints.
pub fn scenarios() -> Vec<Template> {
    vec![
        ("single-crash", |t| format!("crash c1 at={t}s"), Topo::Small),
        // One power-domain cut taking two cubs at once. Survivable only
        // when the victims sit in different mirror groups, which needs
        // the wide ring: on 4 cubs with decluster 2 every pair overlaps
        // a mirror group and the data is simply gone.
        (
            "power-domain",
            |t| format!("power-domain c1,c4 at={t}s"),
            Topo::Wide,
        ),
        // 6 s stall against a 2 s deadman: declared dead mid-freeze, then
        // resumes as a zombie and must fence itself.
        (
            "freeze-trip",
            |t| format!("freeze c2 from={t}s until={}s", t + 6),
            Topo::Small,
        ),
        // A 1 s stall leaves worst-case observed silence (stall + ping
        // interval + latency) under the 2 s timeout: the other side of
        // the deadman boundary, the run must stay declaration-free.
        (
            "freeze-blip",
            |t| format!("freeze c3 from={t}s until={}s", t + 1),
            Topo::Small,
        ),
        (
            "partition-heal",
            |t| format!("partition c0,c1|c2,c3 from={t}s heal={}s", t + 3),
            Topo::Small,
        ),
        (
            "disk-brownout",
            |t| {
                format!(
                    "disk-transient c1:0 prob=0.5 from={t}s until={u}s\n\
                     disk-degraded c2:0 factor=3 from={t}s until={u}s",
                    u = t + 8
                )
            },
            Topo::Small,
        ),
        (
            "lossy-control",
            |t| {
                format!(
                    "drop ctrl>* prob=0.2 from={t}s until={u}s\n\
                     delay c1>* extra=5ms jitter=5ms from={t}s until={u}s\n\
                     dup *>ctrl prob=0.2 from={t}s until={u}s",
                    u = t + 10
                )
            },
            Topo::Small,
        ),
        // Crash, then rejoin 10 s later: the restarted cub must re-learn
        // its slots from the covering successor within the convergence
        // bound, and the fresh monitoring baseline must keep it from
        // being re-declared dead.
        (
            "crash-rejoin",
            |t| format!("crash c1 at={t}s\nrestart c1 at={}s", t + 10),
            Topo::Small,
        ),
        // The covering partner dies 400 ms into its hand-back window —
        // mid-catch-up. Loss must stay bounded (two covered single
        // failures), with no block double-served.
        (
            "double-fail-catchup",
            |t| {
                format!(
                    "crash c1 at={t}s\nrestart c1 at={r}s\ncrash c2 at={m}ms",
                    r = t + 10,
                    m = (t + 10) * 1000 + 400
                )
            },
            Topo::Small,
        ),
        // A fault-free live restripe widening the ring by two spares:
        // held to the §6.4 duration budget and the byte-level layout
        // invariants, with streams riding across the cut-over.
        (
            "restripe-quiet",
            |t| format!("restripe at={t}s add=2"),
            Topo::Small,
        ),
        // A source cub dies with restripe moves in flight and rejoins
        // 10 s later: the plan parks, resumes, and still cuts over.
        (
            "restripe-rejoin",
            |t| {
                format!(
                    "restripe at={t}s add=2\ncrash c1 at={}s\nrestart c1 at={}s",
                    t + 2,
                    t + 12
                )
            },
            Topo::Small,
        ),
        // Crash, then rejoin only 3 s later — inside the deschedule hold.
        // The predecessor's retired-log tail is still fresh, so the
        // sub-interval replay carries nearly every in-flight record and
        // the convergence invariant is held to its tightest case.
        (
            "fast-rejoin",
            |t| format!("crash c1 at={t}s\nrestart c1 at={}s", t + 3),
            Topo::Small,
        ),
        // A live *shrink* under streaming load: one cub drains, fences,
        // and leaves the ring mid-play. Injected early (the drain copies
        // a quarter of the catalogue at background pace) so the cut-over
        // lands inside the 90 s campaign at every sweep instant.
        (
            "shrink-load",
            |t| format!("restripe at={}s remove=1", 5 + t / 3),
            Topo::Small,
        ),
        // Two non-adjacent cubs die 30 s apart with a spare provisioned:
        // the shield copies the first victim's exposed decluster spans to
        // the spare, which then serves as interim mirror capacity through
        // the second failure. Needs the wide ring (double failure) and
        // victims in different mirror groups so the span sources survive.
        (
            "spare-shield",
            |t| format!("crash c1 at={t}s\ncrash c3 at={}s", t + 30),
            Topo::WideSpare,
        ),
    ]
}

/// `template` injected at `t` seconds on its topology, half loaded.
fn campaign(&(_, plan, topo): &Template, t: u64, seed: u64) -> Scenario {
    let mut tiger = TigerConfig::small_test();
    tiger.seed = seed;
    if topo != Topo::Small {
        tiger.stripe = StripeConfig::new(8, 1, 2);
        tiger.num_clients = 8;
        tiger.spare_cubs = u32::from(topo == Topo::WideSpare);
    }
    let plan = FaultPlan::parse(&plan(t)).expect("scenario template parses");
    Scenario::quick(tiger, plan)
}

/// The chaos sweep: scenario × injection instant × seed.
pub fn chaos_report(scale: Scale, threads: usize) -> ExpReport {
    let scenarios = scenarios();
    let (times, seeds): (&[u64], &[u64]) = match scale {
        Scale::Full => (&[20, 30, 45], &[1997, 42]),
        Scale::Quick => (&[30], &[1997]),
    };
    let points: Vec<(usize, u64, u64)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(s, _)| {
            times
                .iter()
                .flat_map(move |&t| seeds.iter().map(move |&seed| (s, t, seed)))
        })
        .collect();
    let outcomes = run_indexed(points.len(), threads, |i| {
        let (s, t, seed) = points[i];
        let r = run(&campaign(&scenarios[s], t, seed));
        (chaos_digest(&r), r.violations)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario        t    seed  outcome ({} campaigns, small-test system, 50% load)",
        points.len()
    );
    let mut bad = 0usize;
    for (&(s, t, seed), (digest, violations)) in points.iter().zip(&outcomes) {
        let _ = writeln!(out, "{:<14} {t:>3}s {seed:>6}  {digest}", scenarios[s].0);
        for v in violations {
            bad += 1;
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "invariants: no double delivery, every deadman declaration justified \
         (partitioned rings modeled), view lead bounded, single-failure loss \
         window bounded, rejoin convergence bounded (sub-interval with \
         retired replay), restripe/shrink within the §6.4 duration budget. \
         violations: {bad}."
    );
    ExpReport {
        ok: bad == 0,
        ..ExpReport::new(out)
    }
}

#[cfg(test)]
mod tests {
    use tiger_core::TigerSystem;
    use tiger_workload::populate_catalog;

    use super::*;

    #[test]
    fn every_scenario_template_parses_at_any_instant() {
        for (name, tmpl, _) in scenarios() {
            for t in [5, 30, 45] {
                let plan = FaultPlan::parse(&tmpl(t))
                    .unwrap_or_else(|e| panic!("scenario {name} at t={t}: {e}"));
                assert!(!plan.is_empty(), "scenario {name} is empty");
            }
        }
    }

    #[test]
    fn a_wide_campaign_half_loads_the_wide_ring() {
        let wide = scenarios().into_iter().find(|s| s.2 == Topo::Wide);
        let s = campaign(&wide.expect("a wide scenario"), 30, 1997);
        let mut sys = TigerSystem::new(s.tiger.clone());
        assert_eq!(sys.shared().cfg.stripe.num_cubs, 8);
        let files = populate_catalog(&mut sys, &s.catalog);
        let drive = s.demand.drive(&mut sys, &files);
        let capacity = sys.shared().params.capacity();
        assert_eq!(
            drive.starts.len(),
            capacity.div_ceil(2) as usize,
            "half of the 8-cub ring's {capacity} streams"
        );
    }

    #[test]
    fn chaos_report_is_thread_count_invariant() {
        let one = chaos_report(Scale::Quick, 1);
        let four = chaos_report(Scale::Quick, 4);
        assert_eq!(one.output, four.output);
        assert!(one.ok, "{}", one.output);
    }
}
