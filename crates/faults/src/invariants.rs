//! Pure invariant checks over fault plans and observed failure
//! declarations.
//!
//! The checks here are plain interval algebra — no system types — so the
//! core crate and the chaos runner can share them. The system-side
//! invariants that need live state (no double-delivered block, schedule
//! views within `maxVStateLead`, bounded loss window) live next to that
//! state; this module owns the one invariant that is purely a function of
//! the plan and the trace: **every deadman declaration must be justified
//! by a real communication stall**.

use tiger_sim::{SimDuration, SimTime};

use crate::plan::{FaultPlan, NodeSel, ProcessFault, Topology};

/// A merged, sorted set of half-open `[from, until)` intervals during
/// which some condition holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Intervals {
    spans: Vec<(SimTime, SimTime)>,
}

impl Intervals {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `[from, until)`, merging with anything it touches.
    pub fn add(&mut self, from: SimTime, until: SimTime) {
        if until <= from {
            return;
        }
        self.spans.push((from, until));
        self.spans.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(self.spans.len());
        for &(f, u) in &self.spans {
            match merged.last_mut() {
                Some(last) if f <= last.1 => last.1 = last.1.max(u),
                _ => merged.push((f, u)),
            }
        }
        self.spans = merged;
    }

    /// Whether `[from, until)` lies entirely inside one merged span.
    /// An empty query interval (`until <= from`) is trivially covered.
    pub fn covers(&self, from: SimTime, until: SimTime) -> bool {
        if until <= from {
            return true;
        }
        self.spans.iter().any(|&(f, u)| f <= from && until <= u)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The merged spans, sorted.
    pub fn spans(&self) -> &[(SimTime, SimTime)] {
        &self.spans
    }
}

/// The intervals during which `cub` cannot get a ping through to
/// `observer`, according to `plan`: its crashes and power-domain cuts
/// (which stall it until a matching restart, or forever), its freeze
/// windows, and any partition that separates the pair.
pub fn stall_intervals(plan: &FaultPlan, topo: Topology, cub: u32, observer: u32) -> Intervals {
    let mut out = Intervals::new();
    // A crash/power-cut stall ends at the cub's next scheduled restart:
    // the rejoin protocol announces itself ring-wide immediately, so from
    // the restart instant on the cub is reachable again (modulo the
    // checker's grace, which absorbs the announcement latency).
    let mut restarts: Vec<SimTime> = plan
        .process
        .iter()
        .filter_map(|p| match p {
            ProcessFault::Restart { cub: c, at } if *c == cub => Some(*at),
            _ => None,
        })
        .collect();
    restarts.sort();
    let stall_end = |down_at: SimTime| {
        restarts
            .iter()
            .copied()
            .find(|&r| r > down_at)
            .unwrap_or(SimTime::MAX)
    };
    for p in &plan.process {
        match p {
            ProcessFault::Crash { cub: c, at } if *c == cub => out.add(*at, stall_end(*at)),
            ProcessFault::PowerDomain { cubs, at } if cubs.contains(&cub) => {
                out.add(*at, stall_end(*at))
            }
            ProcessFault::Freeze {
                cub: c,
                from,
                until,
            } if *c == cub => out.add(*from, *until),
            _ => {}
        }
    }
    for (from, heal) in partitions_separating(plan, topo, cub, observer) {
        out.add(from, heal);
    }
    out
}

/// The `(from, heal)` windows of every partition in `plan` that puts
/// `cub` and `observer` on opposite sides.
fn partitions_separating(
    plan: &FaultPlan,
    topo: Topology,
    cub: u32,
    observer: u32,
) -> Vec<(SimTime, SimTime)> {
    let cub_node = topo.cub_node(cub);
    let obs_node = topo.cub_node(observer);
    let in_group = |group: &[NodeSel], node: u32| group.iter().any(|&s| topo.matches(s, node));
    plan.partitions
        .iter()
        .filter(|p| {
            (in_group(&p.a, cub_node) && in_group(&p.b, obs_node))
                || (in_group(&p.b, cub_node) && in_group(&p.a, obs_node))
        })
        .map(|p| (p.from, p.heal))
        .collect()
}

/// The probability that a probabilistic-drop window silences a ping pair
/// for longer than the deadman timeout: every ping that should land in a
/// timeout-sized window must drop, and with pings every `ping_interval`
/// that is `timeout / ping_interval` consecutive drops (at least one).
/// Using the floor is conservative — fewer assumed pings means a higher
/// silence probability, so borderline windows err toward "this drop
/// clause could have caused the declaration".
pub fn silence_probability(
    drop_prob: f64,
    timeout: SimDuration,
    ping_interval: SimDuration,
) -> f64 {
    if drop_prob <= 0.0 {
        return 0.0;
    }
    let pings = if ping_interval == SimDuration::ZERO {
        1
    } else {
        timeout.div_duration(ping_interval).max(1)
    };
    drop_prob.powi(pings.min(i32::MAX as u64) as i32)
}

/// The intervals during which a probabilistic-drop clause could
/// plausibly have silenced `cub`'s pings toward `observer`: every link
/// window matching the pair whose [`silence_probability`] is at least
/// `min_prob`. Windows below the threshold are *excluded* — a declare
/// during a 0.1%-drop window is still a live cub declared dead, not an
/// unlucky ping streak (at `min_prob = 1e-9` the whole campaign would
/// see such a streak once per ~billion windows).
pub fn drop_silence_intervals(
    plan: &FaultPlan,
    topo: Topology,
    cub: u32,
    observer: u32,
    timeout: SimDuration,
    ping_interval: SimDuration,
    min_prob: f64,
) -> Intervals {
    let mut out = Intervals::new();
    let cub_node = topo.cub_node(cub);
    let obs_node = topo.cub_node(observer);
    for l in &plan.links {
        if topo.matches(l.src, cub_node)
            && topo.matches(l.dst, obs_node)
            && silence_probability(l.drop_prob, timeout, ping_interval) >= min_prob
        {
            out.add(l.from, l.until);
        }
    }
    out
}

/// One observed deadman declaration, lifted out of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedDeclare {
    /// When the declaration happened.
    pub at: SimTime,
    /// The cub that declared the failure.
    pub declarer: u32,
    /// The cub declared dead.
    pub failed: u32,
    /// The silence the declarer measured.
    pub silence: SimDuration,
}

/// A genuine communication stall observed in the run itself rather than
/// declared by the plan — a cub that fenced itself off after learning it
/// was declared dead (a partition-induced cascade), or was power-cut by a
/// protocol reaction. The chaos runner lifts these out of the trace
/// (`cub-fenced` / protocol-side `power-cut`, closed by `cub-restart`) so
/// that declarations against genuinely silent cubs the *plan* never
/// touched still count as justified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedStall {
    /// The silent cub.
    pub cub: u32,
    /// When the silence began.
    pub from: SimTime,
    /// When it ended (`SimTime::MAX` if it never did).
    pub until: SimTime,
}

/// Checks that every declaration in `declares` is justified: the measured
/// silence strictly exceeds `timeout`, and the declared cub was genuinely
/// unable to reach its declarer for essentially the whole claimed silence.
///
/// What counts as unable: the plan's own stalls ([`stall_intervals`]);
/// the `observed` ones lifted out of the run — during a partition each
/// side declares the other dead, and after the heal the fenced losers are
/// genuinely silent without any plan clause saying so; and, when `drops`
/// is `Some((ping_interval, min_prob))`, every drop window matching the
/// declared pair whose [`silence_probability`] reaches `min_prob` (dropped
/// pings plausibly caused the silence; windows below the threshold do not,
/// so a declaration they "explain" is still a live cub declared dead).
/// `ping_interval` is the heartbeat period the probability model divides
/// the timeout by.
///
/// `grace` absorbs the protocol's honest measurement slop at both ends of
/// the silence window — the last ping before a stall can land up to one
/// deadman interval plus one worst-case network latency after the stall
/// begins, and symmetrically a resumed cub's first ping takes as long to
/// arrive — so the stall intervals must cover
/// `[at - silence + grace, at - grace)`. Callers pass
/// `deadman_interval + latency.worst_case()`.
///
/// Returns one human-readable violation string per unjustified
/// declaration (empty = invariant holds).
pub fn check_deadman_justified(
    plan: &FaultPlan,
    topo: Topology,
    declares: &[ObservedDeclare],
    observed: &[ObservedStall],
    timeout: SimDuration,
    grace: SimDuration,
    drops: Option<(SimDuration, f64)>,
) -> Vec<String> {
    let mut violations = Vec::new();
    for d in declares {
        if d.silence <= timeout {
            violations.push(format!(
                "cub{} declared cub{} dead at {} with silence {} <= deadman timeout {}",
                d.declarer, d.failed, d.at, d.silence, timeout
            ));
            continue;
        }
        let mut stalls = stall_intervals(plan, topo, d.failed, d.declarer);
        for s in observed.iter().filter(|s| s.cub == d.failed) {
            stalls.add(s.from, s.until);
        }
        if let Some((ping_interval, min_prob)) = drops {
            let windows = drop_silence_intervals(
                plan,
                topo,
                d.failed,
                d.declarer,
                timeout,
                ping_interval,
                min_prob,
            );
            for &(from, until) in windows.spans() {
                stalls.add(from, until);
            }
        }
        // A healed partition leaves the pair's failure views divergent:
        // each side declared the other dead, so the declared cub pings
        // its *believed* successor — often a cub the cascade has already
        // fenced — and the declarer structurally hears nothing until the
        // views reconcile. The reconciliation takes at most one more
        // deadman round (timeout plus a check tick and the notice
        // latency, both inside `grace`), so the pair's stall extends one
        // settle window past the heal; any silence claimed beyond it
        // means baselines were not reset and is a genuine violation.
        let settle = timeout + grace + grace;
        for (from, heal) in partitions_separating(plan, topo, d.failed, d.declarer) {
            if heal < SimTime::MAX {
                stalls.add(from, heal + settle);
            }
        }
        let from = d.at.saturating_sub(d.silence) + grace;
        let until = d.at.saturating_sub(grace);
        if !stalls.covers(from, until) {
            violations.push(format!(
                "cub{} declared cub{} dead at {} (silence {}), but it was stalled only \
                 during {:?} — a live cub was declared dead",
                d.declarer,
                d.failed,
                d.at,
                d.silence,
                stalls.spans()
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    fn topo() -> Topology {
        Topology { num_cubs: 4 }
    }

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).expect("plan parses")
    }

    /// The checker at a 2 s deadman timeout and 600 ms grace; with
    /// `min_prob`, drop windows are modelled at one ping every 500 ms.
    fn check(
        plan: &FaultPlan,
        declares: &[ObservedDeclare],
        observed: &[ObservedStall],
        min_prob: Option<f64>,
    ) -> Vec<String> {
        let drops = min_prob.map(|p| (SimDuration::from_millis(500), p));
        let grace = SimDuration::from_millis(600);
        check_deadman_justified(plan, topo(), declares, observed, d(2), grace, drops)
    }

    #[test]
    fn intervals_merge_and_cover() {
        let mut iv = Intervals::new();
        assert!(iv.is_empty());
        iv.add(t(5), t(7));
        iv.add(t(1), t(3));
        iv.add(t(2), t(5)); // bridges the gap
        assert_eq!(iv.spans(), &[(t(1), t(7))]);
        assert!(iv.covers(t(2), t(6)));
        assert!(iv.covers(t(1), t(7)));
        assert!(!iv.covers(t(0), t(2)));
        assert!(!iv.covers(t(6), t(8)));
        // Empty queries and degenerate adds.
        assert!(iv.covers(t(9), t(9)));
        iv.add(t(8), t(8));
        assert_eq!(iv.spans().len(), 1);
    }

    #[test]
    fn stalls_combine_crash_freeze_and_partition() {
        let mixed = plan(
            "freeze c2 from=1s until=3s\n\
             partition c2|c3 from=5s heal=6s\n\
             crash c2 at=8s\n",
        );
        // Cub 3 observes all three stalls of cub 2.
        let stalls = stall_intervals(&mixed, topo(), 2, 3);
        assert_eq!(
            stalls.spans(),
            &[(t(1), t(3)), (t(5), t(6)), (t(8), SimTime::MAX)]
        );
        // Cub 1 is on cub 2's side of nothing: the partition doesn't
        // separate them, so only the freeze and the crash stall the pair.
        let stalls = stall_intervals(&mixed, topo(), 2, 1);
        assert_eq!(stalls.spans(), &[(t(1), t(3)), (t(8), SimTime::MAX)]);
        // A power-domain cut stalls every member.
        let pd = plan("power-domain c0,c1 at=4s");
        assert_eq!(
            stall_intervals(&pd, topo(), 1, 2).spans(),
            &[(t(4), SimTime::MAX)]
        );
        assert!(stall_intervals(&pd, topo(), 2, 1).is_empty());
    }

    #[test]
    fn justified_and_unjustified_declares() {
        let plan = plan("crash c1 at=5s");
        // Silence accumulated since the crash: justified.
        let ok = ObservedDeclare {
            at: t(8),
            declarer: 2,
            failed: 1,
            silence: d(3),
        };
        assert!(check(&plan, &[ok], &[], None).is_empty());
        // Silence at exactly the timeout: the strict threshold was violated.
        let early = ObservedDeclare {
            silence: d(2),
            ..ok
        };
        let v = check(&plan, &[early], &[], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("<= deadman timeout"), "{}", v[0]);
        // A declaration against a cub the plan never stalls: a live cub
        // was declared dead.
        let phantom = ObservedDeclare { failed: 3, ..ok };
        let v = check(&plan, &[phantom], &[], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("live cub"), "{}", v[0]);
    }

    #[test]
    fn freeze_barely_long_enough_is_justified() {
        // Frozen 1s..5s; declared at 4.5s with silence 2.2s. The stall
        // must cover [4.5 - 2.2 + 0.6, 4.5 - 0.6) = [2.9, 3.9) — it does.
        let declare = ObservedDeclare {
            at: SimTime::from_millis(4_500),
            declarer: 1,
            failed: 0,
            silence: SimDuration::from_millis(2_200),
        };
        let long = plan("freeze c0 from=1s until=5s");
        assert!(check(&long, &[declare], &[], None).is_empty());
        // The same declare against a freeze that ended at 3s is not
        // covered: the cub was back for ~1.5s of the claimed silence.
        let short = plan("freeze c0 from=1s until=3s");
        assert_eq!(check(&short, &[declare], &[], None).len(), 1);
    }

    #[test]
    fn restart_ends_a_crash_stall() {
        let crashes = plan("crash c1 at=5s\nrestart c1 at=10s\ncrash c1 at=20s\n");
        // First crash stalls until the restart; the second forever.
        assert_eq!(
            stall_intervals(&crashes, topo(), 1, 2).spans(),
            &[(t(5), t(10)), (t(20), SimTime::MAX)]
        );
        // Power-domain cuts pair with restarts the same way.
        let pd = plan("power-domain c1,c2 at=4s\nrestart c2 at=9s\n");
        assert_eq!(stall_intervals(&pd, topo(), 2, 0).spans(), &[(t(4), t(9))]);
        assert_eq!(
            stall_intervals(&pd, topo(), 1, 0).spans(),
            &[(t(4), SimTime::MAX)]
        );
        // A declaration whose silence window reaches past the restart is
        // unjustified: the cub was back and talking.
        let late = ObservedDeclare {
            at: t(14),
            declarer: 2,
            failed: 1,
            silence: d(6),
        };
        let v = check(&crashes, &[late], &[], None);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("live cub"), "{}", v[0]);
        // The same declaration landing before the restart is justified.
        let ok = ObservedDeclare {
            at: t(9),
            silence: d(3),
            ..late
        };
        assert!(check(&crashes, &[ok], &[], None).is_empty());
    }

    #[test]
    fn observed_stalls_justify_fencing_cascades() {
        // The plan never touches cub 3, but the run fenced it at t=5
        // (e.g. the partition loser): a later declaration is justified
        // only when the fencing interval is passed in.
        let plan = FaultPlan::new();
        let declare = ObservedDeclare {
            at: t(9),
            declarer: 0,
            failed: 3,
            silence: d(3),
        };
        assert_eq!(check(&plan, &[declare], &[], None).len(), 1);
        let fence = ObservedStall {
            cub: 3,
            from: t(5),
            until: SimTime::MAX,
        };
        assert!(check(&plan, &[declare], &[fence], None).is_empty());
        // A stall for a different cub does not help.
        let other = ObservedStall { cub: 2, ..fence };
        assert_eq!(check(&plan, &[declare], &[other], None).len(), 1);
    }

    #[test]
    fn silence_probability_compounds_per_ping() {
        let timeout = d(2);
        let interval = SimDuration::from_millis(500);
        // Four pings must all drop: 0.5^4.
        let p = silence_probability(0.5, timeout, interval);
        assert!((p - 0.0625).abs() < 1e-12, "{p}");
        // Heavier loss, same window.
        assert!(silence_probability(0.9, timeout, interval) > p);
        // No drops, no silence.
        assert_eq!(silence_probability(0.0, timeout, interval), 0.0);
        // Degenerate intervals still assume at least one ping.
        assert_eq!(silence_probability(0.3, timeout, d(10)), 0.3);
        assert_eq!(silence_probability(0.3, timeout, SimDuration::ZERO), 0.3);
    }

    #[test]
    fn heavy_drop_windows_justify_declares_but_light_ones_do_not() {
        let min_prob = Some(1e-9);
        let declare = ObservedDeclare {
            at: t(8),
            declarer: 2,
            failed: 1,
            silence: d(3),
        };
        // A 70%-drop window on the pair's ping link: silence probability
        // 0.7^4 ≈ 0.24, far above threshold — the window is a plausible
        // stall and the declaration passes.
        let heavy = plan("drop c1>c2 prob=0.7 from=4s until=9s");
        assert!(check(&heavy, &[declare], &[], min_prob).is_empty());
        // Without the drop model the same declaration is flagged.
        assert_eq!(check(&heavy, &[declare], &[], None).len(), 1);
        // A 0.1%-drop window: silence probability 1e-12, below threshold.
        // Dropped pings cannot explain a full timeout of silence, so the
        // declaration is still a live cub declared dead.
        let light = plan("drop c1>c2 prob=0.001 from=4s until=9s");
        let v = check(&light, &[declare], &[], min_prob);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("live cub"), "{}", v[0]);
        // A heavy window on an unrelated link (controller-sourced, like
        // the lossy-control scenario) never silences a cub pair.
        let ctrl = plan("drop ctrl>* prob=0.9 from=4s until=9s");
        assert_eq!(check(&ctrl, &[declare], &[], min_prob).len(), 1);
        // The drop window only covers its own span: a silence claim
        // reaching outside the window is unjustified even at 70% drop.
        let early = ObservedDeclare {
            at: t(12),
            silence: d(3),
            ..declare
        };
        assert_eq!(check(&heavy, &[early], &[], min_prob).len(), 1);
    }

    #[test]
    fn drop_silence_intervals_select_matching_windows() {
        let timeout = d(2);
        let interval = SimDuration::from_millis(500);
        let plan = plan(
            "drop c1>c2 prob=0.5 from=1s until=3s\n\
             drop *>c2 prob=0.5 from=5s until=7s\n\
             drop c1>c2 prob=0.001 from=10s until=12s\n",
        );
        let iv = drop_silence_intervals(&plan, topo(), 1, 2, timeout, interval, 1e-9);
        // The wildcard source matches cub 1's node too; the light window
        // is filtered by the probability threshold.
        assert_eq!(iv.spans(), &[(t(1), t(3)), (t(5), t(7))]);
        // The reverse direction matches neither clause.
        assert!(drop_silence_intervals(&plan, topo(), 2, 1, timeout, interval, 1e-9).is_empty());
    }
}
