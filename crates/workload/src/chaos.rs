//! Chaos campaigns: a declarative fault plan injected into a loaded
//! system, with every run checked against the Tiger invariants.
//!
//! A chaos run is a pure function of `(TigerConfig, CatalogSpec, load,
//! FaultPlan)` — fault randomness draws from its own RNG subtree (see
//! [`tiger_core::TigerSystem::apply_fault_plan`]), so the same plan and
//! seed reproduce the identical injection sequence, metrics, and trace
//! at any fleet thread count. The invariants checked:
//!
//! 1. **No block double-delivered.** Tiger never retransmits; a client
//!    assembling the same block twice is a protocol bug. Control-plane
//!    duplication faults must not leak into the data plane. (Plans that
//!    force a fencing window — a freeze past the deadman timeout, or a
//!    partition — are exempt: the bounded hand-off overlap is by design.)
//! 2. **No live cub declared dead.** Every deadman declaration must be
//!    justified by a genuine communication stall at least as long as the
//!    claimed silence — declared by the plan (crashes, freezes,
//!    partitions separating the pair) or observed in the run itself
//!    (protocol-side fencing and power cuts, each closed by the cub's
//!    restart). Partitioned rings and probabilistic drops are both
//!    modeled, not skipped: a drop window justifies a declaration only
//!    when its per-pair silence probability — `drop_prob` compounded
//!    over a timeout's worth of pings — is non-negligible (see
//!    [`tiger_faults::check_deadman_justified`]).
//! 3. **Schedule views stay within `maxVStateLead`** (plus the
//!    declustered forwarding slack) on every living cub.
//! 4. **Loss window bounded after a single clean failure**: when the
//!    plan is exactly one cub crash, the span between the earliest and
//!    latest lost block must stay within
//!    [`tiger_faults::loss_window_bound`].
//! 5. **Rejoin convergence bounded.** A restarted cub that re-accepts a
//!    slot (`rejoin-done`) must do so within the hand-back window plus
//!    scheduling slack of its `cub-restart` — re-learning the schedule
//!    must not take longer than the §4 ownership-insertion path allows.
//!    When the rejoin handshake carried a non-empty retired-log replay
//!    (a `retired-replay` trace with `count > 0`), the bound tightens
//!    to *under one forward interval*: the predecessor pushed the
//!    schedule tail directly, so convergence must not wait for periodic
//!    forwarding. The stubbed-replay negative control lives in this
//!    module's tests: replay off, the same scenario converges only at
//!    forwarding cadence.
//! 6. **Restripe duration within the §6.4 bandwidth estimate.** A
//!    fault-free live restripe must cut over no sooner than the raw
//!    transfer time of its bottleneck disk/NIC and no later than the
//!    half-duty background-bandwidth estimate times a contention factor.
//! 7. **Spares never widen loss** ([`run_shield_ablation`]). With
//!    `spare_shield` on, the per-(viewer, block) missing set must be a
//!    subset of the same run's missing set with the shield off: interim
//!    mirror capacity may only recover exposure, never add it. Checked
//!    as a dual run under fixed (zero-jitter) control latency so the
//!    two runs differ only in shield behavior.
//!
//! Violations of the omniscient checker and the NIC/schedule asserts
//! (`Metrics::violations`) are folded in as well.

use std::collections::BTreeSet;

use tiger_core::{TigerConfig, TigerSystem};
use tiger_faults::{
    check_deadman_justified, loss_window_bound, FaultPlan, ObservedDeclare, ObservedStall,
    ProcessFault,
};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{RestripePlan, StripeConfig};
use tiger_net::LatencyModel;
use tiger_sim::{Bandwidth, RngTree, SimDuration, SimTime};
use tiger_trace::TraceEvent;

use crate::catalog::{populate_catalog, CatalogSpec};
use crate::reconfig::lost_blocks;

/// The silence-probability threshold below which a probabilistic-drop
/// window does *not* justify a deadman declaration: an all-pings-dropped
/// streak rarer than one in a billion windows is treated as impossible,
/// so a declaration during such a window is still a live cub declared
/// dead. (For scale: the lossy-control scenario's 20% drop rate over the
/// small system's four-ping timeout would sit at `0.2^4 = 1.6e-3`, nine
/// orders of magnitude above the cut — heavy loss stays modeled.)
const DROP_SILENCE_MIN_PROB: f64 = 1e-9;

/// Configuration of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// System configuration.
    pub tiger: TigerConfig,
    /// Content catalog.
    pub catalog: CatalogSpec,
    /// Fraction of capacity to load before the faults begin (ignored when
    /// `workload` is set).
    pub load: f64,
    /// Optional declarative demand: when set, the load phase is driven by
    /// this `tiger-workgen` plan (skewed popularity, flash crowds,
    /// interactive sessions) instead of the uniform capacity ramp. The
    /// plan's *embedded* fault plan is NOT applied — set `plan` to
    /// `workload.faults` (or anything else) explicitly, so the invariants
    /// below always see the faults they are checked against.
    pub workload: Option<tiger_workgen::WorkloadPlan>,
    /// The fault plan to inject.
    pub plan: FaultPlan,
    /// How long to run.
    pub run_to: SimTime,
    /// Trace-ring capacity. The trace is always on in a chaos run — it
    /// is how the deadman invariant observes declarations, and it is the
    /// artifact dumped when an invariant fails. Enabling it cannot
    /// change the run (the tracer is a pure observer).
    pub trace_cap: usize,
}

impl ChaosConfig {
    /// A seconds-long run on the small test system.
    pub fn quick(plan: FaultPlan) -> Self {
        let mut tiger = TigerConfig::small_test();
        tiger.disk = tiger.disk.without_blips();
        tiger.deadman_timeout = SimDuration::from_millis(2_000);
        ChaosConfig {
            tiger,
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(200), 4),
            load: 0.5,
            workload: None,
            plan,
            run_to: SimTime::from_secs(90),
            trace_cap: 65_536,
        }
    }
}

/// What one chaos run observed.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Streams playing at the end of the run.
    pub streams: u32,
    /// Blocks the cubs transmitted.
    pub blocks_sent: u64,
    /// Fully-assembled blocks the clients received.
    pub blocks_received: u64,
    /// Blocks the clients should have received but did not.
    pub blocks_missing: u64,
    /// Fully-assembled blocks delivered more than once (invariant 1).
    pub dup_blocks: u64,
    /// Injected transient read errors the disks served.
    pub transient_errors: u64,
    /// Deadman declarations, in declaration order.
    pub declares: Vec<ObservedDeclare>,
    /// Span between the earliest and latest lost block (0 without loss).
    pub loss_window_secs: f64,
    /// Every invariant violation (empty = the run is clean).
    pub violations: Vec<String>,
    /// The rendered trace ring (faults inline with protocol reactions).
    pub trace: String,
}

/// One line summarizing the deterministic payload of an outcome — the
/// quantity the chaos sweep prints and the thread-count bit-identity
/// test compares.
pub fn chaos_digest(o: &ChaosOutcome) -> String {
    format!(
        "streams {}  sent {}  received {}  missing {}  dup {}  transient {}  \
         declares {}  loss_window {:.3}s  violations {}",
        o.streams,
        o.blocks_sent,
        o.blocks_received,
        o.blocks_missing,
        o.dup_blocks,
        o.transient_errors,
        o.declares.len(),
        o.loss_window_secs,
        o.violations.len(),
    )
}

/// Runs one chaos campaign: load the system, apply the plan, run to the
/// horizon, then check every invariant.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    run_chaos_full(cfg).0
}

/// [`run_chaos`] plus the exact per-(viewer, block) missing set — the
/// quantity invariant 7's ablation compares across shield settings.
fn run_chaos_full(cfg: &ChaosConfig) -> (ChaosOutcome, BTreeSet<(ViewerInstance, u32)>) {
    // Plans that restripe need spare machines on the floor; provision
    // them automatically so a plan is self-contained (the spares are
    // inert until the cut-over, so a plan without restripes is
    // unaffected by a non-zero `spare_cubs` in its base config).
    let mut tiger = cfg.tiger.clone();
    // Steps execute in sequence, so the peak draw is the running sum of
    // grows minus the shrinks *already cut over* — a grow consumes its
    // spares at cut-over, a shrink returns the drained cubs to the pool.
    let mut spares_needed = 0u32;
    let mut drawn = 0i64;
    for r in &cfg.plan.restripes {
        drawn += i64::from(r.add_cubs);
        spares_needed = spares_needed.max(u32::try_from(drawn.max(0)).expect("small"));
        drawn -= i64::from(r.remove_cubs);
    }
    tiger.spare_cubs = tiger.spare_cubs.max(spares_needed);
    let mut sys = TigerSystem::new(tiger.clone());
    sys.enable_trace(cfg.trace_cap);
    let files = populate_catalog(&mut sys, &cfg.catalog);
    // The §6.4 duration estimate, computed from the same catalog the
    // live restriper will plan over (streaming never changes the
    // catalog, so the pre-run plan equals the one `restripe-start`
    // computes).
    let restripe_estimate = cfg.plan.restripes.first().map(|r| {
        let old = tiger.stripe;
        let new = StripeConfig::new(
            old.num_cubs + r.add_cubs - r.remove_cubs,
            old.disks_per_cub,
            old.decluster,
        );
        let plan = RestripePlan::plan(&sys.shared().catalog, old, new);
        // Fastest conceivable drain: bottleneck bytes at the outermost
        // zone rate with the whole NIC — a hard lower bound on any
        // schedule that actually moves the bytes.
        let floor = plan.estimate_duration(tiger.disk.rate_at(0.0), tiger.nic_capacity);
        // The §6.4-style budget: innermost-zone media rate at the
        // pump's half-duty pacing.
        let half_inner =
            Bandwidth::from_bits_per_sec(tiger.disk.rate_at(0.9999).bits_per_sec() / 2);
        let budget = plan.estimate_duration(half_inner, tiger.nic_capacity);
        (floor, budget)
    });
    if let Some(wplan) = &cfg.workload {
        crate::driven::drive_plan(&mut sys, wplan, &files);
    } else {
        let mut chooser = RngTree::new(cfg.tiger.seed).fork("chaos-files", 0);
        let capacity = sys.shared().params.capacity();
        let want = ((capacity as f64) * cfg.load).round() as u32;
        let mut now = SimTime::from_millis(100);
        for _ in 0..want {
            let client = sys.add_client();
            let file = files[chooser.gen_range(0..files.len())];
            sys.request_start(now, client, file);
            now += SimDuration::from_millis(150);
        }
    }
    sys.apply_fault_plan(&cfg.plan);
    sys.run_until(cfg.run_to);

    let report = sys.all_clients_report();
    let transient_errors: u64 = sys
        .cubs()
        .iter()
        .flat_map(|c| c.disks())
        .map(tiger_disk::Disk::total_transient_errors)
        .sum();
    let declares: Vec<ObservedDeclare> = sys
        .tracer()
        .records()
        .iter()
        .filter_map(|rec| match rec.ev {
            TraceEvent::DeadmanDeclare { failed, silence_ns } => Some(ObservedDeclare {
                at: rec.at,
                declarer: rec.cub,
                failed,
                silence: SimDuration::from_nanos(silence_ns),
            }),
            _ => None,
        })
        .collect();

    let mut violations = Vec::new();
    // Invariant 1: no double delivery. Two sanctioned exceptions, both
    // fencing windows rather than bugs: a freeze that outlasts the
    // deadman timeout (the resumed zombie serves a handful of
    // already-taken-over slots before the fencing reply lands), and a
    // partition (the healed ring's divergent failure views fence live
    // cubs the same way).
    let zombie_window = cfg.plan.process.iter().any(|p| {
        matches!(p, ProcessFault::Freeze { from, until, .. }
            if until.saturating_since(*from) > cfg.tiger.deadman_timeout)
    }) || !cfg.plan.partitions.is_empty();
    if report.dup_blocks > 0 && !zombie_window {
        violations.push(format!(
            "{} blocks were delivered more than once (Tiger never retransmits)",
            report.dup_blocks
        ));
    }
    // Invariant 2: every declaration justified by a genuine stall. The
    // plan declares crashes, freezes, and partitions (the stall algebra
    // separates partitioned pairs); on top of those, fencing cascades
    // and protocol-side power cuts observed in the trace — each closed
    // by that cub's restart — justify the post-heal declarations a
    // partitioned ring produces. Probabilistic drop windows are modeled
    // rather than skipped: a window whose per-pair silence probability
    // (`drop_prob` compounded over the timeout's worth of pings) reaches
    // `DROP_SILENCE_MIN_PROB` counts as a plausible stall for the pair;
    // anything rarer cannot explain a full timeout of silence, so a
    // declaration it would "cover" is still a live cub declared dead.
    let ring_observable = cfg.plan.links.iter().all(|l| l.drop_prob == 0.0);
    let mut observed_stalls: Vec<ObservedStall> = Vec::new();
    for rec in sys.tracer().records() {
        match rec.ev {
            TraceEvent::CubFenced { cub } | TraceEvent::PowerCut { cub } => {
                observed_stalls.push(ObservedStall {
                    cub,
                    from: rec.at,
                    until: SimTime::MAX,
                });
            }
            TraceEvent::CubRestart { cub } => {
                for s in observed_stalls.iter_mut().rev() {
                    if s.cub == cub && s.until == SimTime::MAX {
                        s.until = rec.at;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    // Injected link delay/jitter stretches legitimate ping gaps.
    let injected_delay = cfg
        .plan
        .links
        .iter()
        .map(|l| l.extra_delay + l.extra_jitter)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let grace = cfg.tiger.deadman_interval + cfg.tiger.latency.worst_case() + injected_delay;
    violations.extend(check_deadman_justified(
        &cfg.plan,
        sys.shared().topology,
        &declares,
        &observed_stalls,
        cfg.tiger.deadman_timeout,
        grace,
        Some((cfg.tiger.deadman_interval, DROP_SILENCE_MIN_PROB)),
    ));
    // Invariant 3: schedule views within the legitimate lead.
    violations.extend(sys.check_view_lead());
    // Invariant 4: a single clean crash loses blocks only inside the
    // detection-plus-takeover window: the span between the expected
    // arrivals of the earliest and latest block any client lost.
    let mut missing = BTreeSet::new();
    let mut span: Option<(f64, f64)> = None;
    for (vi, b, at) in lost_blocks(&sys, cfg.tiger.block_play_time) {
        missing.insert((vi, b));
        span = Some(span.map_or((at, at), |(e, l)| (e.min(at), l.max(at))));
    }
    let loss_window_secs = span.map_or(0.0, |(e, l)| l - e);
    if let Some(bound) = single_crash_bound(cfg) {
        if loss_window_secs > bound.as_secs_f64() {
            violations.push(format!(
                "loss window {loss_window_secs:.3}s exceeds the single-failure bound {bound}",
            ));
        }
    }
    // Invariant 5: rejoin convergence. The covering successor relays
    // hand-back states as they come due, so a rejoined cub's first
    // re-accepted slot must land within the hand-back window plus
    // scheduling slack of its restart. Absence of `rejoin-done` is not a
    // violation — an idle cub has nothing to re-accept — and freezes
    // widen the bound by their longest window (the rejoiner or its
    // partner may be frozen mid-handshake). Partitions and drops delay
    // the relay unboundedly, so the bound is checked only on observable
    // rings.
    if ring_observable && cfg.plan.partitions.is_empty() {
        let longest_freeze = cfg
            .plan
            .process
            .iter()
            .filter_map(|p| match p {
                ProcessFault::Freeze { from, until, .. } => Some(until.saturating_since(*from)),
                _ => None,
            })
            .max()
            .unwrap_or(SimDuration::ZERO);
        let rejoin_bound = cfg.tiger.min_vstate_lead
            + cfg.tiger.forward_interval.mul_u64(2)
            + injected_delay
            + longest_freeze
            + SimDuration::from_secs(2);
        // The sub-interval bound for replayed rejoins: the predecessor's
        // `RetiredReplay` batch hands the rejoiner its imminent schedule
        // directly, so the first re-accepted slot cannot be waiting on a
        // periodic forwarding pass.
        let replay_bound = cfg.tiger.forward_interval + injected_delay + longest_freeze;
        let records = sys.tracer().records();
        for rec in &records {
            let TraceEvent::CubRestart { cub } = rec.ev else {
                continue;
            };
            let done = records.iter().find(|r| {
                r.at >= rec.at && matches!(r.ev, TraceEvent::RejoinDone { cub: c } if c == cub)
            });
            if let Some(done) = done {
                let took = done.at.saturating_since(rec.at);
                // The tight bound applies when the handshake delivered a
                // non-empty replay batch: acceptance is then immediate
                // (batch latency), never a wait on periodic forwarding.
                // An empty batch (idle predecessor) legitimately falls
                // back to the passive path and its legacy bound.
                let replayed = cfg.tiger.retired_replay
                    && records.iter().any(|r| {
                        r.at >= rec.at
                            && r.at <= done.at
                            && matches!(r.ev,
                                TraceEvent::RetiredReplay { to, count } if to == cub && count > 0)
                    });
                let bound = if replayed { replay_bound } else { rejoin_bound };
                if took > bound {
                    violations.push(format!(
                        "cub{cub} took {took} to re-accept a slot after its restart at {} \
                         (rejoin bound {bound}{})",
                        rec.at,
                        if replayed {
                            ", sub-interval replay"
                        } else {
                            ""
                        }
                    ));
                }
            }
        }
    }
    // Invariant 6: §6.4 restripe duration. A fault-free restripe must
    // drain no faster than the raw bottleneck transfer (the floor) and
    // no slower than the half-duty background estimate times a
    // contention factor (foreground streams own the disk first) plus
    // fixed admission slack. Plans that crash or partition mid-restripe
    // park moves for arbitrary repair windows, so only quiet plans are
    // held to the budget.
    let quiet_restripe = !cfg.plan.restripes.is_empty()
        && cfg.plan.process.is_empty()
        && cfg.plan.partitions.is_empty()
        && cfg.plan.disks.is_empty()
        && cfg.plan.links.is_empty();
    if let (Some((floor, budget)), true) = (restripe_estimate, quiet_restripe) {
        let start = sys.tracer().records().iter().find_map(|r| match r.ev {
            TraceEvent::RestripeStart { moves } => Some((r.at, moves)),
            _ => None,
        });
        let cutover = sys.tracer().records().iter().find_map(|r| match r.ev {
            TraceEvent::RestripeCutover { .. } => Some(r.at),
            _ => None,
        });
        let bound = budget.mul_u64(3) + SimDuration::from_secs(20);
        match (start, cutover) {
            (Some((started, moves)), Some(cut)) if moves > 0 => {
                let elapsed = cut.saturating_since(started);
                if elapsed > bound {
                    violations.push(format!(
                        "restripe took {elapsed}, over the §6.4 budget {bound} \
                         (half-duty estimate {budget})"
                    ));
                }
                if elapsed < floor {
                    violations.push(format!(
                        "restripe finished in {elapsed}, faster than the raw \
                         bottleneck transfer {floor} — blocks were not moved"
                    ));
                }
            }
            // A missing cut-over is only damning when the run gave the
            // budget room to elapse; a horizon shorter than the budget
            // simply did not watch long enough.
            (Some((started, _)), None) if cfg.run_to.saturating_since(started) > bound => {
                violations.push(
                    "restripe never cut over on a fault-free run (moves are parked or lost)"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
    // Omniscient checker + NIC/schedule asserts.
    violations.extend(sys.take_violations());

    let trace = sys.tracer().dump().unwrap_or_default();
    let outcome = ChaosOutcome {
        streams: sys.controller().active_streams(),
        blocks_sent: sys.metrics().loss.blocks_sent,
        blocks_received: report.blocks_received,
        blocks_missing: report.blocks_missing,
        dup_blocks: report.dup_blocks,
        transient_errors,
        declares,
        loss_window_secs,
        violations,
        trace,
    };
    (outcome, missing)
}

/// The result of invariant 7's shield ablation: the same campaign run
/// twice, differing only in `spare_shield`.
#[derive(Clone, Debug)]
pub struct ShieldAblation {
    /// The run with spares serving shadow copies.
    pub shielded: ChaosOutcome,
    /// The run with the shield disabled.
    pub unshielded: ChaosOutcome,
    /// Invariant 7 violations: blocks the shielded run lost that the
    /// unshielded run delivered (empty = the shield only ever helped).
    pub violations: Vec<String>,
}

/// Invariant 7: runs `cfg` twice — `spare_shield` on, then off — under
/// fixed (zero-jitter) control latency, and checks that the shielded
/// run's per-(viewer, block) missing set is a subset of the unshielded
/// run's. Interim mirror capacity may narrow the loss window, never
/// widen it. Each run's own invariant checks land in its outcome's
/// `violations` as usual; this function's `violations` field carries
/// only the subset check.
pub fn run_shield_ablation(cfg: &ChaosConfig) -> ShieldAblation {
    // Zero jitter: shield traffic reorders RNG draws between the two
    // runs, so jittered latency would perturb unrelated deliveries and
    // muddy the subset comparison. Fix latency at the model's worst
    // case — both runs see the identical (conservative) control plane.
    let mut on = cfg.clone();
    on.tiger.latency = LatencyModel::fixed(cfg.tiger.latency.worst_case());
    on.tiger.spare_shield = true;
    let mut off = on.clone();
    off.tiger.spare_shield = false;
    let (shielded, miss_on) = run_chaos_full(&on);
    let (unshielded, miss_off) = run_chaos_full(&off);
    let mut violations = Vec::new();
    let widened: Vec<_> = miss_on.difference(&miss_off).collect();
    if let Some((v, b)) = widened.first() {
        violations.push(format!(
            "spare shield lost {} block(s) the unshielded run delivered (first: {v} block {b}) \
             — interim mirror capacity must never widen loss",
            widened.len(),
        ));
    }
    ShieldAblation {
        shielded,
        unshielded,
        violations,
    }
}

/// The loss-window bound, when the plan is exactly one cub crash (the
/// only shape the invariant covers: anything else — partitions, disk
/// faults, correlated cuts — can legitimately widen the window).
fn single_crash_bound(cfg: &ChaosConfig) -> Option<SimDuration> {
    let p = &cfg.plan;
    if !p.links.is_empty() || !p.partitions.is_empty() || !p.disks.is_empty() {
        return None;
    }
    // A crash mid-restripe widens the window: the cut-over fences every
    // viewer and re-inserts it at its high-water mark.
    if !p.restripes.is_empty() {
        return None;
    }
    match p.process.as_slice() {
        [ProcessFault::Crash { .. }] => Some(loss_window_bound(
            cfg.tiger.deadman_timeout,
            cfg.tiger.deadman_interval,
            cfg.tiger.latency.worst_case(),
            cfg.tiger.block_play_time,
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).expect("plan parses")
    }

    #[test]
    fn clean_single_crash_passes_every_invariant() {
        let out = run_chaos(&ChaosConfig::quick(plan("crash c1 at=30s")));
        assert!(out.streams > 0);
        assert!(!out.declares.is_empty(), "the crash was never detected");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.trace.contains("power-cut"));
    }

    #[test]
    fn control_duplication_does_not_double_deliver_blocks() {
        let plan = plan("dup *>* prob=0.5 from=0s until=90s");
        let out = run_chaos(&ChaosConfig::quick(plan));
        assert_eq!(out.dup_blocks, 0, "data plane must never duplicate");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.trace.contains("net-dup"));
    }

    #[test]
    fn freeze_past_deadman_fences_the_zombie() {
        // Frozen well past the 2s deadman timeout: the cub is declared
        // dead and taken over; when it resumes and pings, the successor
        // replies with a FailureNotice naming the zombie, which fences
        // itself. The trace must show the whole arc.
        let plan = plan("freeze c1 from=30s until=40s");
        let out = run_chaos(&ChaosConfig::quick(plan));
        assert!(!out.declares.is_empty(), "the stall was never declared");
        assert!(out.trace.contains("cub-freeze"));
        assert!(out.trace.contains("cub-resume"));
        assert!(out.trace.contains("cub-fenced"), "zombie was not fenced");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn crash_and_restart_rejoins_within_bound() {
        // A crash followed by a restart: the rejoin handshake must show
        // in the trace, the convergence invariant must hold, and the
        // fresh monitoring baseline must keep the rejoined cub from
        // being re-declared dead.
        let plan = plan("crash c1 at=20s\nrestart c1 at=40s\n");
        let out = run_chaos(&ChaosConfig::quick(plan));
        assert!(out.trace.contains("cub-restart"), "restart never traced");
        assert!(
            out.trace.contains("rejoin-done"),
            "rejoined cub never re-accepted a slot"
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            !out.declares
                .iter()
                .any(|d| d.failed == 1 && d.at > SimTime::from_secs(40)),
            "rejoined cub re-declared dead after its restart"
        );
    }

    /// CubRestart → first RejoinDone, parsed back out of the rendered
    /// trace (the same records invariant 5 walks).
    fn rejoin_took(trace: &str) -> SimDuration {
        let recs = tiger_trace::parse_dump(trace).expect("trace parses");
        let restart = recs
            .iter()
            .find(|r| matches!(r.ev, TraceEvent::CubRestart { .. }))
            .expect("restart traced");
        let done = recs
            .iter()
            .find(|r| r.at >= restart.at && matches!(r.ev, TraceEvent::RejoinDone { .. }))
            .expect("rejoin-done traced");
        done.at.saturating_since(restart.at)
    }

    #[test]
    fn fast_rejoin_replays_the_retired_tail_sub_interval() {
        // With retired-log replay on (the default), the predecessor
        // pushes the rejoiner's imminent schedule in the rejoin
        // handshake: convergence must land under one forward interval,
        // and invariant 5's tightened bound must hold.
        let cfg = ChaosConfig::quick(plan("crash c1 at=20s\nrestart c1 at=40s\n"));
        assert!(cfg.tiger.retired_replay, "replay should be the default");
        let out = run_chaos(&cfg);
        let recs = tiger_trace::parse_dump(&out.trace).expect("trace parses");
        assert!(
            recs.iter().any(|r| matches!(
                r.ev, TraceEvent::RetiredReplay { count, .. } if count > 0
            )),
            "rejoin handshake never replayed a non-empty retired tail"
        );
        assert!(out.trace.contains("rejoin-done"));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let took = rejoin_took(&out.trace);
        assert!(
            took < cfg.tiger.forward_interval,
            "replayed rejoin took {took}, not sub-interval"
        );
    }

    #[test]
    fn stubbed_replay_cannot_meet_the_sub_interval_bound() {
        // The negative control for invariant 5's tightening: with the
        // replay stubbed out, the rejoiner waits on periodic forwarding
        // and converges well past one forward interval. Only the legacy
        // hand-back bound saves the run — so a stub that still traced
        // the handshake would fail the invariant outright.
        let mut cfg = ChaosConfig::quick(plan("crash c1 at=20s\nrestart c1 at=40s\n"));
        cfg.tiger.retired_replay = false;
        let out = run_chaos(&cfg);
        assert!(
            !out.trace.contains("retired-replay"),
            "stub must not replay"
        );
        assert!(out.trace.contains("rejoin-done"));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // Passive convergence waits on the forwarding cadence — hundreds
        // of milliseconds. Replayed convergence is batch latency — a few
        // milliseconds. The gap is what the tightened bound enforces.
        let took = rejoin_took(&out.trace);
        assert!(
            took > SimDuration::from_millis(100),
            "passive rejoin converged in {took} — the sub-interval tightening would be vacuous"
        );
    }

    #[test]
    fn quiet_shrink_drains_fences_and_cuts_over() {
        // A fault-free live shrink: the leaving cub's primaries drain to
        // the survivors (shrink-drain), the cub is fenced at cut-over
        // (shrink-fence), and every invariant — including the §6.4
        // duration budget, now computed over the smaller geometry —
        // holds.
        let mut cfg = ChaosConfig::quick(plan("restripe at=10s remove=1"));
        cfg.run_to = SimTime::from_secs(200);
        let out = run_chaos(&cfg);
        assert!(out.trace.contains("restripe-start"));
        assert!(out.trace.contains("shrink-drain"), "no drain completion");
        assert!(out.trace.contains("shrink-fence"), "leaver never fenced");
        assert!(out.trace.contains("restripe-cutover"));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.dup_blocks, 0, "cut-over re-served a block");
        assert!(out.streams > 0, "shrink killed the streams");
    }

    #[test]
    fn queued_grow_then_shrink_runs_both_steps_in_order() {
        // Two plans queued while the first is still draining: the
        // executor must run them strictly in sequence — grow to five
        // cubs, cut over, then drain the fifth back out.
        let plan = plan("restripe at=10s add=1\nrestripe at=12s remove=1\n");
        let mut cfg = ChaosConfig::quick(plan);
        cfg.run_to = SimTime::from_secs(300);
        let out = run_chaos(&cfg);
        assert_eq!(
            out.trace.matches("restripe-cutover").count(),
            2,
            "both queued steps must cut over"
        );
        assert!(out.trace.contains("shrink-fence"));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn spare_shield_never_widens_loss_under_double_failure() {
        // Invariant 7's canonical scenario: cub 1 dies and the shield
        // shadows its exposed decluster spans onto the spare; then a
        // surviving holder of those spans (cub 2) dies too. Shielded,
        // the cover path routes the dead holder's pieces to the spare;
        // unshielded they are failover-lost. The shielded missing set
        // must be a strict improvement, never a widening.
        // An 8-cub ring, not the quick 4-cub one: with two of four cubs
        // dead, the schedule period (4s) is shorter than the maximum
        // legitimate record lead (6s), which structurally disables the
        // staleness guard and lets cover-chain records race the tiny
        // ring — a small-ring pathology, not the scenario under test.
        // Non-adjacent crashes keep the shadowed span's copy source
        // (cub 2, holder of disk 1's piece 0) alive through the
        // campaign; the second crash (cub 3, holder of piece 1) lands
        // after the spans shadowing cub 1 have all landed on the spare.
        let mut cfg = ChaosConfig::quick(plan("crash c1 at=20s\ncrash c3 at=80s\n"));
        cfg.tiger.stripe = StripeConfig::new(8, 1, 2);
        cfg.tiger.spare_cubs = 1;
        cfg.run_to = SimTime::from_secs(115);
        let ab = run_shield_ablation(&cfg);
        assert!(
            ab.shielded.trace.contains("spare-shadow"),
            "shield never completed a shadow span"
        );
        assert!(ab.violations.is_empty(), "{:?}", ab.violations);
        assert!(
            ab.shielded.violations.is_empty(),
            "{:?}",
            ab.shielded.violations
        );
        assert!(
            ab.unshielded.violations.is_empty(),
            "{:?}",
            ab.unshielded.violations
        );
        assert!(
            ab.shielded.blocks_missing < ab.unshielded.blocks_missing,
            "shield should recover exposure: shielded missing {} vs unshielded {}",
            ab.shielded.blocks_missing,
            ab.unshielded.blocks_missing
        );
    }

    #[test]
    fn quiet_restripe_meets_the_duration_budget() {
        // A fault-free mid-run restripe: the duration invariant (floor
        // and §6.4 budget) and every streaming invariant must hold, and
        // the cut-over must appear in the trace.
        let mut cfg = ChaosConfig::quick(plan("restripe at=10s add=2"));
        cfg.run_to = SimTime::from_secs(200);
        let out = run_chaos(&cfg);
        assert!(out.trace.contains("restripe-start"));
        assert!(
            out.trace.contains("restripe-cutover"),
            "restripe never cut over"
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.dup_blocks, 0, "cut-over re-served a block");
    }

    #[test]
    fn crash_mid_restripe_resumes_after_restart() {
        // A source cub dies with moves in flight and restarts later: the
        // plan parks (restripe-stall allowed), resumes, and still cuts
        // over; the duration budget is waived but every other invariant
        // holds.
        let plan = plan("restripe at=10s add=2\ncrash c1 at=12s\nrestart c1 at=30s\n");
        let mut cfg = ChaosConfig::quick(plan);
        cfg.run_to = SimTime::from_secs(200);
        let out = run_chaos(&cfg);
        assert!(
            out.trace.contains("restripe-cutover"),
            "crash mid-restripe lost the plan"
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn transient_disk_errors_surface_in_outcome_and_trace() {
        let plan = plan("disk-transient c1:0 prob=1 from=20s until=30s");
        let out = run_chaos(&ChaosConfig::quick(plan));
        assert!(out.transient_errors > 0, "no transient errors served");
        assert!(out.blocks_missing > 0, "errored reads should lose blocks");
        assert!(out.trace.contains("disk-transient"));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
