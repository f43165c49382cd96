//! One scenario, one run: every fault-injected or plan-driven experiment
//! is a [`Scenario`], [`run`] is the only way to run it, and every run
//! is checked against the Tiger invariants.
//!
//! A run is a pure function of its scenario — fault randomness draws
//! from its own RNG subtree (see
//! [`tiger_core::TigerSystem::apply_fault_plan`]) and demand from its
//! own forks, so the same scenario and seed reproduce the identical
//! injection sequence, metrics, and trace at any fleet thread count. The
//! trace is always on and never wraps: the deadman invariant observes
//! declarations through it, the figures of merit count its records, and
//! it is the artifact dumped when an invariant fails. The tracer and the
//! omniscient checker are pure observers, so neither can change the run.
//! The invariants checked:
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
//!    [`TigerConfig::loss_window`].
//! 5. **Rejoin convergence bounded.** A restarted cub that re-accepts a
//!    slot (`rejoin-done`) must do so within the hand-back window plus
//!    scheduling slack of its `cub-restart` — re-learning the schedule
//!    must not take longer than the §4 ownership-insertion path allows.
//!    When the rejoin handshake carried a non-empty retired-log replay
//!    (a `retired-replay` trace with `count > 0`), the bound tightens
//!    to *under one forward interval*: the predecessor pushed the
//!    schedule tail directly, so convergence must not wait for periodic
//!    forwarding. The negative control is the mutant census patch
//!    `replay-traced-not-sent` (docs/FAULTS.md): it traces the batch but
//!    skips the send, and this invariant fails
//!    `fast_rejoin_replays_the_retired_tail_sub_interval`.
//! 6. **Restripe duration within the §6.4 bandwidth estimate.** A
//!    fault-free live restripe must cut over no sooner than the raw
//!    transfer time of its bottleneck disk/NIC and no later than the
//!    half-duty background-bandwidth estimate times a contention factor.
//! 8. **Every stream keeps playing.** At the horizon, every viewer that
//!    is neither stopped nor at end of file has a high water within
//!    [`TigerConfig::loss_window`] of the block then due. A stream that
//!    leaves the schedule unasked leaves no hole below its high water;
//!    [`Run::lost_blocks`] counts its tail. A partition's stalls are
//!    exempt (as from invariants 1 and 5), and so is a stream whose
//!    record was refused as late after its last block (§4.1.2's
//!    spontaneous deschedule, named in the trace). The negative control
//!    is the mutant census patch `handback-relay-off` (docs/FAULTS.md).
//!
//! Violations of the omniscient checker and the NIC/schedule asserts
//! (`Metrics::violations`) are folded in as well. A seventh property
//! compares two runs and lives in this module's tests: **spares never
//! widen loss**. With one spare provisioned, the per-(viewer, block)
//! missing set must be a subset of the same scenario's missing set with
//! none, both under fixed (zero-jitter) control latency so the runs
//! differ only in the shield the spare makes possible.

use tiger_core::client::ViewerProgress;
use tiger_core::{ForwardingPolicy, TigerConfig, TigerSystem};
use tiger_faults::{
    check_deadman_justified, FaultPlan, ObservedDeclare, ObservedStall, ProcessFault,
};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{FileId, RestripePlan, StripeConfig};
use tiger_sim::{Bandwidth, RngTree, SimDuration, SimTime};
use tiger_trace::TraceEvent;
use tiger_workgen::WorkloadPlan;

use crate::catalog::{populate_catalog, CatalogSpec};
use crate::driven::{drive_plan, DriveStats};

/// The silence-probability threshold below which a probabilistic-drop
/// window does *not* justify a deadman declaration: an all-pings-dropped
/// streak rarer than one in a billion windows is treated as impossible,
/// so a declaration during such a window is still a live cub declared
/// dead. (For scale: the lossy-control scenario's 20% drop rate over the
/// small system's four-ping timeout would sit at `0.2^4 = 1.6e-3`, nine
/// orders of magnitude above the cut — heavy loss stays modeled.)
const DROP_SILENCE_MIN_PROB: f64 = 1e-9;

/// Width of a [`Run::blocking_curve`] bucket, seconds.
const CURVE_BUCKET_SECS: u64 = 10;

/// Who asks for what, and when.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // one per run, never in a collection
pub enum Demand {
    /// `starts` starts, `every` apart from 100 ms, each of a file drawn
    /// uniformly from the `"reconfig-files"` RNG fork.
    Paced {
        /// How many viewers start.
        starts: u32,
        /// The gap between consecutive starts.
        every: SimDuration,
    },
    /// A `tiger-workgen` plan, scheduled by [`drive_plan`]: title rank
    /// `i` plays catalog file `i`, so the catalog must hold at least
    /// [`WorkloadPlan::titles`] files.
    Plan(WorkloadPlan),
}

impl Demand {
    /// The §5 load, "We loaded the system to 50% of capacity": half of
    /// `tiger`'s schedule capacity in starts, 150 ms apart.
    pub fn half_load(tiger: &TigerConfig) -> Self {
        Demand::Paced {
            starts: tiger.schedule_params().capacity().div_ceil(2),
            every: SimDuration::from_millis(150),
        }
    }

    /// Schedules this demand against `sys`, whose catalog is `files`.
    pub fn drive(&self, sys: &mut TigerSystem, files: &[FileId]) -> DriveStats {
        match *self {
            Demand::Plan(ref plan) => drive_plan(sys, plan, files),
            Demand::Paced { starts, every } => {
                let mut chooser = RngTree::new(sys.world().cfg.seed).fork("reconfig-files", 0);
                let mut stats = DriveStats {
                    arrivals: starts,
                    ..DriveStats::default()
                };
                let mut at = SimTime::from_millis(100);
                for _ in 0..starts {
                    let client = sys.add_client();
                    let file = files[chooser.gen_range(0..files.len())];
                    stats
                        .starts
                        .push((at, client, sys.request_start(at, client, file)));
                    at += every;
                }
                stats
            }
        }
    }
}

/// One experiment: a system, its content, its demand, the faults
/// injected into it, and how long it runs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// System configuration. Spare cubs the plan's restripes draw are
    /// provisioned on top.
    pub tiger: TigerConfig,
    /// Content catalog.
    pub catalog: CatalogSpec,
    /// The demand.
    pub demand: Demand,
    /// The faults injected, and the plan the invariants judge the run
    /// against. A [`Demand::Plan`]'s embedded `fault` clauses apply only
    /// when they are copied here.
    pub faults: FaultPlan,
    /// How long to run.
    pub run_to: SimTime,
}

impl Scenario {
    /// `faults` on `tiger` with blips off, half loaded from four files
    /// and run to 90 s: the chaos campaigns' base.
    pub fn quick(mut tiger: TigerConfig, faults: FaultPlan) -> Self {
        tiger.disk = tiger.disk.without_blips();
        Scenario {
            demand: Demand::half_load(&tiger),
            tiger,
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(200), 4),
            faults,
            run_to: SimTime::from_secs(90),
        }
    }

    /// `plan` on the small test system, as [`Scenario::quick`] runs it:
    /// one file a title, the plan's embedded faults injected, and the run
    /// 30 s past the plan's horizon so admitted streams play out.
    pub fn quick_plan(plan: WorkloadPlan) -> Self {
        Scenario {
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(200), plan.titles()),
            faults: plan.faults.clone(),
            run_to: SimTime::ZERO + plan.horizon + SimDuration::from_secs(30),
            demand: Demand::Plan(plan),
            ..Scenario::quick(TigerConfig::small_test(), FaultPlan::new())
        }
    }
}

/// One finished run: everything its figures are computed from.
pub struct Run {
    /// The system at the horizon: clients' logs, metrics, and the
    /// whole-run trace.
    pub sys: TigerSystem,
    /// What the demand scheduled.
    pub drive: DriveStats,
    /// Every invariant violation (empty = the run is clean).
    pub violations: Vec<String>,
}

/// One bucket of the blocking-probability curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CurvePoint {
    /// Bucket start, seconds.
    pub t_secs: u64,
    /// Viewers arriving in the bucket.
    pub arrivals: u32,
    /// Of those, how many never received their first block.
    pub blocked: u32,
}

impl Run {
    /// Every block a client should have received but did not — each gap
    /// below a viewer's high-water mark, and the tail of a stalled stream
    /// ([`Run::stalled`]) up to the block due at the horizon — with its
    /// expected arrival time in seconds: the §5 "inspected the clients'
    /// logs", reconstructed from the viewer's first-block time and the
    /// block play time (blocks arrive equitemporally once started). A
    /// live stream's blocks still in flight at the horizon are not lost.
    /// Viewers come in no particular order.
    pub fn lost_blocks(&self) -> impl Iterator<Item = (ViewerInstance, u32, f64)> + '_ {
        let bpt = self.sys.world().cfg.block_play_time.as_secs_f64();
        let viewers = self.sys.clients().iter().flat_map(|c| c.viewers());
        viewers.flat_map(move |(&vi, v)| {
            let played = v.high_water.zip(v.first_block_at);
            played.into_iter().flat_map(move |(high, first)| {
                let end = self.stall(v).unwrap_or(high);
                let first = first.as_secs_f64();
                (0..=end)
                    .filter(move |&b| !v.block_received(b))
                    .map(move |b| (vi, b, first + f64::from(b) * bpt))
            })
        })
    }

    /// The block due at the horizon of a stalled viewer ([`Run::stalled`]).
    fn stall(&self, v: &ViewerProgress) -> Option<u32> {
        let (high, first) = v.high_water.zip(v.first_block_at)?;
        let cfg = &self.sys.world().cfg;
        let bare = cfg.forwarding == ForwardingPolicy::Single && !cfg.gap_recovery;
        if v.stopped || high + 1 >= v.num_blocks || bare {
            return None;
        }
        let bpt = cfg.block_play_time.as_nanos();
        let played = self.sys.now().saturating_since(first).as_nanos() / bpt;
        let due = (u64::from(v.base_block) + played).min(u64::from(v.num_blocks - 1));
        let lag = due.saturating_sub(u64::from(high)) * bpt;
        (lag > cfg.loss_window().as_nanos()).then_some(due as u32)
    }

    /// The viewers that left the schedule without being asked to: neither
    /// stopped nor at end of file, and with a high water more than
    /// [`TigerConfig::loss_window`] behind the block due at the horizon.
    /// Single forwarding without the §2.3 go-back keeps no second copy of
    /// a record, so there a crash ends the streams whose record it held by
    /// design (§4.1.1), and none counts. Ordered by instance, each with its
    /// high water, the block due at the horizon, and when the high water's
    /// block was expected.
    pub fn stalled(&self) -> Vec<(ViewerInstance, u32, u32, SimTime)> {
        let bpt = self.sys.world().cfg.block_play_time;
        let viewers = self.sys.clients().iter().flat_map(|c| c.viewers());
        let mut stalled: Vec<_> = viewers
            .filter_map(|(&vi, v)| {
                let (high, first) = v.high_water.zip(v.first_block_at)?;
                let at = first + bpt.mul_u64(u64::from(high - v.base_block));
                Some((vi, high, self.stall(v)?, at))
            })
            .collect();
        stalled.sort();
        stalled
    }

    /// Expected arrival times of the earliest and latest lost block.
    pub fn loss_span(&self) -> Option<(f64, f64)> {
        self.lost_blocks().fold(None, |span, (_, _, at)| {
            Some(span.map_or((at, at), |(e, l): (f64, f64)| (e.min(at), l.max(at))))
        })
    }

    /// The §5 headline: seconds between the earliest and latest lost
    /// block (0 without loss).
    pub fn loss_window_secs(&self) -> f64 {
        self.loss_span().map_or(0.0, |(e, l)| l - e)
    }

    /// Seconds from the first power cut to the first deadman detection.
    pub fn detection_secs(&self) -> Option<f64> {
        let cut = self.sys.tracer().iter().find_map(|r| match r.ev {
            TraceEvent::PowerCut { .. } => Some(r.at),
            _ => None,
        })?;
        let &(at, _) = self.sys.metrics().failure_detections.first()?;
        Some(at.saturating_since(cut).as_secs_f64())
    }

    /// Deadman declarations, in declaration order.
    pub fn declares(&self) -> Vec<ObservedDeclare> {
        let records = self.sys.tracer().iter();
        let declares = records.filter_map(|rec| match rec.ev {
            TraceEvent::DeadmanDeclare { failed, silence_ns } => Some(ObservedDeclare {
                at: rec.at,
                declarer: rec.cub,
                failed,
                silence: SimDuration::from_nanos(silence_ns),
            }),
            _ => None,
        });
        declares.collect()
    }

    /// The initial play instances by 10 s bucket of arrival, and how
    /// many of them never received a first block: admission blocking,
    /// §2.2's quantity of interest under skew. The per-start ledger
    /// keeps this deterministic (client viewer maps are unordered).
    pub fn blocking_curve(&self) -> Vec<CurvePoint> {
        let mut curve: Vec<CurvePoint> = Vec::new();
        for &(at, client, inst) in &self.drive.starts {
            let served = self.sys.clients()[client as usize]
                .viewer(&inst)
                .is_some_and(|v| v.first_block_at.is_some());
            let t_secs = (at.as_secs_f64() as u64) / CURVE_BUCKET_SECS * CURVE_BUCKET_SECS;
            if curve.last().map(|p| p.t_secs) != Some(t_secs) {
                curve.push(CurvePoint {
                    t_secs,
                    arrivals: 0,
                    blocked: 0,
                });
            }
            let p = curve.last_mut().expect("just pushed");
            p.arrivals += 1;
            p.blocked += u32::from(!served);
        }
        curve
    }
}

/// One line of a run's fault figures — what the chaos sweep prints and
/// the thread-count bit-identity tests compare.
pub fn chaos_digest(r: &Run) -> String {
    let report = r.sys.all_clients_report();
    let disks = r.sys.cubs().iter().flat_map(|c| c.disks());
    let transient: u64 = disks.map(tiger_disk::Disk::total_transient_errors).sum();
    format!(
        "streams {}  sent {}  received {}  missing {}  dup {}  transient {transient}  \
         declares {}  loss_window {:.3}s  violations {}",
        r.sys.controller().active_streams(),
        r.sys.metrics().loss.blocks_sent,
        report.blocks_received,
        report.blocks_missing,
        report.dup_blocks,
        r.declares().len(),
        r.loss_window_secs(),
        r.violations.len(),
    )
}

/// One line of a run's demand figures — what the workload sweep prints:
/// **blocking probability** (viewers admitted but never served their
/// first block — the quantity the coded-storage comparison in PAPERS.md
/// optimizes), **ownership conflicts** (`vs-conflict`: two cubs
/// believing they own one slot), **deschedule churn** (`desched-apply`:
/// the §4.1.2 kill-forwarding machinery at work) and the resumes and
/// seeks that reached the schedule (`session-transition`).
pub fn workgen_digest(r: &Run) -> String {
    let (mut conflicts, mut desched, mut transitions) = (0u64, 0u64, 0u64);
    for rec in r.sys.tracer().iter() {
        match rec.ev {
            TraceEvent::VsConflict { .. } => conflicts += 1,
            TraceEvent::DeschedApply { .. } => desched += 1,
            TraceEvent::SessionTransition { .. } => transitions += 1,
            _ => {}
        }
    }
    let blocked: u32 = r.blocking_curve().iter().map(|p| p.blocked).sum();
    let d = &r.drive;
    let p_block = if d.arrivals > 0 {
        f64::from(blocked) / f64::from(d.arrivals)
    } else {
        0.0
    };
    let report = r.sys.all_clients_report();
    format!(
        "arrivals {}  blocked {blocked}  p_block {p_block:.4}  pauses {}  resumes {}  seeks {}  \
         abandons {}  conflicts {conflicts}  desched {desched}  transitions {transitions}  \
         received {}  missing {}  dup {}  violations {}",
        d.arrivals,
        d.pauses,
        d.resumes,
        d.seeks,
        d.abandons,
        report.blocks_received,
        report.blocks_missing,
        report.dup_blocks,
        r.violations.len(),
    )
}

/// Runs `s`: provision the spares its restripes draw, load the catalog,
/// schedule the demand, inject the faults, run to the horizon, and check
/// every invariant.
pub fn run(s: &Scenario) -> Run {
    // Steps execute in sequence, so the peak draw is the running sum of
    // grows minus the shrinks *already cut over* — a grow consumes its
    // spares at cut-over, a shrink returns the drained cubs to the pool.
    // The spares are inert until a cut-over, so a plan without restripes
    // is unaffected.
    let mut tiger = s.tiger.clone();
    let mut drawn = 0i64;
    for r in &s.faults.restripes {
        drawn += i64::from(r.add_cubs);
        let peak = u32::try_from(drawn.max(0)).expect("small");
        tiger.spare_cubs = tiger.spare_cubs.max(peak);
        drawn -= i64::from(r.remove_cubs);
    }
    let mut sys = TigerSystem::new(tiger.clone());
    // A ring that never wraps: the whole run's trace.
    sys.enable_trace(usize::MAX);
    sys.enable_omniscient();
    let files = populate_catalog(&mut sys, &s.catalog);
    // The §6.4 duration estimate, computed from the same catalog the
    // live restriper will plan over (streaming never changes the
    // catalog, so the pre-run plan equals the one `restripe-start`
    // computes).
    let restripe_estimate = s.faults.restripes.first().map(|r| {
        let old = tiger.stripe;
        let new = StripeConfig::new(
            old.num_cubs + r.add_cubs - r.remove_cubs,
            old.disks_per_cub,
            old.decluster,
        );
        let plan = RestripePlan::plan(&sys.world().catalog, old, new);
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
    let drive = s.demand.drive(&mut sys, &files);
    sys.apply_fault_plan(&s.faults);
    sys.run_until(s.run_to);

    let mut run = Run {
        sys,
        drive,
        violations: Vec::new(),
    };
    run.violations = check(s, &run, restripe_estimate);
    // Omniscient checker + NIC/schedule asserts.
    let asserted = run.sys.take_violations();
    run.violations.extend(asserted);
    run
}

/// Invariants 1–6 and 8 over a finished run of `s`.
fn check(
    s: &Scenario,
    run: &Run,
    restripe_estimate: Option<(SimDuration, SimDuration)>,
) -> Vec<String> {
    let (plan, cfg, sys) = (&s.faults, &s.tiger, &run.sys);
    let mut violations = Vec::new();
    // Invariant 1: no double delivery. Two sanctioned exceptions, both
    // fencing windows rather than bugs: a freeze that outlasts the
    // deadman timeout (the resumed zombie serves a handful of
    // already-taken-over slots before the fencing reply lands), and a
    // partition (the healed ring's divergent failure views fence live
    // cubs the same way).
    let zombie_window = plan.process.iter().any(|p| {
        matches!(p, ProcessFault::Freeze { from, until, .. }
            if until.saturating_since(*from) > cfg.deadman_timeout)
    }) || !plan.partitions.is_empty();
    let dup_blocks = sys.all_clients_report().dup_blocks;
    if dup_blocks > 0 && !zombie_window {
        violations.push(format!(
            "{dup_blocks} blocks were delivered more than once (Tiger never retransmits)"
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
    let ring_observable = plan.links.iter().all(|l| l.drop_prob == 0.0);
    let mut observed_stalls: Vec<ObservedStall> = Vec::new();
    for rec in sys.tracer().iter() {
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
    let injected_delay = plan
        .links
        .iter()
        .map(|l| l.extra_delay + l.extra_jitter)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let grace = cfg.deadman_interval + cfg.latency.worst_case() + injected_delay;
    violations.extend(check_deadman_justified(
        plan,
        sys.world().topology,
        &run.declares(),
        &observed_stalls,
        cfg.deadman_timeout,
        grace,
        Some((cfg.deadman_interval, DROP_SILENCE_MIN_PROB)),
    ));
    // Invariant 3: schedule views within the legitimate lead.
    violations.extend(sys.check_view_lead());
    // Invariant 4: a single clean crash loses blocks only inside the
    // detection-plus-takeover window: the span between the expected
    // arrivals of the earliest and latest block any client lost.
    if let Some(bound) = single_crash_bound(s) {
        let loss_window_secs = run.loss_window_secs();
        if loss_window_secs > bound.as_secs_f64() {
            violations.push(format!(
                "loss window {loss_window_secs:.3}s exceeds the single-failure bound {bound}",
            ));
        }
    }
    // Invariant 8: every stream keeps playing. At the horizon, a viewer
    // neither stopped nor at end of file has a high water within the
    // loss window of the block then due; a stream that left the
    // schedule unasked leaves no hole below its high water, so without
    // this nothing else sees it. Two ends are not silent: a partition's
    // (the healed ring's divergent views fence live cubs, as invariants 1
    // and 5 allow), and a record refused as late after the stream's last
    // block (§4.1.2: the viewer "is spontaneously descheduled"), which
    // the trace names.
    if plan.partitions.is_empty() {
        let refused_late = |vi: ViewerInstance, after: SimTime| {
            let (v, i) = (vi.viewer.raw(), vi.incarnation);
            sys.tracer().iter().any(|r| {
                r.at >= after
                    && matches!(r.ev, TraceEvent::VsLate { viewer, inc, .. } if (viewer, inc) == (v, i))
            })
        };
        for (vi, high, due, at) in run.stalled() {
            if !refused_late(vi, at) {
                violations.push(format!(
                    "{vi} stalled at block {high} with block {due} due at the horizon"
                ));
            }
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
    if ring_observable && plan.partitions.is_empty() {
        let longest_freeze = plan
            .process
            .iter()
            .filter_map(|p| match p {
                ProcessFault::Freeze { from, until, .. } => Some(until.saturating_since(*from)),
                _ => None,
            })
            .max()
            .unwrap_or(SimDuration::ZERO);
        let rejoin_bound = cfg.min_vstate_lead
            + cfg.forward_interval.mul_u64(2)
            + injected_delay
            + longest_freeze
            + SimDuration::from_secs(2);
        // The sub-interval bound for replayed rejoins: the predecessor's
        // `RetiredReplay` batch hands the rejoiner its imminent schedule
        // directly, so the first re-accepted slot cannot be waiting on a
        // periodic forwarding pass.
        let replay_bound = cfg.forward_interval + injected_delay + longest_freeze;
        let records = || sys.tracer().iter();
        for rec in records() {
            let TraceEvent::CubRestart { cub } = rec.ev else {
                continue;
            };
            let done = records().find(|r| {
                r.at >= rec.at && matches!(r.ev, TraceEvent::RejoinDone { cub: c } if c == cub)
            });
            if let Some(done) = done {
                let took = done.at.saturating_since(rec.at);
                // The tight bound applies when the handshake delivered a
                // non-empty replay batch: acceptance is then immediate
                // (batch latency), never a wait on periodic forwarding.
                // An empty batch (idle predecessor) legitimately falls
                // back to the passive path and its legacy bound.
                let replayed = records().any(|r| {
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
    let quiet_restripe = !plan.restripes.is_empty()
        && plan.process.is_empty()
        && plan.partitions.is_empty()
        && plan.disks.is_empty()
        && plan.links.is_empty();
    if let (Some((floor, budget)), true) = (restripe_estimate, quiet_restripe) {
        let start = sys.tracer().iter().find_map(|r| match r.ev {
            TraceEvent::RestripeStart { moves } => Some((r.at, moves)),
            _ => None,
        });
        let cutover = sys.tracer().iter().find_map(|r| match r.ev {
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
            (Some((started, _)), None) if s.run_to.saturating_since(started) > bound => {
                violations.push(
                    "restripe never cut over on a fault-free run (moves are parked or lost)"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
    violations
}

/// The loss-window bound, when the plan is exactly one cub crash (the
/// only shape the invariant covers: anything else — partitions, disk
/// faults, correlated cuts — can legitimately widen the window).
fn single_crash_bound(s: &Scenario) -> Option<SimDuration> {
    let p = &s.faults;
    if !p.links.is_empty() || !p.partitions.is_empty() || !p.disks.is_empty() {
        return None;
    }
    // A crash mid-restripe widens the window: the cut-over fences every
    // viewer and re-inserts it at its high-water mark.
    if !p.restripes.is_empty() {
        return None;
    }
    match p.process.as_slice() {
        [ProcessFault::Crash { .. }] => Some(s.tiger.loss_window()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use tiger_net::LatencyModel;

    use super::*;

    fn quick(plan: &str) -> Scenario {
        let faults = FaultPlan::parse(plan).expect("plan parses");
        Scenario::quick(TigerConfig::small_test(), faults)
    }

    fn trace(r: &Run) -> String {
        r.sys.tracer().dump().expect("always traced")
    }

    #[test]
    fn clean_single_crash_passes_every_invariant() {
        let r = run(&quick("crash c1 at=30s"));
        assert!(r.sys.controller().active_streams() > 0);
        assert!(!r.declares().is_empty(), "the crash was never detected");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(trace(&r).contains("power-cut"));
        assert!(r.detection_secs().expect("detected") < 4.0);
        // Some blocks are lost in the detection window, and the window is
        // bounded: detection + propagation, not tens of seconds.
        assert!(r.lost_blocks().count() > 0, "expected losses in the window");
        let window = r.loss_window_secs();
        assert!(window < 10.0, "loss window {window} too wide");
    }

    #[test]
    fn control_duplication_does_not_double_deliver_blocks() {
        let r = run(&quick("dup *>* prob=0.5 from=0s until=90s"));
        let dups = r.sys.all_clients_report().dup_blocks;
        assert_eq!(dups, 0, "data plane must never duplicate");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(trace(&r).contains("net-dup"));
    }

    #[test]
    fn freeze_past_deadman_fences_the_zombie() {
        // Frozen well past the 2s deadman timeout: the cub is declared
        // dead and taken over; when it resumes and pings, the successor
        // replies with a FailureNotice naming the zombie, which fences
        // itself. The trace must show the whole arc.
        let r = run(&quick("freeze c1 from=30s until=40s"));
        assert!(!r.declares().is_empty(), "the stall was never declared");
        let trace = trace(&r);
        assert!(trace.contains("cub-freeze"));
        assert!(trace.contains("cub-resume"));
        assert!(trace.contains("cub-fenced"), "zombie was not fenced");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn crash_and_restart_rejoins_within_bound() {
        // A crash followed by a restart: the rejoin handshake must show
        // in the trace, the convergence invariant must hold, and the
        // fresh monitoring baseline must keep the rejoined cub from
        // being re-declared dead.
        let r = run(&quick("crash c1 at=20s\nrestart c1 at=40s\n"));
        let trace = trace(&r);
        assert!(trace.contains("cub-restart"), "restart never traced");
        assert!(
            trace.contains("rejoin-done"),
            "rejoined cub never re-accepted a slot"
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(
            !r.declares()
                .iter()
                .any(|d| d.failed == 1 && d.at > SimTime::from_secs(40)),
            "rejoined cub re-declared dead after its restart"
        );
    }

    /// CubRestart → first RejoinDone (the same records invariant 5
    /// walks).
    fn rejoin_took(r: &Run) -> SimDuration {
        let recs = r.sys.tracer().records();
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
        // The predecessor pushes the rejoiner's imminent schedule in the
        // rejoin handshake: convergence must land under one forward
        // interval, and invariant 5's tightened bound must hold.
        let s = quick("crash c1 at=20s\nrestart c1 at=40s\n");
        let r = run(&s);
        assert!(
            r.sys.tracer().iter().any(|r| matches!(
                r.ev, TraceEvent::RetiredReplay { count, .. } if count > 0
            )),
            "rejoin handshake never replayed a non-empty retired tail"
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let took = rejoin_took(&r);
        assert!(
            took < s.tiger.forward_interval,
            "replayed rejoin took {took}, not sub-interval"
        );
    }

    #[test]
    fn quiet_shrink_drains_fences_and_cuts_over() {
        // A fault-free live shrink: the leaving cub's primaries drain to
        // the survivors (shrink-drain), the cub is fenced at cut-over
        // (shrink-fence), and every invariant — including the §6.4
        // duration budget, now computed over the smaller geometry —
        // holds.
        let mut s = quick("restripe at=10s remove=1");
        s.run_to = SimTime::from_secs(200);
        let r = run(&s);
        let trace = trace(&r);
        assert!(trace.contains("restripe-start"));
        assert!(trace.contains("shrink-drain"), "no drain completion");
        assert!(trace.contains("shrink-fence"), "leaver never fenced");
        assert!(trace.contains("restripe-cutover"));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let dups = r.sys.all_clients_report().dup_blocks;
        assert_eq!(dups, 0, "cut-over re-served a block");
        assert!(
            r.sys.controller().active_streams() > 0,
            "shrink killed the streams"
        );
    }

    #[test]
    fn queued_grow_then_shrink_runs_both_steps_in_order() {
        // Two plans queued while the first is still draining: the
        // executor must run them strictly in sequence — grow to five
        // cubs, cut over, then drain the fifth back out.
        let mut s = quick("restripe at=10s add=1\nrestripe at=12s remove=1\n");
        s.run_to = SimTime::from_secs(300);
        let r = run(&s);
        let trace = trace(&r);
        assert_eq!(
            trace.matches("restripe-cutover").count(),
            2,
            "both queued steps must cut over"
        );
        assert!(trace.contains("shrink-fence"));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn spare_shield_never_widens_loss_under_double_failure() {
        // The seventh property's canonical scenario: cub 1 dies and the
        // shield shadows its exposed decluster spans onto the spare; then
        // a surviving holder of those spans (cub 3) dies too. Shielded,
        // the cover path routes the dead holder's pieces to the spare;
        // with no spare to shield onto they are failover-lost. The
        // shielded missing set must be a strict improvement, never a
        // widening.
        // An 8-cub ring, not the quick 4-cub one: with two of four cubs
        // dead, the schedule period (4s) is shorter than the maximum
        // legitimate record lead (6s), which structurally disables the
        // staleness guard and lets cover-chain records race the tiny
        // ring — a small-ring pathology, not the scenario under test.
        // Non-adjacent crashes keep the shadowed span's copy source
        // (cub 2, holder of disk 1's piece 0) alive through the
        // campaign; the second crash (cub 3, holder of piece 1) lands
        // after the spans shadowing cub 1 have all landed on the spare.
        let shielded = |on: bool| {
            let mut tiger = TigerConfig::small_test();
            tiger.stripe = StripeConfig::new(8, 1, 2);
            tiger.spare_cubs = u32::from(on);
            // Zero jitter: shield traffic reorders RNG draws between the
            // two runs, so jittered latency would perturb unrelated
            // deliveries and muddy the subset comparison. Both runs see
            // the model's worst case.
            tiger.latency = LatencyModel::fixed(tiger.latency.worst_case());
            let faults = FaultPlan::parse("crash c1 at=20s\ncrash c3 at=80s\n");
            let mut s = Scenario::quick(tiger, faults.expect("plan parses"));
            s.run_to = SimTime::from_secs(115);
            run(&s)
        };
        let (on, off) = (shielded(true), shielded(false));
        assert!(
            trace(&on).contains("spare-shadow"),
            "shield never completed a shadow span"
        );
        assert!(on.violations.is_empty(), "{:?}", on.violations);
        assert!(off.violations.is_empty(), "{:?}", off.violations);
        let missing =
            |r: &Run| -> BTreeSet<_> { r.lost_blocks().map(|(v, b, _)| (v, b)).collect() };
        let (miss_on, miss_off) = (missing(&on), missing(&off));
        let widened: Vec<_> = miss_on.difference(&miss_off).collect();
        assert!(
            widened.is_empty(),
            "spare shield lost {} block(s) the unshielded run delivered \
             (first: {:?}) — interim mirror capacity must never widen loss",
            widened.len(),
            widened.first(),
        );
        assert!(
            miss_on.len() < miss_off.len(),
            "shield should recover exposure: shielded missing {} vs unshielded {}",
            miss_on.len(),
            miss_off.len()
        );
    }

    #[test]
    fn quiet_restripe_meets_the_duration_budget() {
        // A fault-free mid-run restripe: the duration invariant (floor
        // and §6.4 budget) and every streaming invariant must hold, and
        // the cut-over must appear in the trace.
        let mut s = quick("restripe at=10s add=2");
        s.run_to = SimTime::from_secs(200);
        let r = run(&s);
        let trace = trace(&r);
        assert!(trace.contains("restripe-start"));
        assert!(
            trace.contains("restripe-cutover"),
            "restripe never cut over"
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let dups = r.sys.all_clients_report().dup_blocks;
        assert_eq!(dups, 0, "cut-over re-served a block");
    }

    #[test]
    fn crash_mid_restripe_resumes_after_restart() {
        // A source cub dies with moves in flight and restarts later: the
        // plan parks (restripe-stall allowed), resumes, and still cuts
        // over; the duration budget is waived but every other invariant
        // holds.
        let mut s = quick("restripe at=10s add=2\ncrash c1 at=12s\nrestart c1 at=30s\n");
        s.run_to = SimTime::from_secs(200);
        let r = run(&s);
        assert!(
            trace(&r).contains("restripe-cutover"),
            "crash mid-restripe lost the plan"
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn transient_disk_errors_surface_in_the_digest_and_trace() {
        let r = run(&quick("disk-transient c1:0 prob=1 from=20s until=30s"));
        let digest = chaos_digest(&r);
        assert!(
            !digest.contains("transient 0 "),
            "no transient errors served: {digest}"
        );
        let missing = r.sys.all_clients_report().blocks_missing;
        assert!(missing > 0, "errored reads should lose blocks");
        assert!(trace(&r).contains("disk-transient"));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    /// The small ring at [`TigerConfig::preconditions`] entry `entry`'s
    /// edge, in 100 ms steps: its closest legal value, or one step past.
    fn at_edge(entry: usize, past: bool) -> TigerConfig {
        let mut c = TigerConfig::small_test();
        let ms = |at: u64, beyond: u64| SimDuration::from_millis(if past { beyond } else { at });
        match entry {
            0 => c.latency = LatencyModel::fixed(ms(900, 1_000)),
            1 => c.min_vstate_lead = ms(2_900, 3_000),
            2 => c.max_vstate_lead = ms(4_000, 4_100),
            3 => c.scheduling_lead = ms(1_900, 2_000),
            4 => c.ownership_duration = ms(900, 1_000),
            _ => c.deadman_timeout = ms(1_000, 900),
        }
        c
    }

    #[test]
    fn one_step_past_each_precondition_breaks_that_entry_alone() {
        let disks = TigerConfig::small_test().stripe.num_disks();
        for entry in 0..6 {
            let holds = |past| at_edge(entry, past).preconditions(disks).map(|(h, _)| h);
            assert_eq!(holds(false), [true; 6], "entry {entry} at its edge");
            let broken: Vec<usize> = (0..6).filter(|&i| !holds(true)[i]).collect();
            assert_eq!(broken, [entry], "entry {entry} one step past its edge");
        }
    }

    #[test]
    fn each_precondition_edge_runs_clean_or_shows_its_finding() {
        // The chaos sweep's single crash on the quick ring, each bound at
        // its closest legal value. Three bounds do not suffice there: the
        // run breaks an invariant. docs/PROTOCOL.md "The timing contract"
        // records each finding and the runs one step past; a finding that
        // goes away must leave that table with it.
        let findings = [
            Some("conflicting viewer state"),
            None,
            Some("exceeds the single-failure bound"),
            None,
            Some("conflicting viewer state"),
            None,
        ];
        for (entry, finding) in findings.into_iter().enumerate() {
            let faults = FaultPlan::parse("crash c1 at=30s").expect("plan parses");
            let r = run(&Scenario::quick(at_edge(entry, false), faults));
            match finding {
                None => assert!(r.violations.is_empty(), "entry {entry}: {:?}", r.violations),
                Some(f) => assert!(
                    r.violations.iter().any(|v| v.contains(f)),
                    "entry {entry} no longer shows {f:?}: {:?}",
                    r.violations
                ),
            }
        }
    }
}
