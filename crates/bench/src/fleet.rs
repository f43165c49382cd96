//! A deterministic parallel experiment fleet.
//!
//! Every experiment in this repo is a pure function of
//! `(TigerConfig, workload, seed)` (the determinism contract of
//! `tests/determinism.rs`), which makes the *experiments themselves*
//! embarrassingly parallel even though each simulation is single-threaded:
//! the Figure 8 and Figure 9 ramps, each ablation sweep point, and each
//! seed of a multi-seed capacity run share no state at all.
//!
//! This module shards such independent runs across `std::thread::scope`
//! workers and merges their results **in shard order**, so everything a
//! job reports — rendered tables on stdout, merged [`Metrics`] — is
//! bit-identical no matter how many threads ran it. Timing (which *is*
//! thread-count dependent) is segregated into [`FleetResult::job_secs`] /
//! [`FleetResult::wall_secs`] and printed on stderr by the `fleet` bin,
//! never mixed into a report.
//!
//! Layering:
//!
//! * [`run_indexed`] — the deterministic parallel map every sweep uses:
//!   workers claim indices from an atomic counter, results land in
//!   index-ordered slots.
//! * `*_report` functions — one per experiment, shared between the
//!   per-experiment bins (`ablation_forwarding`, `capacity`, …) and the
//!   `fleet` bin, each parametrized by [`Scale`] and a thread count.
//! * [`standard_jobs`] / [`run_fleet`] — the whole catalogue, run as one
//!   fleet with job-level parallelism.
//!
//! The related property-harness knob is `TIGER_PROP_THREADS`
//! (`tiger_sim::check`), which shards property *cases* the same way; the
//! bins read `TIGER_FLEET_THREADS` for their sweep-point parallelism.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tiger_core::{
    ForwardingPolicy, MbrConfig, MbrDistStats, MbrSystem, Metrics, TigerConfig, TigerSystem,
};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, DiskId, MirrorPlacement, StripeConfig, ViewerId};
use tiger_net::LatencyModel;
use tiger_sched::{NetEntryId, NetworkSchedule, ScheduleParams};
use tiger_sim::{Bandwidth, ByteSize, RngTree, SimDuration, SimRng, SimTime};
use tiger_workload::{
    format_ramp_table, run_ramp, run_reconfig, run_startup, CatalogSpec, RampConfig, RampResult,
    ReconfigConfig, StartupConfig,
};

/// How big an experiment to run.
///
/// `Quick` shrinks every job to seconds (small-test configuration, short
/// ramps, fewer sweep points) for CI smoke and the determinism goldens;
/// `Full` is the paper-scale configuration the standalone bins run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long jobs on `TigerConfig::small_test`.
    Quick,
    /// Paper-scale (§5) jobs on `TigerConfig::sosp97`.
    Full,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Worker threads the per-experiment bins use for their sweeps, from
/// `TIGER_FLEET_THREADS` (default 1 — plain sequential runs).
pub fn threads_from_env() -> usize {
    std::env::var("TIGER_FLEET_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Runs `f(0)…f(n-1)` across up to `threads` scoped workers and returns
/// the results **in index order**.
///
/// This is the primitive every fleet sweep is built on: because results
/// are slotted by index (not completion order), the caller observes the
/// exact sequence a sequential loop would produce — the thread count can
/// only change wall-clock time, never output. A panicking worker
/// propagates out of the enclosing `thread::scope`.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let value = f(i);
                *slots[i].lock().expect("fleet slot lock") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("fleet slot lock")
                .expect("every index was claimed and filled")
        })
        .collect()
}

/// Concatenates shard metrics **in the order given**, which is the whole
/// determinism story: callers pass shards in index order (as returned by
/// [`run_indexed`]), so the merged value is bit-identical at any thread
/// count. Windows, latency samples, detections, and violations append;
/// loss counters sum.
pub fn merge_metrics<'a>(shards: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
    let mut out = Metrics::new();
    for m in shards {
        out.windows.extend(m.windows.iter().cloned());
        out.loss.blocks_scheduled += m.loss.blocks_scheduled;
        out.loss.server_missed += m.loss.server_missed;
        out.loss.mirror_missed += m.loss.mirror_missed;
        out.loss.failover_lost += m.loss.failover_lost;
        out.loss.blocks_sent += m.loss.blocks_sent;
        out.start_latencies
            .extend(m.start_latencies.iter().copied());
        out.failure_detections
            .extend(m.failure_detections.iter().copied());
        out.violations.extend(m.violations.iter().cloned());
    }
    out
}

/// One experiment's deterministic result.
pub struct ExpReport {
    /// Stable job name (`fig8`, `ablation_lead`, …).
    pub name: &'static str,
    /// The rendered report — everything the experiment prints on stdout.
    pub output: String,
    /// Metrics of the full-system runs this job performed, in shard order
    /// (empty for analytic or data-structure-only experiments).
    pub metrics: Vec<Metrics>,
}

/// One named experiment in the fleet catalogue.
pub struct Job {
    /// Stable job name, also the `--filter` target.
    pub name: &'static str,
    /// The experiment body: `(scale, inner sweep threads) -> report`.
    pub run: fn(Scale, usize) -> ExpReport,
}

/// The full experiment catalogue, in the fixed order the fleet reports.
pub fn standard_jobs() -> Vec<Job> {
    vec![
        Job {
            name: "fig8",
            run: fig8_report,
        },
        Job {
            name: "fig9",
            run: fig9_report,
        },
        Job {
            name: "ablation_decluster",
            run: decluster_report,
        },
        Job {
            name: "ablation_forwarding",
            run: forwarding_report,
        },
        Job {
            name: "ablation_lead",
            run: lead_report,
        },
        Job {
            name: "ablation_fragmentation",
            run: fragmentation_report,
        },
        Job {
            name: "ablation_mbr",
            run: mbr_report,
        },
        Job {
            name: "ablation_deadman",
            run: deadman_report,
        },
        Job {
            name: "ablation_admission",
            run: admission_report,
        },
        Job {
            name: "capacity_seeds",
            run: capacity_seeds_report,
        },
    ]
}

/// A whole fleet run's results.
pub struct FleetResult {
    /// One report per job, in catalogue order.
    pub reports: Vec<ExpReport>,
    /// All job metrics merged in catalogue/shard order (the golden-test
    /// quantity: identical at every thread count).
    pub merged: Metrics,
    /// Wall seconds each job took (thread-count dependent; stderr only).
    pub job_secs: Vec<f64>,
    /// Wall seconds for the whole fleet.
    pub wall_secs: f64,
}

/// Runs `jobs` with job-level parallelism across `threads` workers.
///
/// Jobs run their internal sweeps sequentially here (inner threads = 1):
/// the fleet already saturates its workers at job granularity, and
/// nesting would oversubscribe without changing any output.
pub fn run_fleet(jobs: &[Job], scale: Scale, threads: usize) -> FleetResult {
    let wall = Instant::now();
    let timed = run_indexed(jobs.len(), threads, |i| {
        let start = Instant::now();
        let report = (jobs[i].run)(scale, 1);
        (report, start.elapsed().as_secs_f64())
    });
    let mut reports = Vec::with_capacity(timed.len());
    let mut job_secs = Vec::with_capacity(timed.len());
    for (report, secs) in timed {
        reports.push(report);
        job_secs.push(secs);
    }
    let merged = merge_metrics(reports.iter().flat_map(|r| r.metrics.iter()));
    FleetResult {
        reports,
        merged,
        job_secs,
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// A one-line deterministic digest of merged fleet metrics, printed on
/// stdout by the `fleet` bin and compared by the determinism golden.
pub fn metrics_digest(m: &Metrics) -> String {
    format!(
        "windows {}  start_samples {}  scheduled {}  sent {}  server_missed {}  \
         failover_lost {}  detections {}  violations {}",
        m.windows.len(),
        m.start_latencies.len(),
        m.loss.blocks_scheduled,
        m.loss.blocks_sent,
        m.loss.server_missed,
        m.loss.failover_lost,
        m.failure_detections.len(),
        m.violations.len(),
    )
}

fn metrics_of(result: &RampResult) -> Metrics {
    Metrics {
        windows: result.windows.clone(),
        loss: result.loss.clone(),
        start_latencies: result.start_latencies.clone(),
        ..Metrics::default()
    }
}

fn ramp_summary(out: &mut String, result: &RampResult, failed: bool) {
    if failed {
        let _ = writeln!(
            out,
            "blocks scheduled: {}  sent (incl. mirror pieces): {}  server missed: {} \
             ({} of them mirror pieces)  (1 in {})",
            result.loss.blocks_scheduled,
            result.loss.blocks_sent,
            result.loss.server_missed,
            result.loss.mirror_missed,
            result
                .loss
                .one_in()
                .map_or_else(|| "inf".to_string(), |n| n.to_string()),
        );
    } else {
        let _ = writeln!(
            out,
            "blocks scheduled: {}  sent: {}  server missed: {}  (1 in {})",
            result.loss.blocks_scheduled,
            result.loss.blocks_sent,
            result.loss.server_missed,
            result
                .loss
                .one_in()
                .map_or_else(|| "inf".to_string(), |n| n.to_string()),
        );
    }
    let _ = writeln!(
        out,
        "client-observed missing: {}  received: {}",
        result.client_missing, result.client_received
    );
    let _ = writeln!(
        out,
        "peak read-ahead buffers: {:.1} MB (testbed cache: 20 MB/cub)",
        result.peak_buffers as f64 / 1e6
    );
}

/// Figure 8: the unfailed ramp (§5). One simulation — nothing to shard —
/// but part of the fleet so it runs concurrently with every other job.
pub fn fig8_report(scale: Scale, _threads: usize) -> ExpReport {
    let cfg = match scale {
        Scale::Full => RampConfig {
            // A short hold at the top lets the final insertions land
            // (insertions near 100% load can take most of the 56 s
            // schedule, §5).
            hold_at_peak: SimDuration::from_secs(100),
            ..RampConfig::fig8(TigerConfig::sosp97(), SimDuration::from_secs(50))
        },
        Scale::Quick => quick_ramp(RampConfig::fig8(
            TigerConfig::small_test(),
            SimDuration::from_secs(15),
        )),
    };
    let result = run_ramp(&cfg);
    let title = match scale {
        Scale::Full => "Figure 8 (unfailed ramp to 602)",
        Scale::Quick => "Figure 8 (unfailed ramp, quick scale)",
    };
    let mut out = format_ramp_table(title, &result.windows);
    out.push('\n');
    ramp_summary(&mut out, &result, false);
    ExpReport {
        name: "fig8",
        output: out,
        metrics: vec![metrics_of(&result)],
    }
}

/// Figure 9: the same ramp with one cub failed throughout (§5).
pub fn fig9_report(scale: Scale, _threads: usize) -> ExpReport {
    let cfg = match scale {
        Scale::Full => RampConfig {
            hold_at_peak: SimDuration::from_secs(3_600),
            ..RampConfig::fig9(TigerConfig::sosp97(), SimDuration::from_secs(50))
        },
        Scale::Quick => RampConfig {
            failed_cub: Some(CubId(2)),
            disk_report_cub: Some(CubId(3)),
            report_cub: CubId(3),
            target: Some(16),
            hold_at_peak: SimDuration::from_secs(30),
            ..quick_ramp(RampConfig::fig8(
                TigerConfig::small_test(),
                SimDuration::from_secs(15),
            ))
        },
    };
    let result = run_ramp(&cfg);
    let title = match scale {
        Scale::Full => "Figure 9 (cub 5 failed; disk/control columns report mirroring cub 6)",
        Scale::Quick => "Figure 9 (one failed cub, quick scale)",
    };
    let mut out = format_ramp_table(title, &result.windows);
    out.push('\n');
    ramp_summary(&mut out, &result, true);
    ExpReport {
        name: "fig9",
        output: out,
        metrics: vec![metrics_of(&result)],
    }
}

/// Shrinks a paper ramp to the unit-test scale used across the repo.
fn quick_ramp(base: RampConfig) -> RampConfig {
    RampConfig {
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(120), 4),
        step: 8,
        settle: SimDuration::from_secs(15),
        target: Some(24),
        ..base
    }
}

/// §2.3 decluster-factor tradeoff. Analytic (no simulation), so scale
/// changes nothing; the four factors still shard across workers.
pub fn decluster_report(_scale: Scale, threads: usize) -> ExpReport {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "decluster  reserved_bw%  exposure(disks)  capacity(56 disks)  svc_time"
    );
    let disk = tiger_disk::DiskProfile::sosp97();
    let factors = [1u32, 2, 4, 8];
    let rows = run_indexed(factors.len(), threads, |i| {
        let d = factors[i];
        let stripe = StripeConfig::new(14, 4, d);
        let placement = MirrorPlacement::new(stripe);
        let worst = disk.worst_case_read(ByteSize::from_bytes(250_000), d, true);
        let params = ScheduleParams::derive(
            stripe,
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            worst,
            Bandwidth::from_mbit_per_sec(135),
        );
        format!(
            "{d:>9}  {:>11.1}  {:>15}  {:>18}  {:?}\n",
            placement.reserved_bandwidth_fraction() * 100.0,
            placement.second_failure_exposure(DiskId(20)).len(),
            params.capacity(),
            params.block_service_time(),
        )
    });
    out.extend(rows);
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: higher decluster -> less reserved bandwidth (higher capacity) \
         but wider two-failure exposure."
    );
    ExpReport {
        name: "ablation_decluster",
        output: out,
        metrics: Vec::new(),
    }
}

struct ForwardingOutcome {
    client_missing: u64,
    tail_starved: u64,
    control_bytes: u64,
}

fn forwarding_run(scale: Scale, policy: ForwardingPolicy, gap_recovery: bool) -> ForwardingOutcome {
    let (mut cfg, viewers, spacing_ms, victim, fail_at, run_to, film) = match scale {
        Scale::Full => (
            TigerConfig::sosp97(),
            100u64,
            180u64,
            CubId(5),
            SimTime::from_secs(60),
            SimTime::from_secs(260),
            SimDuration::from_secs(240),
        ),
        Scale::Quick => (
            TigerConfig::small_test(),
            24,
            180,
            CubId(2),
            SimTime::from_secs(30),
            SimTime::from_secs(120),
            SimDuration::from_secs(100),
        ),
    };
    cfg.forwarding = policy;
    cfg.gap_recovery = gap_recovery;
    let mut sys = TigerSystem::new(cfg);
    let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), film);
    for i in 0..viewers {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * spacing_ms), client, file);
    }
    sys.fail_cub_at(fail_at, victim);
    sys.run_until(run_to);
    let report = sys.all_clients_report();
    let tail: u64 = sys
        .clients()
        .iter()
        .flat_map(|c| c.viewers())
        .map(|(_, v)| u64::from(v.tail_missing()))
        .sum();
    let node = sys.shared().cub_node(CubId(0));
    ForwardingOutcome {
        client_missing: report.blocks_missing,
        tail_starved: tail,
        control_bytes: sys.shared().net.total_control_bytes(node),
    }
}

/// §4.1.1 single vs double forwarding: three independent failure runs.
pub fn forwarding_report(scale: Scale, threads: usize) -> ExpReport {
    let points = [
        ("single, no recovery", ForwardingPolicy::Single, false),
        ("single + go-back", ForwardingPolicy::Single, true),
        ("double (paper)", ForwardingPolicy::Double, true),
    ];
    let outcomes = run_indexed(points.len(), threads, |i| {
        forwarding_run(scale, points[i].1, points[i].2)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy                 missing_blocks  starved_tail_blocks  cub0_control_bytes"
    );
    for ((label, _, _), o) in points.iter().zip(&outcomes) {
        let _ = writeln!(
            out,
            "{label:<22} {:>14}  {:>19}  {:>18}",
            o.client_missing, o.tail_starved, o.control_bytes
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "control-traffic ratio single/double: {:.2} (paper: single would have \
         halved viewer-state sends)",
        outcomes[1].control_bytes as f64 / outcomes[2].control_bytes as f64
    );
    let _ = writeln!(
        out,
        "the paper's argument, quantified: bare single forwarding permanently \
         starves every stream whose record died with the cub; recovering them \
         requires the go-back machinery the paper deemed not worth building — \
         double forwarding gets the same resilience for ~2x viewer-state sends."
    );
    ExpReport {
        name: "ablation_forwarding",
        output: out,
        metrics: Vec::new(),
    }
}

struct LeadOutcome {
    missing: u64,
    msgs: u64,
    bytes: u64,
}

fn lead_run(scale: Scale, min_lead_ms: u64, max_lead_ms: u64) -> LeadOutcome {
    let (mut cfg, viewers, spacing_ms, run_to, film) = match scale {
        Scale::Full => (
            TigerConfig::sosp97(),
            200u64,
            90u64,
            SimTime::from_secs(260),
            SimDuration::from_secs(240),
        ),
        Scale::Quick => (
            TigerConfig::small_test(),
            24,
            90,
            SimTime::from_secs(80),
            SimDuration::from_secs(60),
        ),
    };
    cfg.disk = cfg.disk.without_blips(); // isolate protocol-induced lateness
    cfg.min_vstate_lead = SimDuration::from_millis(min_lead_ms);
    cfg.max_vstate_lead = SimDuration::from_millis(max_lead_ms);
    // The batching cadence the lead gap affords (§4.1.1), floored at a
    // sane minimum.
    cfg.forward_interval = SimDuration::from_millis((max_lead_ms - min_lead_ms) / 2)
        .max(SimDuration::from_millis(100));
    let mut sys = TigerSystem::new(cfg);
    let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), film);
    for i in 0..viewers {
        let client = sys.add_client();
        sys.request_start(SimTime::from_millis(100 + i * spacing_ms), client, file);
    }
    sys.run_until(run_to);
    let node = sys.shared().cub_node(CubId(0));
    LeadOutcome {
        missing: sys.all_clients_report().blocks_missing,
        msgs: sys.shared().net.total_control_msgs(node),
        bytes: sys.shared().net.total_control_bytes(node),
    }
}

/// §4.1.1 viewer-state lead sensitivity: four independent lead-gap runs.
pub fn lead_report(scale: Scale, threads: usize) -> ExpReport {
    let points = [
        (800u64, 1_000u64), // barely above the scheduling lead, tiny gap
        (2_000, 3_000),
        (4_000, 9_000), // the paper's typical values
        (4_000, 20_000),
    ];
    let outcomes = run_indexed(points.len(), threads, |i| {
        lead_run(scale, points[i].0, points[i].1)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "min_lead  max_lead  missing_blocks  cub0_msgs  cub0_bytes  bytes/msg"
    );
    for (&(min_ms, max_ms), o) in points.iter().zip(&outcomes) {
        let _ = writeln!(
            out,
            "{:>7.1}s {:>8.1}s {:>14} {:>10} {:>11} {:>10.1}",
            min_ms as f64 / 1e3,
            max_ms as f64 / 1e3,
            o.missing,
            o.msgs,
            o.bytes,
            o.bytes as f64 / o.msgs as f64,
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: the paper's 4 s/9 s leads cut per-cub message counts several-fold \
         versus a tight gap, by amortizing framing over batched viewer states; \
         bytes/msg grows several-fold from the tightest cadence to the paper's gap."
    );
    ExpReport {
        name: "ablation_lead",
        output: out,
        metrics: Vec::new(),
    }
}

struct ChurnStats {
    /// Mean number of arrival opportunities a viewer waits before its
    /// entry fits (1 = admitted at its first position).
    mean_tries: f64,
    /// Arrivals that never fit within the retry budget.
    gave_up: u64,
    fragmentation: f64,
    steady_streams: usize,
}

fn churn(quantum: Option<SimDuration>, seed: u64, churns: u32) -> ChurnStats {
    let capacity = Bandwidth::from_mbit_per_sec(24);
    let bpt = SimDuration::from_secs(1);
    let mut sched = NetworkSchedule::new(14, bpt, capacity, quantum);
    let ring_ns = sched.len_duration().as_nanos();
    let mut rng = RngTree::new(seed).fork("frag", 0);
    let rate = Bandwidth::from_mbit_per_sec(2);
    let mut live: Vec<(ViewerInstance, NetEntryId)> = Vec::new();
    let mut next_viewer = 0u64;
    let mut total_tries = 0u64;
    let mut admissions = 0u64;
    let mut gave_up = 0u64;
    const RETRIES: u64 = 40;

    // An arrival attempts positions derived from successive arrival
    // instants until one fits (each retry models waiting for a later
    // opportunity).
    let mut admit = |sched: &mut NetworkSchedule,
                     rng: &mut tiger_sim::SimRng,
                     live: &mut Vec<(ViewerInstance, NetEntryId)>|
     -> bool {
        let inst = ViewerInstance {
            viewer: ViewerId(next_viewer),
            incarnation: 0,
        };
        next_viewer += 1;
        for attempt in 1..=RETRIES {
            let arrival = rng.gen_range(0..ring_ns);
            let start_ns = match quantum {
                Some(q) => arrival.div_ceil(q.as_nanos()) * q.as_nanos() % ring_ns,
                None => arrival,
            };
            if let Ok(id) = sched.insert(inst, SimDuration::from_nanos(start_ns), rate, false) {
                live.push((inst, id));
                total_tries += attempt;
                admissions += 1;
                return true;
            }
        }
        gave_up += 1;
        false
    };

    // Fill to a high watermark (~93% of the 168-stream ceiling), then churn:
    // one departure, one arrival, repeatedly. Fragmentation shows up as
    // arrivals failing to reuse the bandwidth departures freed.
    let mut rng_fill = RngTree::new(seed).fork("frag-fill", 0);
    while live.len() < 156 {
        if !admit(&mut sched, &mut rng_fill, &mut live) {
            break;
        }
    }
    for _ in 0..churns {
        let idx = rng.gen_range(0..live.len());
        let (inst, _) = live.swap_remove(idx);
        sched.remove_instance(inst);
        admit(&mut sched, &mut rng, &mut live);
    }
    ChurnStats {
        mean_tries: total_tries as f64 / admissions.max(1) as f64,
        gave_up,
        fragmentation: sched.fragmentation(rate, SimDuration::from_millis(25)),
        steady_streams: sched.len(),
    }
}

/// §3.2 fragmentation vs start-time quantization: four policies × five
/// seeds = twenty independent churn runs, the widest shard fan-out in the
/// catalogue.
pub fn fragmentation_report(scale: Scale, threads: usize) -> ExpReport {
    let churns = match scale {
        Scale::Full => 2_000u32,
        Scale::Quick => 300,
    };
    let policies = [
        ("arbitrary", None),
        ("bpt/2 grid", Some(SimDuration::from_millis(500))),
        ("bpt/4 grid (paper)", Some(SimDuration::from_millis(250))),
        ("bpt/8 grid", Some(SimDuration::from_millis(125))),
    ];
    const SEEDS: u64 = 5;
    // Shard at (policy, seed) granularity; rows still aggregate per policy
    // in policy order, so output is independent of the shard interleaving.
    let stats = run_indexed(policies.len() * SEEDS as usize, threads, |i| {
        let (_, quantum) = policies[i / SEEDS as usize];
        churn(quantum, (i as u64) % SEEDS, churns)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "start policy        mean_tries  gave_up  fragmentation  steady_streams  (mean of {SEEDS} seeds)"
    );
    for (p, (label, _)) in policies.iter().enumerate() {
        let per_policy = &stats[p * SEEDS as usize..(p + 1) * SEEDS as usize];
        let tries: f64 = per_policy.iter().map(|s| s.mean_tries).sum();
        let gave_up: u64 = per_policy.iter().map(|s| s.gave_up).sum();
        let frag: f64 = per_policy.iter().map(|s| s.fragmentation).sum();
        let steady: usize = per_policy.iter().map(|s| s.steady_streams).sum();
        let _ = writeln!(
            out,
            "{label:<18}  {:>10.2}  {:>7}  {:>13.3}  {:>14.1}",
            tries / SEEDS as f64,
            gave_up,
            frag / SEEDS as f64,
            steady as f64 / SEEDS as f64,
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: under identical churn near saturation, arbitrary starts give up \
         most often and sustain the fewest steady streams; quantized start \
         positions recover most of the lost admissions."
    );
    ExpReport {
        name: "ablation_fragmentation",
        output: out,
        metrics: Vec::new(),
    }
}

/// One 14-cub `MbrSystem` ring under the §4.2 insert storm: `inserts`
/// requests 40 ms apart, round-robin over the origins, rates drawn from
/// `rng`, 700 ms deadline. Returns the stats and cub 0's control bytes.
fn mbr_run(
    latency: LatencyModel,
    mut rng: SimRng,
    inserts: u64,
    horizon: SimDuration,
) -> (MbrDistStats, u64) {
    let mut cfg = MbrConfig::default_ring();
    cfg.latency = latency;
    let mut ring = MbrSystem::new(cfg, SimDuration::from_millis(MBR_DEADLINE_MS));
    let rates = [1u64, 2, 3, 4, 6];
    for i in 0..inserts {
        let rate = Bandwidth::from_mbit_per_sec(rates[rng.gen_range(0..rates.len())]);
        ring.request_insert(SimTime::from_millis(i * 40), (i % 14) as u32, rate);
    }
    ring.run_until(SimTime::ZERO + horizon);
    (ring.stats(), ring.control_bytes(0))
}

const MBR_DEADLINE_MS: u64 = 700;

fn hidden_pct(stats: &MbrDistStats) -> f64 {
    stats.hidden_confirms as f64 / stats.committed.max(1) as f64 * 100.0
}

/// §4.2 two-phase multiple-bitrate insertion: the message-level protocol
/// under four latency models, then the default ring on its own rate
/// draws — five independent rings in parallel.
pub fn mbr_report(scale: Scale, threads: usize) -> ExpReport {
    let (inserts, horizon) = match scale {
        Scale::Full => (600u64, SimDuration::from_secs(60)),
        Scale::Quick => (150, SimDuration::from_secs(15)),
    };
    let points = [
        ("LAN 2-10 ms", LatencyModel::lan_default()),
        (
            "slow 50 ms fixed",
            LatencyModel::fixed(SimDuration::from_millis(50)),
        ),
        (
            "WAN-ish 200 ms",
            LatencyModel::fixed(SimDuration::from_millis(200)),
        ),
        (
            "too slow 400 ms",
            LatencyModel::fixed(SimDuration::from_millis(400)),
        ),
    ];
    // The sweep rows share one sequence of rate draws; the last ring is
    // the LAN row again on a second sequence.
    let runs = run_indexed(points.len() + 1, threads, |i| {
        let (latency, rng) = match points.get(i) {
            Some(&(_, latency)) => (latency, RngTree::new(11).fork("mbr-bench", 0)),
            None => (
                LatencyModel::lan_default(),
                RngTree::new(23).fork("mbr-dist-bench", 0),
            ),
        };
        mbr_run(latency, rng, inserts, horizon)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "latency model       deadline  committed  aborted  rejected_local  confirm_hidden%  violations"
    );
    for ((label, _), (stats, _)) in points.iter().zip(&runs) {
        let _ = writeln!(
            out,
            "{label:<18}  {MBR_DEADLINE_MS:>6}ms  {:>9}  {:>7}  {:>14}  {:>15.1}  {:>10}",
            stats.committed,
            stats.aborted,
            stats.rejected_local,
            hidden_pct(stats),
            stats.violations,
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "-- the LAN ring on a second sequence of rate draws, with its control traffic --"
    );
    let (stats, control_bytes) = &runs[points.len()];
    let _ = writeln!(
        out,
        "committed {}  aborted {}  rejected-local {}  confirm hidden {:.1}%  \
         capacity violations {}",
        stats.committed,
        stats.aborted,
        stats.rejected_local,
        hidden_pct(stats),
        stats.violations,
    );
    let _ = writeln!(
        out,
        "per-cub reserve/commit control bytes: {control_bytes} (cub 0)"
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: within a switched LAN the confirm round trip hides behind the \
         ~60 ms disk read; only when latency approaches the deadline do \
         insertions abort (and release their reservations)."
    );
    ExpReport {
        name: "ablation_mbr",
        output: out,
        metrics: Vec::new(),
    }
}

/// §5 deadman timeout vs reconfiguration loss window: one power-cut run
/// per timeout.
pub fn deadman_report(scale: Scale, threads: usize) -> ExpReport {
    let (timeouts, load_label): (&[u64], &str) = match scale {
        Scale::Full => (&[1_500, 3_000, 5_000, 8_000], "50% load, 301 streams"),
        Scale::Quick => (&[1_000, 2_000], "50% load, small test system"),
    };
    let results = run_indexed(timeouts.len(), threads, |i| {
        let timeout_ms = timeouts[i];
        let (mut tiger, victim, cut_at, observe, catalog) = match scale {
            Scale::Full => (
                TigerConfig::sosp97(),
                CubId(5),
                SimTime::from_secs(120),
                SimDuration::from_secs(120),
                CatalogSpec::sized_for(SimDuration::from_secs(260), 16),
            ),
            Scale::Quick => (
                TigerConfig::small_test(),
                CubId(2),
                SimTime::from_secs(40),
                SimDuration::from_secs(40),
                CatalogSpec::sized_for(SimDuration::from_secs(100), 4),
            ),
        };
        tiger.deadman_timeout = SimDuration::from_millis(timeout_ms);
        let cfg = ReconfigConfig {
            catalog,
            load: 0.5,
            victim,
            cut_at,
            observe,
            tiger,
        };
        run_reconfig(&cfg)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeout  detection_s  loss_window_s  blocks_lost  ({load_label})"
    );
    for (&timeout_ms, r) in timeouts.iter().zip(&results) {
        let _ = writeln!(
            out,
            "{:>6.1}s {:>12.2} {:>14.2} {:>12}",
            timeout_ms as f64 / 1e3,
            r.detection_secs.unwrap_or(f64::NAN),
            r.loss_window_secs,
            r.blocks_lost,
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: the loss window moves nearly one-for-one with the deadman \
         timeout; the §5 configuration (5 s timeout) lands near the paper's \
         ~8 s measurement."
    );
    ExpReport {
        name: "ablation_deadman",
        output: out,
        metrics: Vec::new(),
    }
}

/// §5 admission-control ablation: the disabled safety valve re-enabled,
/// one startup experiment per policy.
pub fn admission_report(scale: Scale, threads: usize) -> ExpReport {
    let policies = [("disabled (paper's test)", None), ("90% limit", Some(0.9))];
    let results = run_indexed(policies.len(), threads, |i| {
        let limit = policies[i].1;
        let (mut tiger, catalog, loads, probes) = match scale {
            Scale::Full => (
                TigerConfig::sosp97(),
                CatalogSpec::sized_for(SimDuration::from_secs(2_000), 64),
                vec![0.5, 0.8, 0.9, 0.95, 1.0],
                40,
            ),
            Scale::Quick => (
                TigerConfig::small_test(),
                CatalogSpec::sized_for(SimDuration::from_secs(300), 8),
                vec![0.5, 0.9],
                8,
            ),
        };
        tiger.admission_limit = limit;
        let cfg = StartupConfig {
            catalog,
            loads,
            probes_per_load: probes,
            failed_cub: None,
            tiger,
        };
        let result = run_startup(&cfg);
        let n = result.samples.len();
        let mean_high = result.mean_in(0.85, 1.01).unwrap_or(f64::NAN);
        (n, result.max(), mean_high, result.count_above(20.0))
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "admission   started  mean>85%load  max_latency  >20s_outliers"
    );
    for ((label, _), &(n, max, mean_high, outliers)) in policies.iter().zip(&results) {
        let _ = writeln!(
            out,
            "{label:<22} {n:>7}  {mean_high:>11.2}s {max:>11.2}s  {outliers:>13}",
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: the limit trades availability (fewer admitted starts) for \
         bounded startup latency — the operational recommendation of §5."
    );
    ExpReport {
        name: "ablation_admission",
        output: out,
        metrics: Vec::new(),
    }
}

/// §5 capacity: the measured failed-mode section swept over several
/// workload seeds — one full ramp per seed, merged in seed order.
pub fn capacity_seeds_report(scale: Scale, threads: usize) -> ExpReport {
    let seeds: &[u64] = match scale {
        Scale::Full => &[1997, 42, 7],
        Scale::Quick => &[1997, 42],
    };
    let results = run_indexed(seeds.len(), threads, |i| {
        let cfg = match scale {
            Scale::Full => {
                let mut tiger = TigerConfig::sosp97();
                tiger.seed = seeds[i];
                RampConfig {
                    catalog: CatalogSpec::sized_for(SimDuration::from_secs(600), 16),
                    settle: SimDuration::from_secs(25),
                    hold_at_peak: SimDuration::from_secs(120),
                    ..RampConfig::fig9(tiger, SimDuration::from_secs(25))
                }
            }
            Scale::Quick => {
                let mut tiger = TigerConfig::small_test();
                tiger.seed = seeds[i];
                RampConfig {
                    failed_cub: Some(CubId(2)),
                    disk_report_cub: Some(CubId(3)),
                    report_cub: CubId(3),
                    target: Some(16),
                    hold_at_peak: SimDuration::from_secs(30),
                    ..quick_ramp(RampConfig::fig8(tiger, SimDuration::from_secs(15)))
                }
            }
        };
        run_ramp(&cfg)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- measured at full failed-mode load (mirroring cub), per workload seed --"
    );
    let _ = writeln!(out, "seed   streams  mirror_disk_load%  mean_nic_util%");
    for (&seed, r) in seeds.iter().zip(&results) {
        let last = r.windows.last().expect("ramp produced windows");
        let _ = writeln!(
            out,
            "{seed:>5}  {:>7}  {:>17.1}  {:>14.1}",
            last.streams,
            last.disk_load * 100.0,
            last.nic_utilization * 100.0,
        );
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: the capacity figures are workload-seed independent — the \
         schedule admits the same stream count and the mirroring cub's duty \
         cycle stays in the same band across seeds."
    );
    ExpReport {
        name: "capacity_seeds",
        output: out,
        metrics: results.iter().map(metrics_of).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_index_order() {
        for threads in [1, 2, 5] {
            let got = run_indexed(17, threads, |i| i * i);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_oversubscribed() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(2, 64, |i| i), vec![0, 1]);
    }

    #[test]
    fn merge_metrics_concatenates_in_given_order() {
        let mut a = Metrics::new();
        a.loss.blocks_scheduled = 10;
        a.loss.blocks_sent = 9;
        a.record_start(0.5, 1.0);
        let mut b = Metrics::new();
        b.loss.blocks_scheduled = 5;
        b.loss.server_missed = 1;
        b.record_start(0.9, 2.0);
        let ab = merge_metrics([&a, &b]);
        assert_eq!(ab.loss.blocks_scheduled, 15);
        assert_eq!(ab.loss.blocks_sent, 9);
        assert_eq!(ab.loss.server_missed, 1);
        assert_eq!(ab.start_latencies, vec![(0.5, 1.0), (0.9, 2.0)]);
        // Order matters — the merge is shard-ordered, not commutative on
        // the sequence fields.
        let ba = merge_metrics([&b, &a]);
        assert_ne!(ab.start_latencies, ba.start_latencies);
        assert_eq!(ab.loss, ba.loss);
    }

    #[test]
    fn decluster_report_is_thread_count_invariant() {
        let one = decluster_report(Scale::Quick, 1);
        let four = decluster_report(Scale::Quick, 4);
        assert_eq!(one.output, four.output);
        assert!(one.output.contains("decluster"));
    }

    #[test]
    fn fragmentation_report_is_thread_count_invariant() {
        let one = fragmentation_report(Scale::Quick, 1);
        let three = fragmentation_report(Scale::Quick, 3);
        assert_eq!(one.output, three.output);
    }
}
