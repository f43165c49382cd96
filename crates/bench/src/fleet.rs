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
//! * `*_report` functions — one body per experiment, here and in
//!   [`crate::chaos`], [`crate::coded`], [`crate::hotspot`] and
//!   [`crate::workloads`], each a function of a [`Scale`] and a thread
//!   count for its own sweep.
//! * [`standard_jobs`] — the catalogue: every experiment as a [`Job`],
//!   named for its golden under `results/`.
//! * [`run_fleet`] / [`cli`] — the catalogue run as one fleet with
//!   job-level parallelism, and the `fleet` binary's whole command line.
//!
//! The related property-harness knob is `TIGER_PROP_THREADS`
//! (`tiger_sim::check`), which shards property *cases* the same way.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use std::{fs, io};

use tiger_core::{
    central_control_send_rate, CpuModel, ForwardingPolicy, LossReport, MbrConfig, MbrDistStats,
    MbrSystem, Metrics, TigerConfig,
};
use tiger_faults::FaultPlan;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, DiskId, MirrorPlacement, StripeConfig, ViewerId};
use tiger_net::LatencyModel;
use tiger_sched::{NetEntryId, NetworkSchedule, ScheduleParams};
use tiger_sim::{Bandwidth, ByteSize, RngTree, SimDuration, SimRng, SimTime};
use tiger_workload::{
    format_ramp_table, format_startup_table, run, run_ramp, run_startup, CatalogSpec, Demand,
    RampConfig, RampResult, Scenario, StartupConfig, StartupResult,
};

use crate::header;
use crate::hotspot::plan_job;
use crate::workloads::workloads_report;

/// How big an experiment to run.
///
/// `Quick` shrinks every job to well under a second (small-test
/// configuration, short ramps, fewer sweep points) for the CI determinism
/// steps; `Full` is the paper-scale configuration most goldens are
/// checked in at.
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
    /// The rendered report — everything the experiment prints under its
    /// header.
    pub output: String,
    /// Metrics of the full-system runs this job performed, in shard order
    /// (empty for analytic or data-structure-only experiments).
    pub metrics: Vec<Metrics>,
    /// The experiment's own verdict: `false` when an invariant was
    /// violated or a check it states came out wrong. The fleet exits
    /// non-zero on it.
    pub ok: bool,
}

impl ExpReport {
    /// A passing report carrying no metrics.
    pub fn new(output: String) -> Self {
        ExpReport {
            output,
            metrics: Vec::new(),
            ok: true,
        }
    }
}

/// One named experiment in the fleet catalogue.
pub struct Job {
    /// Stable job name: the `--filter` target and the stem of the job's
    /// golden, `results/<name>.txt`.
    pub name: &'static str,
    /// The artifact the job regenerates, as its header names it.
    pub title: &'static str,
    /// What the paper says about it, the header's second line.
    pub paper: &'static str,
    /// The scale the job's golden is checked in at, if it has one.
    pub golden: Option<Scale>,
    /// The experiment body: `(scale, inner sweep threads) -> report`.
    pub run: Box<dyn Fn(Scale, usize) -> ExpReport + Send + Sync>,
}

impl Job {
    /// Header and body: the text the job's golden holds.
    pub fn render(&self, report: &ExpReport) -> String {
        header(self.title, self.paper) + &report.output
    }
}

/// The full experiment catalogue, in the fixed order the fleet reports.
pub fn standard_jobs() -> Vec<Job> {
    use Scale::{Full, Quick};
    type Body = fn(Scale, usize) -> ExpReport;
    let job = |name, golden, run: Body, title, paper| Job {
        name,
        title,
        paper,
        golden,
        run: Box::new(run),
    };
    let workload_plans = (
        "Workload plans (tiger-workgen demand vs the Tiger schedule)",
        "skewed, bursty, interactive demand is what the §4 ownership machinery \
         exists to survive; striping keeps even a flash crowd a non-event (§2.2)",
    );
    vec![
        job(
            "fig8_unfailed",
            Some(Full),
            |scale, _| ramp_report(scale, false),
            "Figure 8: Tiger loads with no cubs failed",
            "cub CPU & disk load linear in streams; controller flat; \
             control traffic < ~21 KB/s at 602 streams",
        ),
        job(
            "fig9_failed",
            Some(Full),
            |scale, _| ramp_report(scale, true),
            "Figure 9: Tiger loads with one cub failed",
            "mirroring-cub disks >95% duty at 602 streams; cub CPU <=85%; \
             control traffic ~2x the unfailed case",
        ),
        job(
            "fig10_startup",
            Some(Full),
            fig10_report,
            "Figure 10: stream startup latency vs schedule load",
            "min ~1.8 s; mean <5 s at 95% load; >20 s outliers near 100%; \
             worst cases approach the full 56 s schedule",
        ),
        job(
            "loss_rates",
            Some(Full),
            loss_rates_report,
            "Loss rates (paper §5 text)",
            "unfailed ~1 in 275k; failed ramp ~1 in 78k; failed steady hour ~1 in 40k; \
             losses spread over the run",
        ),
        job(
            "reconfig",
            Some(Full),
            reconfig_report,
            "Reconfiguration after cub power-cut (paper §5 text)",
            "~8 s between the earliest and latest lost block at 50% load",
        ),
        job(
            "scalability",
            Some(Full),
            scalability_report,
            "Scalability: centralized vs distributed schedule management (§3.3)",
            "central controller send rate grows to MB/s; per-cub distributed \
             traffic stays roughly constant (<21 KB/s measured in §5)",
        ),
        job(
            "capacity",
            Some(Full),
            capacity_report,
            "Capacity derivation (paper §5 text)",
            "10.75 streams/disk worst case; 602 total; 3.36 MB/s/disk; \
             13.4 MB/s sends from a mirroring cub",
        ),
        job(
            "hotspot",
            Some(Full),
            crate::hotspot::hotspot_report,
            "Hotspot immunity (§2.2 striping motivation)",
            "all viewers on ONE file load the disks as evenly as viewers spread \
             over 64 files — striping makes demand imbalance a non-event",
        ),
        crate::hotspot::example_plan_job(),
        job(
            "ablation_decluster",
            Some(Full),
            decluster_report,
            "Ablation: decluster factor (§2.3 tradeoff)",
            "reserved bandwidth = 1/(d+1); second-failure exposure = 2d machines",
        ),
        job(
            "ablation_forwarding",
            Some(Full),
            forwarding_report,
            "Ablation: single vs double forwarding (§4.1.1)",
            "single forwarding halves control traffic but loses schedule \
             information (and thus stream blocks) across a cub failure",
        ),
        job(
            "ablation_lead",
            Some(Full),
            lead_report,
            "Ablation: viewer-state lead (minVStateLead/maxVStateLead, §4.1.1)",
            "a wide min/max gap batches many viewer states per message; \
             a tight minimum lead leaves little slack for disk variance",
        ),
        job(
            "ablation_fragmentation",
            Some(Full),
            fragmentation_report,
            "Ablation: network-schedule fragmentation (§3.2)",
            "arbitrary start times fragment the 2-D schedule; quantizing starts \
             to bpt/decluster keeps free bandwidth usable",
        ),
        job(
            "ablation_mbr",
            Some(Full),
            mbr_report,
            "Ablation: two-phase multiple-bitrate insertion (§4.2)",
            "the reserve round trip overlaps the speculative first-block disk \
             read, so confirmation latency is almost always hidden",
        ),
        job(
            "ablation_deadman",
            Some(Full),
            deadman_report,
            "Ablation: deadman timeout vs reconfiguration loss window",
            "the ~8 s loss window of §5 is detection latency + takeover fill; \
             it scales with the deadman timeout",
        ),
        job(
            "ablation_admission",
            Some(Full),
            admission_report,
            "Ablation: admission control (§5's disabled safety valve)",
            "without a limit, starts near 100% load can wait out whole schedule \
             laps; a 90% limit rejects them instead, bounding admitted latency",
        ),
        job(
            "ablation_coded",
            Some(Quick),
            crate::coded::ablation_coded_report,
            "Ablation: mirrored vs coded redundancy (flash crowd, equal storage)",
            "declustered mirroring pins every degraded read to the fixed partner \
             set; an MDS code serves it from any k surviving shards, ranked \
             by the per-disk load table",
        ),
        job(
            "chaos",
            None,
            crate::chaos::chaos_report,
            "Chaos campaigns (fault plans vs the Tiger invariants)",
            "any single failure is survived; losses stay inside the detection window (§4, §5)",
        ),
        job(
            "workloads",
            Some(Full),
            |scale, threads| workloads_report(scale, threads, None),
            workload_plans.0,
            workload_plans.1,
        ),
        job(
            "workload_flashcrowd_blocking",
            Some(Full),
            |scale, threads| workloads_report(scale, threads, Some("flash-crowd")),
            workload_plans.0,
            workload_plans.1,
        ),
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

/// Runs `jobs`, each at `scale_of` its own scale, with job-level
/// parallelism across `threads` workers.
///
/// Threads the jobs cannot use go to their internal sweeps (one job alone
/// gets all of them); with more jobs than threads the sweeps run
/// sequentially — the fleet already saturates its workers at job
/// granularity, and nesting would oversubscribe without changing any
/// output.
pub fn run_fleet(
    jobs: &[Job],
    scale_of: impl Fn(&Job) -> Scale + Sync,
    threads: usize,
) -> FleetResult {
    let wall = Instant::now();
    let inner = (threads / jobs.len().max(1)).max(1);
    let timed = run_indexed(jobs.len(), threads, |i| {
        let start = Instant::now();
        let report = (jobs[i].run)(scale_of(&jobs[i]), inner);
        (report, start.elapsed().as_secs_f64())
    });
    let (reports, job_secs): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
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

/// The jobs `filter` selects: the one it names exactly, else every job
/// whose name contains it (`hotspot` is `hotspot` alone, `ablation` all
/// eight).
pub fn select(jobs: Vec<Job>, filter: Option<&str>) -> Vec<Job> {
    let Some(filter) = filter else {
        return jobs;
    };
    let exact = jobs.iter().any(|j| j.name == filter);
    jobs.into_iter()
        .filter(|j| {
            if exact {
                j.name == filter
            } else {
                j.name.contains(filter)
            }
        })
        .collect()
}

const USAGE: &str = "usage: fleet [--threads N] [--scale quick|full | --goldens DIR] \
                     [--filter NAME] [--plan FILE] [--list]";

#[derive(Default)]
struct Options {
    threads: usize,
    scale: Option<Scale>,
    goldens: Option<PathBuf>,
    filter: Option<String>,
    list: bool,
}

/// Parses `fleet`'s arguments and applies the ones that act on the
/// catalogue: `--plan` replaces a job, `--filter` and `--goldens` select.
fn parse_args(
    mut jobs: Vec<Job>,
    args: impl IntoIterator<Item = String>,
) -> Result<(Options, Vec<Job>), String> {
    let mut o = Options {
        threads: 1,
        ..Options::default()
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--threads" => {
                o.threads = value("a positive integer")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--threads needs a positive integer")?;
            }
            "--scale" => {
                o.scale = Some(
                    Scale::parse(&value("'quick' or 'full'")?)
                        .ok_or("--scale needs 'quick' or 'full'")?,
                );
            }
            "--goldens" => o.goldens = Some(value("a directory")?.into()),
            "--filter" => o.filter = Some(value("a job name")?),
            "--plan" => {
                let path = value("a file path")?;
                let plan = tiger_workgen::load_plan_file(&path)?;
                let slot = jobs.iter_mut().find(|j| j.name == "hotspot_plan");
                *slot.ok_or("--plan needs the hotspot_plan job")? = plan_job(path, plan);
            }
            "--list" => o.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.scale.is_some() && o.goldens.is_some() {
        return Err("--goldens runs each job at its golden's own scale; drop --scale".into());
    }
    let jobs: Vec<Job> = select(jobs, o.filter.as_deref())
        .into_iter()
        .filter(|j| o.goldens.is_none() || j.golden.is_some())
        .collect();
    if jobs.is_empty() {
        return Err("filter matched no jobs".into());
    }
    Ok((o, jobs))
}

/// The `fleet` binary's whole command line over `jobs`; returns the exit
/// status.
///
/// * `--threads N` — worker threads (default 1; sequential).
/// * `--scale quick|full` — job size (default quick: seconds-long smoke
///   runs on the small-test configuration; full is paper §5 scale).
/// * `--filter NAME` — only the job named `NAME`, or failing that every
///   job whose name contains it.
/// * `--plan FILE` — the `tiger-workgen` plan `hotspot_plan` runs, in
///   place of the checked-in example.
/// * `--goldens DIR` — instead of printing, run every selected job that
///   has a golden at the scale it is checked in at and write
///   `DIR/<name>.txt`: `--goldens results` regenerates them, and
///   `diff -ru results DIR` compares.
/// * `--list` — print the selected job names and exit.
///
/// `out` is **bit-identical at any thread count** (reports print in
/// catalogue order, metrics merge in shard order); all timing — per-job
/// seconds, wall clock, speedup — goes to `err`. The status is 0, 1 if
/// any job's report is not `ok` (each named on `err`), or 2 for a bad
/// command line.
pub fn cli(
    jobs: Vec<Job>,
    args: impl IntoIterator<Item = String>,
    out: &mut dyn io::Write,
    err: &mut dyn io::Write,
) -> io::Result<u8> {
    let (o, jobs) = match parse_args(jobs, args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            writeln!(err, "fleet: {msg}\n{USAGE}")?;
            return Ok(2);
        }
    };
    if o.list {
        for j in &jobs {
            writeln!(out, "{}", j.name)?;
        }
        return Ok(0);
    }

    let result = run_fleet(
        &jobs,
        |j| match o.goldens {
            Some(_) => j.golden.expect("jobs without a golden were dropped"),
            None => o.scale.unwrap_or(Scale::Quick),
        },
        o.threads,
    );
    for (job, report) in jobs.iter().zip(&result.reports) {
        match &o.goldens {
            Some(dir) => fs::write(dir.join(job.name).with_extension("txt"), job.render(report))?,
            None => writeln!(out, "{}", job.render(report))?,
        }
    }
    if o.goldens.is_none() {
        writeln!(out, "merged metrics: {}", metrics_digest(&result.merged))?;
    }

    let serial: f64 = result.job_secs.iter().sum();
    for (job, secs) in jobs.iter().zip(&result.job_secs) {
        writeln!(err, "fleet: {:<28} {secs:>8.2}s", job.name)?;
    }
    writeln!(
        err,
        "fleet: {} jobs in {:.2}s wall ({:.2}s serial, {:.2}x speedup at {} threads)",
        jobs.len(),
        result.wall_secs,
        serial,
        serial / result.wall_secs.max(1e-9),
        o.threads,
    )?;
    let failed: Vec<&str> = jobs
        .iter()
        .zip(&result.reports)
        .filter(|(_, r)| !r.ok)
        .map(|(j, _)| j.name)
        .collect();
    if failed.is_empty() {
        return Ok(0);
    }
    writeln!(err, "fleet: FAILED: {}", failed.join(", "))?;
    Ok(1)
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
    let loss = &result.loss;
    let rate = match loss.one_in() {
        Some(n) => format!("1 in {n}"),
        None => format!("none of {}", loss.blocks_scheduled),
    };
    if failed {
        let _ = writeln!(
            out,
            "blocks scheduled: {}  sent (incl. mirror pieces): {}  server missed: {} \
             ({} of them mirror pieces)  ({rate})",
            loss.blocks_scheduled, loss.blocks_sent, loss.server_missed, loss.mirror_missed,
        );
    } else {
        let _ = writeln!(
            out,
            "blocks scheduled: {}  sent: {}  server missed: {}  ({rate})",
            loss.blocks_scheduled, loss.blocks_sent, loss.server_missed,
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
        result.peak_buffers as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "reads that waited for a buffer: {}  issued at their floor, over the cache: {}",
        result.reads_waited, result.reads_forced,
    );
    // Where the run's events went, per block (or mirror piece) sent.
    let per_send = |n: u64| n as f64 / loss.blocks_sent.max(1) as f64;
    let total: u64 = result.events_by_kind.iter().map(|&(_, n)| n).sum();
    let _ = write!(out, "events dispatched per send: {:.2}", per_send(total));
    for (i, &(kind, n)) in result.events_by_kind.iter().enumerate() {
        let sep = if i == 0 { " (" } else { ", " };
        let _ = write!(out, "{sep}{kind} {:.2}", per_send(n));
    }
    let _ = writeln!(out, ")");
}

/// Figure 8, the unfailed ramp (§5), or — `failed` — Figure 9, the same
/// ramp with one cub failed throughout. One simulation — nothing to
/// shard — but part of the fleet so it runs concurrently with every other
/// job.
fn ramp_report(scale: Scale, failed: bool) -> ExpReport {
    let settle = SimDuration::from_secs(50);
    let (cfg, title) = match (scale, failed) {
        (Scale::Full, false) => (
            RampConfig {
                // A short hold at the top lets the final insertions land
                // (insertions near 100% load can take most of the 56 s
                // schedule, §5).
                hold_at_peak: SimDuration::from_secs(100),
                ..RampConfig::fig8(TigerConfig::sosp97(), settle)
            },
            "Figure 8 (unfailed ramp to 602)",
        ),
        (Scale::Full, true) => (
            RampConfig {
                hold_at_peak: SimDuration::from_secs(3_600),
                ..RampConfig::fig9(TigerConfig::sosp97(), settle)
            },
            "Figure 9 (cub 5 failed; disk/control columns report mirroring cub 6)",
        ),
        (Scale::Quick, false) => (
            quick_ramp(TigerConfig::small_test(), false),
            "Figure 8 (unfailed ramp, quick scale)",
        ),
        (Scale::Quick, true) => (
            quick_ramp(TigerConfig::small_test(), true),
            "Figure 9 (one failed cub, quick scale)",
        ),
    };
    let result = run_ramp(&cfg);
    let mut out = format_ramp_table(title, &result.windows);
    out.push('\n');
    ramp_summary(&mut out, &result, failed);
    ExpReport {
        metrics: vec![metrics_of(&result)],
        ok: report_violations(&mut out, &result.violations) == 0,
        ..ExpReport::new(out)
    }
}

/// The paper ramps shrunk to the unit-test scale used across the repo:
/// Figure 8's on the small-test system, or — `failed` — Figure 9's, with
/// cub 2 dead throughout and mirroring cub 3 reporting.
fn quick_ramp(tiger: TigerConfig, failed: bool) -> RampConfig {
    let settle = SimDuration::from_secs(15);
    let unfailed = RampConfig {
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(120), 4),
        step: 8,
        target: Some(24),
        ..RampConfig::fig8(tiger, settle)
    };
    if !failed {
        return unfailed;
    }
    RampConfig {
        failed_cub: Some(CubId(2)),
        target: Some(16),
        hold_at_peak: SimDuration::from_secs(30),
        ..unfailed
    }
}

fn one_in(loss: &LossReport) -> String {
    loss.one_in()
        .map_or_else(|| "inf".to_string(), |n| n.to_string())
}

/// Figure 10: stream startup latency vs schedule load, combining an
/// unfailed and a failed run as the paper did ("This graph combines the
/// stream starts from both the failed and non-failed tests").
pub fn fig10_report(scale: Scale, threads: usize) -> ExpReport {
    let (unfailed, victim) = match scale {
        Scale::Full => (
            StartupConfig {
                probes_per_load: 100,
                ..StartupConfig::fig10(TigerConfig::sosp97())
            },
            CubId(5),
        ),
        Scale::Quick => (
            StartupConfig {
                catalog: CatalogSpec::sized_for(SimDuration::from_secs(300), 8),
                loads: vec![0.5, 0.9],
                probes_per_load: 8,
                ..StartupConfig::fig10(TigerConfig::small_test())
            },
            CubId(2),
        ),
    };
    let mut failed = unfailed.clone();
    failed.failed_cub = Some(victim);
    failed.tiger.seed += 1;
    let runs = [unfailed, failed];
    let results = run_indexed(runs.len(), threads, |i| run_startup(&runs[i]));
    let mut combined = StartupResult {
        samples: Vec::new(),
        violations: Vec::new(),
    };
    for r in results {
        combined.samples.extend(r.samples);
        combined.violations.extend(r.violations);
    }

    let mut out = format_startup_table(&combined);
    out.push('\n');
    let _ = writeln!(out, "total starts: {}", combined.samples.len());
    let _ = writeln!(out, "min latency: {:.2} s (paper: ~1.8 s)", combined.min());
    let _ = writeln!(
        out,
        "max latency: {:.2} s (paper: some took ~the full 56 s schedule)",
        combined.max()
    );
    let _ = writeln!(
        out,
        "mean at 90-100% load: {:.2} s (paper: <5 s at 95%)",
        combined.mean_in(0.90, 1.01).unwrap_or(f64::NAN)
    );
    let _ = writeln!(out, ">20 s outliers: {}", combined.count_above(20.0));
    ExpReport {
        ok: report_violations(&mut out, &combined.violations) == 0,
        metrics: vec![Metrics {
            start_latencies: combined.samples,
            ..Metrics::default()
        }],
        ..ExpReport::new(out)
    }
}

/// §5 delivered-block loss rates: the unfailed ramp held long enough to
/// accumulate a few million blocks, and the failed ramp with the paper's
/// hour at 602 streams. (Paper: 1 in ~275,000 unfailed, 1 in 78,000 over
/// the failed ramp, 1 in ~40,000 over the failed hour, "spread over the
/// entire test, rather than being clustered at the highest load".)
pub fn loss_rates_report(scale: Scale, threads: usize) -> ExpReport {
    let hold = |secs, base| RampConfig {
        hold_at_peak: SimDuration::from_secs(secs),
        ..base
    };
    let settle = SimDuration::from_secs(50);
    let ramps = match scale {
        Scale::Full => [
            hold(5_400, RampConfig::fig8(TigerConfig::sosp97(), settle)),
            hold(3_600, RampConfig::fig9(TigerConfig::sosp97(), settle)),
        ],
        Scale::Quick => [
            hold(60, quick_ramp(TigerConfig::small_test(), false)),
            hold(60, quick_ramp(TigerConfig::small_test(), true)),
        ],
    };
    let results = run_indexed(ramps.len(), threads, |i| run_ramp(&ramps[i]));
    let (u, f) = (&results[0], &results[1]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "unfailed: scheduled {}  missed {}  rate 1 in {}",
        u.loss.blocks_scheduled,
        u.loss.server_missed,
        one_in(&u.loss)
    );
    let _ = writeln!(
        out,
        "failed:   scheduled {}  missed {} ({} mirror pieces)  rate 1 in {}",
        f.loss.blocks_scheduled,
        f.loss.server_missed,
        f.loss.mirror_missed,
        one_in(&f.loss)
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "shape check: failed-mode loss rate should exceed unfailed (paper: ~4-7x);"
    );
    let _ = writeln!(
        out,
        "client-observed missing blocks — unfailed: {}  failed: {}",
        u.client_missing, f.client_missing
    );
    let _ = writeln!(
        out,
        "buffer-cache hit rate — unfailed: {:.4}%  failed: {:.4}%  (paper: <0.05%)",
        u.cache_hit_rate * 100.0,
        f.cache_hit_rate * 100.0
    );
    ExpReport {
        metrics: results.iter().map(metrics_of).collect(),
        ok: report_violations(&mut out, results.iter().flat_map(|r| &r.violations)) == 0,
        ..ExpReport::new(out)
    }
}

/// The §5 power-cut at 50% load, at paper scale or on the small-test
/// system, with everything but the deadman timeout fixed.
fn power_cut(scale: Scale) -> Scenario {
    let (tiger, catalog, cut, run_to) = match scale {
        Scale::Full => (
            TigerConfig::sosp97(),
            CatalogSpec::sosp97(),
            "crash c5 at=120s",
            240,
        ),
        Scale::Quick => (
            TigerConfig::small_test(),
            CatalogSpec::sized_for(SimDuration::from_secs(100), 4),
            "crash c2 at=40s",
            80,
        ),
    };
    Scenario {
        demand: Demand::half_load(&tiger),
        tiger,
        catalog,
        faults: FaultPlan::parse(cut).expect("the power cut parses"),
        run_to: SimTime::from_secs(run_to),
    }
}

/// §5 reconfiguration time: "We loaded the system to 50% of capacity and
/// cut the power to a cub. We inspected the clients' logs and found about
/// 8 seconds between the earliest and latest lost block."
pub fn reconfig_report(scale: Scale, _threads: usize) -> ExpReport {
    let scenario = power_cut(scale);
    let r = run(&scenario);
    let span = r.loss_span();
    let mut out = String::new();
    let streams = r.sys.controller().active_streams();
    let _ = writeln!(out, "streams at cut:          {streams}");
    let _ = writeln!(
        out,
        "deadman detection:       {:.2} s after the cut (timeout {:?})",
        r.detection_secs().unwrap_or(f64::NAN),
        scenario.tiger.deadman_timeout,
    );
    let _ = writeln!(out, "blocks lost:             {}", r.lost_blocks().count());
    let _ = writeln!(
        out,
        "earliest lost block due: {:.2} s  latest: {:.2} s",
        span.map_or(f64::NAN, |(e, _)| e),
        span.map_or(f64::NAN, |(_, l)| l),
    );
    let _ = writeln!(
        out,
        "loss window:             {:.2} s (paper: ~8 s)",
        r.loss_window_secs()
    );
    ExpReport {
        ok: report_violations(&mut out, &r.violations) == 0,
        ..ExpReport::new(out)
    }
}

/// Appends a `VIOLATION:` line to `out` for each of `violations`;
/// returns how many there were.
pub(crate) fn report_violations<'a>(
    out: &mut String,
    violations: impl IntoIterator<Item = &'a String>,
) -> usize {
    let mut count = 0;
    for v in violations {
        count += 1;
        let _ = writeln!(out, "  VIOLATION: {v}");
    }
    count
}

/// One unfailed ramp to capacity on a ring of `cubs`; returns the streams
/// admitted, cub 0's control traffic over the last window and the run's
/// violations.
fn distributed_per_cub_traffic(scale: Scale, cubs: u32) -> (u32, f64, Vec<String>) {
    let (mut tiger, disks, decluster, settle) = match scale {
        Scale::Full => (TigerConfig::sosp97(), 4, 4, SimDuration::from_secs(25)),
        Scale::Quick => (TigerConfig::small_test(), 1, 2, SimDuration::from_secs(15)),
    };
    tiger.stripe = StripeConfig::new(cubs, disks, decluster);
    tiger.num_clients = (cubs * 3).max(8);
    // Files must outlast the whole ramp so streams do not decay to EOF.
    let capacity_estimate = cubs * disks * 11;
    let ramp_len = settle.mul_u64(u64::from(capacity_estimate / 30 + 2));
    let cfg = RampConfig {
        catalog: CatalogSpec::sized_for(ramp_len, 16),
        settle,
        ..RampConfig::fig8(tiger, settle)
    };
    let result = run_ramp(&cfg);
    let last = result.windows.last().expect("windows");
    (last.streams, last.control_bytes_per_sec, result.violations)
}

/// §3.3, why schedule management is distributed: a centralized controller
/// must push one ~100-byte command per stream per block play time — 3-4
/// MB/s at 40,000 streams, "probably beyond the capability of the class
/// of personal computers used to construct a Tiger system" — while the
/// distributed design's per-cub control traffic stays constant as the
/// system grows.
pub fn scalability_report(scale: Scale, threads: usize) -> ExpReport {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- centralized controller (analytic, 100 B commands + framing) --"
    );
    for streams in [602u64, 4_000, 10_000, 40_000] {
        let rate = central_control_send_rate(streams, SimDuration::from_secs(1));
        let _ = writeln!(
            out,
            "{streams:>7} streams -> controller must send {:>10.2} MB/s",
            rate / 1e6
        );
    }

    out.push('\n');
    let _ = writeln!(
        out,
        "-- centralized controller (closed form at the §5 capacity) --"
    );
    let params = TigerConfig::sosp97().schedule_params();
    let (streams, bpt) = (params.capacity(), params.block_play_time());
    // Every command is controller work, unlike the distributed design
    // where the controller only sees start and stop requests.
    let commands_per_sec = f64::from(streams) / bpt.as_secs_f64();
    let _ = writeln!(
        out,
        "{streams} streams -> {:.1} KB/s control sends, controller CPU {:.1}%",
        central_control_send_rate(u64::from(streams), bpt) / 1e3,
        CpuModel::pentium133().controller_load(0.0, commands_per_sec) * 100.0
    );

    out.push('\n');
    let _ = writeln!(
        out,
        "-- distributed (measured per-cub viewer-state traffic) --"
    );
    let _ = writeln!(out, "cubs  streams  per-cub control B/s");
    let rings: &[u32] = match scale {
        Scale::Full => &[7, 14, 28],
        Scale::Quick => &[4, 8],
    };
    let measured = run_indexed(rings.len(), threads, |i| {
        distributed_per_cub_traffic(scale, rings[i])
    });
    for (cubs, (streams, rate, _)) in rings.iter().zip(&measured) {
        let _ = writeln!(out, "{cubs:>4}  {streams:>7}  {rate:>12.0}");
    }
    let ok = report_violations(&mut out, measured.iter().flat_map(|m| &m.2)) == 0;
    out.push('\n');
    let _ = writeln!(
        out,
        "note: per-cub traffic tracks streams *per cub* (constant as the \
         system scales out), while the central controller's rate tracks \
         *total* streams."
    );
    ExpReport {
        ok,
        ..ExpReport::new(out)
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
    ExpReport::new(out)
}

/// One film of `secs` seconds: what the forwarding and lead ablations
/// play to every viewer.
fn one_film(secs: u64) -> CatalogSpec {
    CatalogSpec {
        files: 1,
        duration: SimDuration::from_secs(secs),
        bitrate: Bandwidth::from_mbit_per_sec(2),
    }
}

/// §4.1.1 single vs double forwarding: three independent failure runs.
pub fn forwarding_report(scale: Scale, threads: usize) -> ExpReport {
    let points = [
        ("single, no recovery", ForwardingPolicy::Single, false),
        ("single + go-back", ForwardingPolicy::Single, true),
        ("double (paper)", ForwardingPolicy::Double, true),
    ];
    let (base, starts, crash, run_to, film) = match scale {
        Scale::Full => (TigerConfig::sosp97(), 100, "crash c5 at=60s", 260, 240),
        Scale::Quick => (TigerConfig::small_test(), 24, "crash c2 at=30s", 120, 100),
    };
    // (missing, starved tail, cub 0's control bytes, violations) a row.
    let rows = run_indexed(points.len(), threads, |i| {
        let (_, forwarding, gap_recovery) = points[i];
        let r = run(&Scenario {
            tiger: TigerConfig {
                forwarding,
                gap_recovery,
                ..base.clone()
            },
            catalog: one_film(film),
            demand: Demand::Paced {
                starts,
                every: SimDuration::from_millis(180),
            },
            faults: FaultPlan::parse(crash).expect("the crash parses"),
            run_to: SimTime::from_secs(run_to),
        });
        let viewers = r.sys.clients().iter().flat_map(|c| c.viewers());
        let tail: u64 = viewers.map(|(_, v)| u64::from(v.tail_missing())).sum();
        let node = r.sys.shared().cub_node(CubId(0));
        let bytes = r.sys.shared().net.total_control_bytes(node);
        let missing = r.sys.all_clients_report().blocks_missing;
        (missing, tail, bytes, r.violations)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy                 missing_blocks  starved_tail_blocks  cub0_control_bytes"
    );
    for ((label, _, _), (missing, tail, bytes, _)) in points.iter().zip(&rows) {
        let _ = writeln!(out, "{label:<22} {missing:>14}  {tail:>19}  {bytes:>18}");
    }
    let ok = report_violations(&mut out, rows.iter().flat_map(|r| &r.3)) == 0;
    out.push('\n');
    let (bare, go_back, double) = (&rows[0], &rows[1], &rows[2]);
    let _ = writeln!(
        out,
        "control-traffic ratio single/double: {:.2} (paper: single would have \
         halved viewer-state sends)",
        go_back.2 as f64 / double.2 as f64
    );
    let _ = writeln!(
        out,
        "shape: bare single forwarding leaves {} tail blocks starved (a stream \
         whose record died with the cub never resumes); the go-back machinery \
         the paper deemed not worth building recovers them. Across the failure \
         double forwarding loses {} blocks than single + go-back ({} against {}), \
         for {:.1}x the viewer-state bytes.",
        bare.1,
        if double.0 < go_back.0 {
            "fewer"
        } else {
            "no fewer"
        },
        double.0,
        go_back.0,
        double.2 as f64 / go_back.2 as f64,
    );
    ExpReport {
        ok,
        ..ExpReport::new(out)
    }
}

/// §4.1.1 viewer-state lead sensitivity: four independent lead-gap runs.
/// Every `maxVStateLead` stays below the ring's schedule length (4 s on
/// the quick ring, 56 s at paper scale).
pub fn lead_report(scale: Scale, threads: usize) -> ExpReport {
    let (base, starts, points, run_to, film): (_, _, &[(u64, u64)], _, _) = match scale {
        Scale::Full => (
            TigerConfig::sosp97(),
            200,
            &[
                (800, 1_000), // barely above the scheduling lead, tiny gap
                (2_000, 3_000),
                (4_000, 9_000), // the paper's typical values
                (4_000, 20_000),
            ],
            260,
            240,
        ),
        Scale::Quick => (
            TigerConfig::small_test(),
            24,
            &[(800, 1_000), (1_000, 1_500), (1_000, 2_500), (1_000, 3_500)],
            80,
            60,
        ),
    };
    // (missing, cub 0's control messages and bytes, violations) a row.
    let rows = run_indexed(points.len(), threads, |i| {
        let (min_ms, max_ms) = points[i];
        let mut tiger = base.clone();
        tiger.disk = tiger.disk.without_blips(); // isolate protocol-induced lateness
        tiger.min_vstate_lead = SimDuration::from_millis(min_ms);
        tiger.max_vstate_lead = SimDuration::from_millis(max_ms);
        // The batching cadence the lead gap affords (§4.1.1), floored at a
        // sane minimum.
        tiger.forward_interval =
            SimDuration::from_millis((max_ms - min_ms) / 2).max(SimDuration::from_millis(100));
        let r = run(&Scenario {
            tiger,
            catalog: one_film(film),
            demand: Demand::Paced {
                starts,
                every: SimDuration::from_millis(90),
            },
            faults: FaultPlan::new(),
            run_to: SimTime::from_secs(run_to),
        });
        let node = r.sys.shared().cub_node(CubId(0));
        let net = &r.sys.shared().net;
        let missing = r.sys.all_clients_report().blocks_missing;
        let (msgs, bytes) = (net.total_control_msgs(node), net.total_control_bytes(node));
        (missing, msgs, bytes, r.violations)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "min_lead  max_lead  missing_blocks  cub0_msgs  cub0_bytes  bytes/msg"
    );
    for (&(min_ms, max_ms), (missing, msgs, bytes, _)) in points.iter().zip(&rows) {
        let _ = writeln!(
            out,
            "{:>7.1}s {:>8.1}s {missing:>14} {msgs:>10} {bytes:>11} {:>10.1}",
            min_ms as f64 / 1e3,
            max_ms as f64 / 1e3,
            *bytes as f64 / *msgs as f64,
        );
    }
    let ok = report_violations(&mut out, rows.iter().flat_map(|r| &r.3)) == 0;
    out.push('\n');
    let _ = writeln!(
        out,
        "shape: the paper's 4 s/9 s leads cut per-cub message counts several-fold \
         versus a tight gap, by amortizing framing over batched viewer states; \
         bytes/msg grows several-fold from the tightest cadence to the paper's gap."
    );
    ExpReport {
        ok,
        ..ExpReport::new(out)
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
    ExpReport::new(out)
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
    ExpReport::new(out)
}

/// §5 deadman timeout vs reconfiguration loss window: one power-cut run
/// per timeout. §5 measured "about 8 seconds between the earliest and
/// latest lost block"; if that window is detection latency plus the
/// mirror-state fill it shrinks with the timeout (at the price of false
/// positives under latency jitter), and each row is held against the
/// chaos campaigns' single-failure bound.
pub fn deadman_report(scale: Scale, threads: usize) -> ExpReport {
    let (timeouts, load_label): (&[u64], &str) = match scale {
        Scale::Full => (&[1_500, 3_000, 5_000, 8_000], "50% load, 301 streams"),
        Scale::Quick => (&[1_000, 2_000], "50% load, small test system"),
    };
    let cuts: Vec<Scenario> = timeouts
        .iter()
        .map(|&timeout_ms| {
            let mut s = power_cut(scale);
            if scale == Scale::Full {
                s.catalog = CatalogSpec::sized_for(SimDuration::from_secs(260), 16);
            }
            s.tiger.deadman_timeout = SimDuration::from_millis(timeout_ms);
            s
        })
        .collect();
    // (detection, loss window, blocks lost) a row.
    let results = run_indexed(cuts.len(), threads, |i| {
        let r = run(&cuts[i]);
        let lost = r.lost_blocks().count();
        (r.detection_secs(), r.loss_window_secs(), lost)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeout  detection_s  loss_window_s  bound_s  blocks_lost  ({load_label})"
    );
    let mut over = 0;
    for (cut, &(detection, window, lost)) in cuts.iter().zip(&results) {
        let t = &cut.tiger;
        let bound = t.loss_window().as_secs_f64();
        let mark = if window > bound {
            over += 1;
            "  over"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:>6.1}s {:>12.2} {:>14.2} {:>8.2} {:>12}{mark}",
            t.deadman_timeout.as_secs_f64(),
            detection.unwrap_or(f64::NAN),
            window,
            bound,
            lost,
        );
    }
    out.push('\n');
    let secs = |ms: u64| ms as f64 / 1e3;
    let (low, high) = (timeouts[0], timeouts[timeouts.len() - 1]);
    let moved = results[results.len() - 1].1 - results[0].1;
    let per_sec = moved / (secs(high) - secs(low));
    let _ = writeln!(
        out,
        "shape: from a {:.1} s to a {:.1} s timeout the loss window moves {moved:.2} s \
         ({per_sec:.2} s per second of timeout): it {} the deadman timeout. {over} of {} \
         rows exceed bound_s, the single-failure bound the chaos campaigns hold a \
         clean crash to (TigerConfig::loss_window).",
        secs(low),
        secs(high),
        if per_sec >= 0.5 {
            "tracks"
        } else {
            "does not track"
        },
        results.len(),
    );
    ExpReport::new(out)
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
        let row = (n, result.max(), mean_high, result.count_above(20.0));
        (row, result.violations)
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "admission   started  mean>85%load  max_latency  >20s_outliers"
    );
    for ((label, _), &((n, max, mean_high, outliers), _)) in policies.iter().zip(&results) {
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
        ok: report_violations(&mut out, results.iter().flat_map(|r| &r.1)) == 0,
        ..ExpReport::new(out)
    }
}

/// §5 capacity: the analytic derivation ("each of the disks is capable of
/// delivering about 10.75 primary streams while doing its part in
/// covering for a failed peer. Thus, the 56 disks in the system can
/// deliver at most 602 streams"), always for the §5 testbed, then the
/// failed-mode section measured over several workload seeds — one full
/// ramp per seed, merged in seed order.
pub fn capacity_report(scale: Scale, threads: usize) -> ExpReport {
    let tiger = TigerConfig::sosp97();
    let params = tiger.schedule_params();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "worst-case block service work: {:?}",
        tiger.disk_worst_read()
    );
    let _ = writeln!(
        out,
        "streams per disk (worst case): {:.2}  (paper: 10.75)",
        tiger.disk.streams_per_disk(
            tiger.block_size(),
            tiger.block_play_time,
            tiger.stripe.decluster,
            true,
        )
    );
    let _ = writeln!(
        out,
        "block service time (lengthened): {:?}",
        params.block_service_time()
    );
    let _ = writeln!(
        out,
        "schedule length: {:?}  (block play time x {} disks)",
        params.schedule_len(),
        tiger.stripe.num_disks()
    );
    let _ = writeln!(
        out,
        "system capacity: {} streams  (paper: 602)",
        params.capacity()
    );
    let _ = writeln!(
        out,
        "bandwidth reserved for failed mode: {:.1}%  (paper: a fifth at decluster 4)",
        MirrorPlacement::new(tiger.stripe).reserved_bandwidth_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "storage: 56 x 2.25 GB disks, half for primaries = {:.1} hours of 2 Mbit/s content \
         (paper: slightly more than 64 hours)",
        56.0 * 2.25e9 / 2.0 / 250_000.0 / 3600.0
    );
    out.push('\n');

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
                quick_ramp(tiger, true)
            }
        };
        run_ramp(&cfg)
    });
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
    let _ = writeln!(
        out,
        "(paper: mirroring-cub disks >95% duty cycle; >13.4 MB/s sends \
         at 135 Mbit/s NIC = >79% utilization)"
    );
    ExpReport {
        metrics: results.iter().map(metrics_of).collect(),
        ok: report_violations(&mut out, results.iter().flat_map(|r| &r.violations)) == 0,
        ..ExpReport::new(out)
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

    /// `trace_timeline`'s three demo goldens, the only `results/*.txt`
    /// that are not a job's.
    const TIMELINE_DEMOS: [&str; 3] = [
        "trace_timeline_demo",
        "trace_rejoin_timeline",
        "trace_shrink_timeline",
    ];

    /// No simulation: the catalogue and `results/` name the same set, so
    /// a result cannot be checked in that `fleet --goldens` (and with it
    /// `scripts/ci.sh`) does not regenerate and compare.
    #[test]
    fn catalogue_and_results_agree() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let jobs = standard_jobs();
        for (i, job) in jobs.iter().enumerate() {
            assert!(
                jobs[..i].iter().all(|j| j.name != job.name),
                "two jobs are named {}",
                job.name
            );
            if job.golden.is_some() {
                let golden = results.join(job.name).with_extension("txt");
                assert!(golden.is_file(), "{} is missing", golden.display());
            }
        }
        for entry in fs::read_dir(&results).expect("results/ is readable") {
            let path = entry.expect("results/ entry").path();
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("utf-8 name");
            assert_eq!(path.extension().and_then(|e| e.to_str()), Some("txt"));
            let claims = jobs
                .iter()
                .filter(|j| j.golden.is_some() && j.name == stem)
                .count()
                + TIMELINE_DEMOS.iter().filter(|d| **d == stem).count();
            assert_eq!(claims, 1, "{} is pinned by {claims} owners", path.display());
        }
    }

    fn stub(name: &'static str, ok: bool) -> Job {
        Job {
            name,
            title: "stub",
            paper: "nothing",
            golden: None,
            run: Box::new(move |_, _| ExpReport {
                ok,
                ..ExpReport::new(format!("{name} ran\n"))
            }),
        }
    }

    fn run_cli(jobs: Vec<Job>, args: &[&str]) -> (u8, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let args = args.iter().map(|a| a.to_string());
        let status = cli(jobs, args, &mut out, &mut err).expect("in-memory writes succeed");
        let text = |bytes| String::from_utf8(bytes).expect("utf-8 output");
        (status, text(out), text(err))
    }

    #[test]
    fn a_failing_job_fails_the_fleet() {
        let jobs = || vec![stub("floats", true), stub("sinks", false)];
        let (status, out, err) = run_cli(jobs(), &["--threads", "2"]);
        assert_eq!(status, 1);
        assert!(err.contains("FAILED: sinks"), "{err}");
        assert!(!err.contains("floats,"), "{err}");
        assert!(
            out.contains("floats ran") && out.contains("sinks ran"),
            "{out}"
        );
        let (status, _, err) = run_cli(jobs(), &["--filter", "floats"]);
        assert_eq!(status, 0, "{err}");
    }

    #[test]
    fn an_exact_name_selects_only_that_job() {
        let names = |filter| -> Vec<&str> {
            select(standard_jobs(), Some(filter))
                .iter()
                .map(|j| j.name)
                .collect()
        };
        assert_eq!(names("hotspot"), ["hotspot"]);
        assert_eq!(names("hotspot_"), ["hotspot_plan"]);
        assert_eq!(names("workloads"), ["workloads"]);
        assert_eq!(
            names("workload"),
            ["workloads", "workload_flashcrowd_blocking"]
        );
        assert_eq!(names("capacity"), ["capacity"]);
        assert_eq!(names("ablation_").len(), 8);
        let (status, out, _) = run_cli(standard_jobs(), &["--list", "--filter", "hotspot"]);
        assert_eq!((status, out.as_str()), (0, "hotspot\n"));
    }

    #[test]
    fn a_bad_command_line_is_status_2() {
        for args in [
            &["--threads", "0"][..],
            &["--scale", "huge"],
            &["--scale", "quick", "--goldens", "somewhere"],
            &["--filter", "no-such-job"],
            &["--plan", "no/such/file.plan"],
            &["--frobnicate"],
            &["--filter"],
        ] {
            let (status, out, err) = run_cli(vec![stub("floats", true)], args);
            assert_eq!(status, 2, "{args:?}");
            assert!(
                out.is_empty() && err.contains("usage: fleet"),
                "{args:?}: {err}"
            );
        }
    }
}
