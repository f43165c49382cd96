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
//! * `sweep` — a job's points through [`run_indexed`], each returning
//!   its result and its violations (`at` leads each with its row);
//!   `Sweep::report` ends the job's text with a `VIOLATION:` line for
//!   each and sets [`ExpReport::ok`].
//! * `*_report` functions — one body per experiment, by family in
//!   [`crate::figures`], [`crate::ablations`], [`crate::hotspot`],
//!   [`crate::chaos`], [`crate::workloads`] and [`crate::coded`], each a
//!   function of a [`Scale`] and a thread count for its own sweep. Every
//!   table they print goes through `crate::table::Table`.
//! * [`standard_jobs`] — the catalogue: every experiment as a [`Job`],
//!   named for its golden under `results/`.
//! * [`run_fleet`] / [`cli`] — the catalogue run as one fleet with
//!   job-level parallelism, and the `fleet` binary's whole command line.
//!
//! The related property-harness knob is `TIGER_PROP_THREADS`
//! (`tiger_sim::check`), which shards property *cases* the same way.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use std::{fs, io};

use tiger_core::Metrics;

use crate::header;
use crate::hotspot::plan_job;
use crate::workloads::workloads_report;
use crate::{ablations, figures};

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

/// A sweep's results in point order, and every violation its points
/// reported.
pub(crate) struct Sweep<T> {
    /// One result a point.
    pub(crate) results: Vec<T>,
    violations: Vec<String>,
}

/// Runs `run` on every point through [`run_indexed`]; each run returns its
/// result and the violations its checks found.
pub(crate) fn sweep<P: Sync, T: Send>(
    points: &[P],
    threads: usize,
    run: impl Fn(&P) -> (T, Vec<String>) + Sync,
) -> Sweep<T> {
    let runs = run_indexed(points.len(), threads, |i| run(&points[i]));
    let (results, violations): (Vec<T>, Vec<Vec<String>>) = runs.into_iter().unzip();
    Sweep {
        results,
        violations: violations.concat(),
    }
}

impl<T> Sweep<T> {
    /// How many violations the sweep's points reported.
    pub(crate) fn violations(&self) -> usize {
        self.violations.len()
    }

    /// The job's report: `output`, a `VIOLATION:` line for each violation,
    /// and `ok` when there were none.
    pub(crate) fn report(&self, mut output: String) -> ExpReport {
        for v in &self.violations {
            output.push_str(&format!("  VIOLATION: {v}\n"));
        }
        ExpReport {
            output,
            metrics: Vec::new(),
            ok: self.violations.is_empty(),
        }
    }
}

/// `violations`, each led by the `point` that reported it, so a report
/// of many rows says which row a `VIOLATION:` line belongs to.
pub(crate) fn at(point: String, violations: Vec<String>) -> Vec<String> {
    let lead = |v: String| format!("{point}: {v}");
    violations.into_iter().map(lead).collect()
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
            |scale, _| figures::ramp_report(scale, false),
            "Figure 8: Tiger loads with no cubs failed",
            "cub CPU & disk load linear in streams; controller flat; \
             control traffic < ~21 KB/s at 602 streams",
        ),
        job(
            "fig9_failed",
            Some(Full),
            |scale, _| figures::ramp_report(scale, true),
            "Figure 9: Tiger loads with one cub failed",
            "mirroring-cub disks >95% duty at 602 streams; cub CPU <=85%; \
             control traffic ~2x the unfailed case",
        ),
        job(
            "fig10_startup",
            Some(Full),
            figures::fig10_report,
            "Figure 10: stream startup latency vs schedule load",
            "min ~1.8 s; mean <5 s at 95% load; >20 s outliers near 100%; \
             worst cases approach the full 56 s schedule",
        ),
        job(
            "loss_rates",
            Some(Full),
            figures::loss_rates_report,
            "Loss rates (paper §5 text)",
            "unfailed ~1 in 275k; failed ramp ~1 in 78k; failed steady hour ~1 in 40k; \
             losses spread over the run",
        ),
        job(
            "reconfig",
            Some(Full),
            figures::reconfig_report,
            "Reconfiguration after cub power-cut (paper §5 text)",
            "~8 s between the earliest and latest lost block at 50% load",
        ),
        job(
            "scalability",
            Some(Full),
            figures::scalability_report,
            "Scalability: centralized vs distributed schedule management (§3.3)",
            "central controller send rate grows to MB/s; per-cub distributed \
             traffic stays roughly constant (<21 KB/s measured in §5)",
        ),
        job(
            "capacity",
            Some(Full),
            figures::capacity_report,
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
            ablations::decluster_report,
            "Ablation: decluster factor (§2.3 tradeoff)",
            "reserved bandwidth = 1/(d+1); second-failure exposure = 2d machines",
        ),
        job(
            "ablation_forwarding",
            Some(Full),
            ablations::forwarding_report,
            "Ablation: single vs double forwarding (§4.1.1)",
            "single forwarding halves control traffic but loses schedule \
             information (and thus stream blocks) across a cub failure",
        ),
        job(
            "ablation_lead",
            Some(Full),
            ablations::lead_report,
            "Ablation: viewer-state lead (minVStateLead/maxVStateLead, §4.1.1)",
            "a wide min/max gap batches many viewer states per message; \
             a tight minimum lead leaves little slack for disk variance",
        ),
        job(
            "ablation_fragmentation",
            Some(Full),
            ablations::fragmentation_report,
            "Ablation: network-schedule fragmentation (§3.2)",
            "arbitrary start times fragment the 2-D schedule; quantizing starts \
             to bpt/decluster keeps free bandwidth usable",
        ),
        job(
            "ablation_mbr",
            Some(Full),
            ablations::mbr_report,
            "Ablation: two-phase multiple-bitrate insertion (§4.2)",
            "the reserve round trip overlaps the speculative first-block disk \
             read, so confirmation latency is almost always hidden",
        ),
        job(
            "ablation_deadman",
            Some(Full),
            ablations::deadman_report,
            "Ablation: deadman timeout vs reconfiguration loss window",
            "the ~8 s loss window of §5 is detection latency + takeover fill; \
             it scales with the deadman timeout",
        ),
        job(
            "ablation_admission",
            Some(Full),
            ablations::admission_report,
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
        .filter(|j| j.name == filter || !exact && j.name.contains(filter))
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
                o.scale = Some(match value("'quick' or 'full'")?.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    _ => return Err("--scale needs 'quick' or 'full'".into()),
                });
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
    let runs = jobs.iter().zip(&result.reports);
    let failed: Vec<&str> = runs.filter(|(_, r)| !r.ok).map(|(j, _)| j.name).collect();
    if failed.is_empty() {
        return Ok(0);
    }
    writeln!(err, "fleet: FAILED: {}", failed.join(", "))?;
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_violation_names_its_point() {
        let runs = sweep(&[1, 2, 3], 2, |&n| {
            let bad = if n == 2 {
                vec!["too even".into()]
            } else {
                vec![]
            };
            (n, at(format!("point {n}"), bad))
        });
        let report = runs.report("rows\n".into());
        assert_eq!(report.output, "rows\n  VIOLATION: point 2: too even\n");
        assert!(!report.ok);
    }

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
                output: format!("{name} ran\n"),
                metrics: Vec::new(),
                ok,
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
