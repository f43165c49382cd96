//! One run of one workload in this process: `perf once`, the unit both
//! the builder contract's driver and `perf run` repeat.
//!
//! `--trace 0` measures: set-up (several times, for a steady `setup_s`),
//! then the window with tracing and the omniscient checker off; it
//! reports the end-to-end metrics. `--trace 1` explains: one untraced
//! pass, one traced pass with the omniscient checker on, then the probes;
//! it reports the per-layer metrics and writes the trace file.

use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::layers::{per_layer_values, LayerInputs};
use crate::measure::{run_window, sim_outcome, Counters, SimOutcome, StepLog, WindowOutcome};
use crate::probes::{self, ProbeInput};
use crate::refclock::RefClock;
use crate::spec::{per_layer, END_TO_END};
use crate::stats::median;
use crate::trace::{run_window_traced, trace_file, TracedWindow};
use crate::workloads::{plan, prepare, Observe, Prepared, RunPlan};

/// Set-ups per measuring run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Below this on-CPU share the host was too busy for the run to count.
pub const MIN_ONCPU: f64 = 0.95;

/// `perf once` arguments.
#[derive(Clone, Debug)]
pub struct OnceArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one run reports.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of a measuring run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Everything else `perf run` aggregates: digest, counts, flags.
    pub detail: Json,
    /// The correctness checks that failed.
    pub problems: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The last line of `perf once`: exactly the builder contract's keys.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    }
}

/// The untraced pass both kinds of run make.
struct Pass {
    /// Each set-up on the reference clock.
    setup_ref_s: Vec<f64>,
    prepared: Prepared,
    window: WindowOutcome,
    steps: StepLog,
    sim: SimOutcome,
}

/// What can be read from outside when the window opens; equal across the
/// set-ups of one run, or set-up is not a function of the seed.
fn open_state(p: &Prepared) -> (Counters, usize, usize, u32) {
    (
        Counters::read(&p.sys),
        p.sys.shared().queue.len(),
        p.sys.metrics().start_latencies.len(),
        p.sys.controller().active_streams(),
    )
}

fn measured_pass(
    plan: &RunPlan,
    clock: &mut RefClock,
    epoch: Instant,
    setups: usize,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let mut setup_ref_s = Vec::with_capacity(setups);
    let mut first_open = None;
    let mut prepared = None;
    for _ in 0..setups {
        // Drop the previous system first: two at once would double the
        // peak resident set.
        drop(prepared.take());
        let p = prepare(plan, clock, Observe::Off, epoch)?;
        setup_ref_s.push(p.span.ref_s);
        let open = open_state(&p);
        if *first_open.get_or_insert_with(|| open.clone()) != open {
            problems.push("two set-ups from one seed opened on different states".into());
        }
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("at least one set-up");
    let (window, steps) = run_window(&mut prepared.sys, plan, clock);
    let sim = sim_outcome(&mut prepared.sys, plan, &prepared.starts, &window);
    Ok(Pass {
        setup_ref_s,
        prepared,
        window,
        steps,
        sim,
    })
}

/// Checks on the outputs of any pass.
fn check_outputs(plan: &RunPlan, w: &WindowOutcome, sim: &SimOutcome, problems: &mut Vec<String>) {
    if sim.dup_blocks > 0 {
        problems.push(format!("{} duplicate blocks delivered", sim.dup_blocks));
    }
    if sim.violations > 0 {
        problems.push(format!("{} protocol violations", sim.violations));
    }
    if plan.is_closed() {
        // A closed population gets one block per viewer per block play
        // time (1 s): anything else means streams stalled or doubled.
        let due = w.blocks() + (w.close.blocks_missing - w.open.blocks_missing);
        let viewers = sim.starts_counted;
        let lo = u64::from(plan.min_active) * (plan.window_s - 1);
        let hi = viewers * (plan.window_s + 1);
        if due < lo || due > hi {
            problems.push(format!(
                "{due} viewer blocks came due in the window, expected {lo}..={hi}"
            ));
        }
    }
}

fn common_detail(plan: &RunPlan, pass: &Pass) -> Vec<(&'static str, Json)> {
    let s = &pass.sim;
    let w = &pass.window;
    vec![
        ("workload", Json::str(plan.name)),
        ("seed", Json::Num(plan.seed as f64)),
        ("window_sim_s", Json::Num(plan.window_s as f64)),
        ("sim_digest", Json::str(s.digest.clone())),
        ("blocks", Json::Num(w.blocks() as f64)),
        ("start_latency_samples", Json::Num(s.start_latency_n as f64)),
        ("starts_counted", Json::Num(s.starts_counted as f64)),
        ("starts_blocked", Json::Num(s.starts_blocked as f64)),
        ("setup_lost_blocks", Json::Num(w.open.blocks_missing as f64)),
        ("window_wall_s", Json::Num(w.span.wall_s)),
        ("ref_slowdown", Json::Num(w.span.slowdown)),
        ("oncpu_frac", w.oncpu_frac.map_or(Json::Null, Json::Num)),
        ("allocs_per_block", {
            let b = w.blocks().max(1) as f64;
            Json::Num(pass.steps.allocs as f64 / b)
        }),
    ]
}

/// Runs one workload once.
pub fn run_once(args: &OnceArgs) -> Result<RunReport, String> {
    let epoch = Instant::now();
    let plan = plan(&args.workload, args.seed, args.seconds, args.quick)?;
    let mut clock = RefClock::new();
    if args.trace {
        traced_run(&plan, &mut clock, epoch)
    } else {
        measuring_run(&plan, &mut clock, epoch)
    }
}

fn measuring_run(
    plan: &RunPlan,
    clock: &mut RefClock,
    epoch: Instant,
) -> Result<RunReport, String> {
    let mut problems = Vec::new();
    let pass = measured_pass(plan, clock, epoch, SETUPS, &mut problems)?;
    check_outputs(plan, &pass.window, &pass.sim, &mut problems);
    let s = &pass.sim;
    let w = &pass.window;
    let values = [
        median(&pass.setup_ref_s),
        plan.window_s as f64 / w.span.ref_s,
        w.blocks() as f64 / w.span.ref_s,
        host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
        s.start_latency_p50_s,
        s.start_latency_p75_s,
        1.0 - s.blocked_frac(),
        s.ctrl_bytes_per_cub_s,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect();
    let mut detail = common_detail(plan, &pass);
    detail.push((
        "setup_ref_s",
        Json::Arr(pass.setup_ref_s.iter().map(|v| Json::Num(*v)).collect()),
    ));
    Ok(RunReport {
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        detail: Json::obj(detail),
        problems,
    })
}

fn traced_run(plan: &RunPlan, clock: &mut RefClock, epoch: Instant) -> Result<RunReport, String> {
    let mut problems = Vec::new();
    let pass = measured_pass(plan, clock, epoch, 1, &mut problems)?;
    check_outputs(plan, &pass.window, &pass.sim, &mut problems);

    let mut traced_prep = prepare(plan, clock, Observe::Traced, epoch)?;
    let traced: TracedWindow = run_window_traced(&mut traced_prep.sys, plan, clock, epoch);
    let traced_sim = sim_outcome(
        &mut traced_prep.sys,
        plan,
        &traced_prep.starts,
        &traced.outcome,
    );
    check_outputs(plan, &traced.outcome, &traced_sim, &mut problems);
    if traced_sim.digest != pass.sim.digest {
        problems.push(format!(
            "traced pass digest {} differs from untraced {}: tracing or stepping is not a pure observer",
            traced_sim.digest, pass.sim.digest
        ));
    }
    let phases = traced_prep.phases;
    drop(traced_prep);

    let w = &pass.window;
    let ctrl_msgs = w.close.ctrl_msgs - w.open.ctrl_msgs;
    let probe_results = probes::run(
        &ProbeInput {
            cfg: &plan.cfg,
            queue_depth: w.sampled.queue_depth_mean() as usize,
            ctrl_msg_bytes: (w.close.ctrl_bytes - w.open.ctrl_bytes) / ctrl_msgs.max(1),
            view_mix: [
                traced.event("vs-accept"),
                traced.event("vs-duplicate"),
                traced.event("desched-apply"),
            ],
        },
        epoch,
    );

    let mut values = per_layer_values(&LayerInputs {
        plan,
        prepared: &pass.prepared,
        window: w,
        steps: &pass.steps,
        sim: &pass.sim,
        traced: &traced,
        probes: &probe_results,
    });
    let metrics = per_layer()
        .into_iter()
        .map(|m| {
            let v = values
                .remove(&m.name)
                .unwrap_or_else(|| panic!("{} is listed but not computed", m.name));
            (m.name, v, m.unit)
        })
        .collect();
    assert!(values.is_empty(), "computed but not listed: {values:?}");

    let run_end_ns = epoch.elapsed().as_nanos() as u64;
    let file = trace_file(plan, &phases, &traced, &probe_results.spans, run_end_ns);
    let path = trace_path(plan.name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut detail = common_detail(plan, &pass);
    detail.push(("traced_sim_digest", Json::str(traced_sim.digest)));
    detail.push(("clusters", Json::Num(traced.clusters() as f64)));
    detail.push(("trace_file", Json::str(path.display().to_string())));
    Ok(RunReport {
        attempted: pass.sim.attempted,
        failed: pass.sim.failed,
        metrics,
        detail: Json::obj(detail),
        problems,
    })
}

/// `out/<workload>.trace.json` beside the harness sources.
pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.trace.json"))
}

/// The harness's output directory (`benchmark/out`).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
