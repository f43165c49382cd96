//! `perf run` — every workload, repeated and interleaved, reduced to one
//! result file — and `perf compare`, which applies the per-metric bounds
//! to two such files.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::once::MIN_ONCPU;
use crate::spec::{Better, EndToEndSpec, END_TO_END, WORKLOADS};
use crate::stats::{median, min_max, quartile_spread};
use crate::workloads::BASE_SECONDS;

/// Repetitions per workload of a full run; every host-time metric is the
/// median over them.
const REPS: usize = 5;
/// The prefix of the line on which `perf once` prints its detail object.
pub const DETAIL_PREFIX: &str = "detail ";

/// `perf run` options.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// A twentieth of the windows, a quarter of the population, one rep:
    /// for tests, not for numbers.
    pub quick: bool,
    pub seed: u64,
    /// Only this workload, if set.
    pub workload: Option<String>,
    pub out: PathBuf,
}

/// One child's parsed output.
struct Child {
    result: Json,
    detail: Json,
    wall_s: f64,
}

fn run_child(exe: &Path, workload: &str, opts: &RunOpts, trace: bool) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("once")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &BASE_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let t = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    Ok(Child {
        result: Json::parse(last)?,
        detail: Json::parse(detail)?,
        wall_s,
    })
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result lacks metric {name}"))
}

fn detail_str(c: &Child, key: &str) -> String {
    c.detail
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

/// Checks one workload's runs against each other, prints every metric
/// and returns the workload's entry of the result file. Each failed check
/// is pushed onto `flags`.
fn summarise(
    name: &str,
    reps: &[Child],
    traced: &Child,
    flags: &mut Vec<String>,
) -> Result<Json, String> {
    let first = &reps[0];
    let digest = detail_str(first, "sim_digest");
    let counts = |c: &Child| {
        (
            c.result.get("attempted").cloned(),
            c.result.get("failed").cloned(),
        )
    };
    let mut failed_checks = std::collections::BTreeSet::new();
    for c in reps.iter().chain(std::iter::once(traced)) {
        if c.result.get("correct").and_then(Json::as_bool) != Some(true) {
            failed_checks.insert("a run reported correct=false");
        }
        if detail_str(c, "sim_digest") != digest || counts(c) != counts(first) {
            failed_checks.insert("sim_digest or operation counts differ between runs");
        }
    }
    if detail_str(traced, "traced_sim_digest") != digest {
        failed_checks.insert("the traced pass's digest differs");
    }
    flags.extend(failed_checks.iter().map(|f| f.to_string()));

    let mut e2e = Vec::new();
    for m in &END_TO_END {
        let values: Vec<f64> = reps
            .iter()
            .map(|c| metric_value(&c.result, m.name))
            .collect::<Result<_, _>>()?;
        let (lo, hi) = min_max(&values);
        println!(
            "{name:12} {:24} {:>14.4} {:9} min {lo:.4} max {hi:.4} reps {}",
            m.name,
            median(&values),
            m.unit,
            values.len()
        );
        e2e.push((
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(median(&values))),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                ("reps", Json::Num(values.len() as f64)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
            ]),
        ));
    }
    let per_layer = traced
        .result
        .get("metrics")
        .cloned()
        .ok_or("traced child printed no metrics")?;
    for (metric, v) in per_layer.as_obj().unwrap_or(&[]) {
        println!(
            "{name:12} {metric:40} {:>14.4} {}",
            v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            v.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    for f in flags.iter() {
        println!("{name:12} FLAG {f}");
    }
    let (attempted, failed) = counts(first);
    Ok(Json::obj([
        ("sim_digest", Json::str(digest)),
        ("attempted", attempted.unwrap_or(Json::Null)),
        ("failed", failed.unwrap_or(Json::Null)),
        ("detail", first.detail.clone()),
        ("flags", Json::Arr(flags.iter().map(Json::str).collect())),
        ("end_to_end", Json::obj(e2e)),
        ("per_layer", per_layer),
    ]))
}

/// Runs every selected workload `REPS` times rep-major (so a slow phase
/// of the shared host spreads over all workloads), then once traced;
/// prints every metric, writes the result file, and returns whether every
/// correctness check held.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| opts.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    if names.is_empty() {
        return Err(format!(
            "unknown workload {:?} (see perf --list)",
            opts.workload
        ));
    }
    let reps = if opts.quick { 1 } else { REPS };
    let mut ok = true;
    let mut runs: Vec<Vec<Child>> = names.iter().map(|_| Vec::new()).collect();
    let mut flags: Vec<Vec<String>> = names.iter().map(|_| Vec::new()).collect();

    for rep in 0..reps {
        for (i, name) in names.iter().enumerate() {
            let mut child = run_child(&exe, name, opts, false)?;
            let busy = |c: &Child| {
                c.detail
                    .get("oncpu_frac")
                    .and_then(Json::as_f64)
                    .is_some_and(|f| f < MIN_ONCPU)
            };
            // A quick window is a few milliseconds: too short for the
            // share to mean anything.
            if !opts.quick && busy(&child) {
                flags[i].push(format!("rep {rep}: on-CPU share below {MIN_ONCPU}, rerun"));
                child = run_child(&exe, name, opts, false)?;
                if busy(&child) {
                    flags[i].push(format!(
                        "rep {rep}: still below {MIN_ONCPU} after the rerun"
                    ));
                }
            }
            eprintln!(
                "rep {}/{reps} {name}: sim_rate {:.1} sim-s/s, digest {} ({:.1} s)",
                rep + 1,
                metric_value(&child.result, "sim_rate")?,
                detail_str(&child, "sim_digest"),
                child.wall_s
            );
            runs[i].push(child);
        }
    }

    let mut workloads_json = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let traced = run_child(&exe, name, opts, true)?;
        eprintln!("traced {name}: ({:.1} s)", traced.wall_s);
        let flags_before = flags[i].len();
        workloads_json.push((*name, summarise(name, &runs[i], &traced, &mut flags[i])?));
        // Every flag `summarise` raises is a failed check; the on-CPU
        // flags raised above are only notes.
        ok &= flags[i].len() == flags_before;
    }

    let file = Json::obj([
        ("schema", Json::Num(1.0)),
        ("commit", Json::str(host::commit())),
        ("rustc", Json::str(host::rustc_version())),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(BASE_SECONDS)),
        ("quick", Json::Bool(opts.quick)),
        ("reps", Json::Num(reps as f64)),
        ("ok", Json::Bool(ok)),
        ("workloads", Json::obj(workloads_json)),
    ]);
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, file.to_pretty())
        .map_err(|e| format!("{}: {e}", opts.out.display()))?;
    eprintln!("wrote {}", opts.out.display());
    Ok(ok)
}

/// One side of a comparison row.
struct Side {
    median: f64,
    min: f64,
    max: f64,
    spread: f64,
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let values: Vec<f64> = m
        .get("values")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some(Side {
        median: m.get("median")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
        spread: if values.len() >= 2 {
            quartile_spread(&values)
        } else {
            0.0
        },
    })
}

/// The verdict on one (workload, metric) pair: `B` against `A`.
pub fn verdict(m: &EndToEndSpec, a_median: f64, b_median: f64, spread: f64) -> &'static str {
    if a_median == b_median {
        return "same";
    }
    if !m.exact && spread > m.bound {
        return "unresolved";
    }
    let worse_by = match m.better {
        Better::Lower => (b_median - a_median) / a_median,
        Better::Higher => (a_median - b_median) / a_median,
    };
    if worse_by > m.bound {
        "worse"
    } else if worse_by < -m.bound {
        "better"
    } else {
        "same"
    }
}

/// Compares result file `b` against `a`: one row per (workload, metric)
/// with both medians, min/max and a verdict (`unresolved` when either
/// side's rep spread exceeds the bound), plus the two `sim_digest`s.
/// Returns whether no pair is worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:12} {:22} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "change"
    );
    for w in &WORKLOADS {
        let digest = |f: &Json| {
            f.get("workloads")
                .and_then(|x| x.get(w.name))
                .and_then(|x| x.get("sim_digest"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let (Some(da), Some(db)) = (digest(&a), digest(&b)) else {
            continue; // A workload only one side ran has nothing to compare.
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, w.name, m.name), side(&b, w.name, m.name)) else {
                return Err(format!("{}/{}: missing on one side", w.name, m.name));
            };
            let v = verdict(m, sa.median, sb.median, sa.spread.max(sb.spread));
            ok &= v != "worse";
            println!(
                "{:12} {:22} {:>12.4} {:>12.4}..{:<11.4} {:>12.4} {:>12.4}..{:<11.4} {:>+7.2}%  {v}",
                w.name,
                m.name,
                sa.median,
                sa.min,
                sa.max,
                sb.median,
                sb.min,
                sb.max,
                (sb.median - sa.median) / sa.median * 100.0
            );
        }
        println!(
            "{:12} sim_digest A {da} B {db} {}",
            w.name,
            if da == db { "equal" } else { "DIFFERENT" }
        );
    }
    Ok(ok)
}

/// Default result file of `perf run`.
pub fn default_out(quick: bool) -> PathBuf {
    crate::once::out_dir().join(if quick {
        "result.quick.json"
    } else {
        "result.json"
    })
}
