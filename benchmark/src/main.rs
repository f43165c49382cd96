//! `perf`: the benchmark's command line.
//!
//! ```text
//! perf once --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! perf run [--quick] [--seed N] [--workload NAME] [--out FILE]
//! perf compare A.json B.json
//! perf --list
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use tiger_perf::host::{self, CountingAlloc};
use tiger_perf::once::{run_once, OnceArgs};
use tiger_perf::report::{self, RunOpts, DETAIL_PREFIX};
use tiger_perf::spec;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The held-out seed is 2026; this is the one numbers are quoted for.
const DEFAULT_SEED: u64 = 1997;

const USAGE: &str = "usage:
  perf once --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  perf run [--quick] [--seed N] [--workload NAME] [--out FILE]
  perf compare A.json B.json
  perf --list";

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag}: cannot read {v:?} as a value"))
            })
            .transpose()
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument {a:?}\n{USAGE}")),
        }
    }
}

fn once(mut f: Flags) -> Result<bool, String> {
    let args = OnceArgs {
        workload: f.value("--workload")?.ok_or("once needs --workload")?,
        seed: f.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: f
            .parsed("--seconds")?
            .filter(|s: &f64| (1.0..=60.0).contains(s))
            .ok_or("once needs --seconds between 1 and 60")?,
        trace: match f.value("--trace")?.as_deref() {
            Some("0") | None => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
        },
        quick: f.switch("--quick"),
    };
    f.done()?;
    let report = run_once(&args)?;
    for (name, value, unit) in &report.metrics {
        println!("{:12} {name:40} {value:>16.6} {unit}", args.workload);
    }
    for p in &report.problems {
        println!("{:12} PROBLEM {p}", args.workload);
    }
    println!("{DETAIL_PREFIX}{}", report.detail.to_line());
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn run(mut f: Flags) -> Result<bool, String> {
    let quick = f.switch("--quick");
    let opts = RunOpts {
        quick,
        seed: f.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        workload: f.value("--workload")?,
        out: f
            .value("--out")?
            .map_or_else(|| report::default_out(quick), PathBuf::from),
    };
    f.done()?;
    report::run(&opts)
}

fn main() -> ExitCode {
    // Tracing, replay and fleet knobs must not reach the program under
    // test; nothing else has started a thread yet.
    host::scrub_env();
    if cfg!(debug_assertions) {
        eprintln!("perf: refusing to measure a debug build; use cargo build --release");
        return ExitCode::from(2);
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = if args.is_empty() {
        String::new()
    } else {
        args.remove(0)
    };
    let outcome = match sub.as_str() {
        "once" => once(Flags(args)),
        "run" => run(Flags(args)),
        "compare" => match args.as_slice() {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        "--list" => {
            print!("{}", spec::list_text());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
