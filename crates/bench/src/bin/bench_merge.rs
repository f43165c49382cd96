//! Consolidates several micro-bench runs into one conservative snapshot.
//!
//! ```text
//! bench_merge RUN1.json RUN2.json ... > BENCH_micro.json
//! ```
//!
//! For every benchmark, emits the run with the **largest median** — the
//! pessimistic envelope. On a host with intermittent slow phases (shared
//! 1-vCPU VMs routinely have 1.5-2x stretches), snapshotting a single
//! lucky run makes every later `bench_compare` false-fire; taking the
//! max-median over six-plus spaced runs bakes the slow phases into the
//! baseline instead. Driven by `scripts/bench_snapshot.sh`.
//!
//! Exits non-zero if the runs don't all contain the same benchmark set,
//! so a filtered or crashed run can't silently shrink the snapshot.
//!
//! `bench_merge --into SNAPSHOT.json RUN1.json ...` re-snapshots part of
//! the suite (runs made under a name filter): the merged rows replace the
//! snapshot's rows of the same name, a new row goes after the last row of
//! its `group/`, and every other row is carried over as it stands.

use std::process::exit;

use tiger_bench::runner::{parse_snapshot, results_json, BenchResult};

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    let into = (paths.first().map(String::as_str) == Some("--into") && paths.len() > 1)
        .then(|| paths.drain(..2).nth(1).expect("two drained"));
    if paths.len() < 2 {
        eprintln!("usage: bench_merge [--into SNAPSHOT.json] RUN1.json RUN2.json ...");
        exit(2);
    }
    let load = |p: &String| {
        let json = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench_merge: cannot read {p}: {e}");
            exit(2);
        });
        let results = parse_snapshot(&json);
        if results.is_empty() {
            eprintln!("bench_merge: no benchmarks found in {p}");
            exit(2);
        }
        results
    };
    let runs: Vec<Vec<BenchResult>> = paths.iter().map(load).collect();

    // The first run fixes the benchmark set and order; every other run
    // must cover exactly the same names.
    let mut merged: Vec<BenchResult> = Vec::with_capacity(runs[0].len());
    for base in &runs[0] {
        let mut worst = base.clone();
        for (run, path) in runs.iter().zip(&paths).skip(1) {
            let Some(r) = run.iter().find(|r| r.name == base.name) else {
                eprintln!("bench_merge: {path} is missing benchmark '{}'", base.name);
                exit(1);
            };
            if r.median_ns > worst.median_ns {
                worst = r.clone();
            }
        }
        merged.push(worst);
    }
    for (run, path) in runs.iter().zip(&paths).skip(1) {
        for r in run {
            if !runs[0].iter().any(|b| b.name == r.name) {
                eprintln!(
                    "bench_merge: {path} has extra benchmark '{}' absent from {}",
                    r.name, paths[0]
                );
                exit(1);
            }
        }
    }

    eprintln!(
        "bench_merge: {} benchmarks, max-median over {} runs",
        merged.len(),
        runs.len()
    );
    if let Some(snapshot) = into {
        let mut rows = load(&snapshot);
        for new in merged {
            let group = |name: &str| name.split('/').next().map(str::to_owned);
            if let Some(old) = rows.iter_mut().find(|r| r.name == new.name) {
                *old = new;
            } else if let Some(last) = rows
                .iter()
                .rposition(|r| group(&r.name) == group(&new.name))
            {
                rows.insert(last + 1, new);
            } else {
                rows.push(new);
            }
        }
        merged = rows;
    }
    print!("{}", results_json(&merged));
}
