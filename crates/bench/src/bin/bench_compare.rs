//! Sets two micro-bench runs side by side, row by row, in reference ns.
//!
//! ```text
//! cargo bench -q -p tiger-bench > A.json    # on the parent
//! cargo bench -q -p tiger-bench > B.json    # on the change
//! bench_compare A.json B.json
//! ```
//!
//! Prints each row's two medians, their ratio (B / A), and each side's
//! median slowdown — how much slower than the quiet reference box the host
//! ran while the row was timed. A report for the PR that cites it, not a
//! gate: it exits 0 whatever the ratios (2 on unreadable input). Rows
//! present on one side only are listed as `new` or `removed`.

use std::process::exit;

use tiger_bench::runner::{parse_snapshot, BenchResult};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a_path, b_path] = args.as_slice() else {
        eprintln!("usage: bench_compare A.json B.json");
        exit(2);
    };
    let a = load(a_path);
    let b = load(b_path);

    println!(
        "{:<40} {:>10} {:>10} {:>7}  slowdown A / B",
        "benchmark", "A ref-ns", "B ref-ns", "B / A"
    );
    for row in &b {
        match a.iter().find(|old| old.name == row.name) {
            Some(old) => println!(
                "{:<40} {:>10.1} {:>10.1} {:>6.2}x  {:>5.2} / {:.2}",
                row.name,
                old.ref_ns,
                row.ref_ns,
                row.ref_ns / old.ref_ns,
                old.slowdown,
                row.slowdown
            ),
            None => println!("{:<40} {:>10} {:>10.1}     new", row.name, "-", row.ref_ns),
        }
    }
    for old in a
        .iter()
        .filter(|old| !b.iter().any(|row| row.name == old.name))
    {
        println!("{:<40} {:>10.1} {:>10}  removed", old.name, old.ref_ns, "-");
    }
}

fn load(path: &str) -> Vec<BenchResult> {
    let rows = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|json| parse_snapshot(&json));
    match rows {
        Ok(rows) if !rows.is_empty() => rows,
        Ok(_) => {
            eprintln!("bench_compare: no benchmarks in {path}");
            exit(2);
        }
        Err(e) => {
            eprintln!("bench_compare: {path}: {e}");
            exit(2);
        }
    }
}
