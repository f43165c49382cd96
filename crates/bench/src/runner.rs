//! An in-tree micro-benchmark runner (the criterion replacement).
//!
//! Keeps the parts of criterion this repo used — `bench_function` with a
//! calibrated `Bencher::iter` loop — and adds what criterion made awkward:
//! machine-readable JSON on stdout-adjacent channels so the BENCH_*.json
//! trajectory can be tracked across PRs without any registry dependency.
//!
//! Protocol per benchmark:
//!
//! 1. *Calibrate*: starting at one iteration, double the batch size until
//!    one batch takes ≥ [`Runner::MIN_BATCH`].
//! 2. *Warm up*: run one calibrated batch, discarded.
//! 3. *Sample*: time [`Runner::SAMPLES`] batches; report per-iteration
//!    nanoseconds as min / median / mean.
//!
//! The human-readable table goes to stderr; the JSON document goes to
//! stdout (and to the path in `TIGER_BENCH_OUT`, if set), so
//! `cargo bench --bench micro > BENCH_micro.json` does the obvious thing.
//! A single CLI argument filters benchmarks by substring, and the
//! libtest-style `--bench` flag cargo passes is ignored.

use std::time::Instant;

/// Re-export of the standard optimizer barrier, so benchmark files need no
/// direct `std::hint` import churn relative to the criterion version.
pub use std::hint::black_box;

/// Times one calibrated batch of the benchmarked operation.
pub struct Bencher {
    iters: u64,
    elapsed_ns: u128,
}

impl Bencher {
    /// Runs `f` for the batch's iteration count and records the elapsed
    /// wall-clock time. Call exactly once from the benchmark closure.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos();
    }

    /// As [`Bencher::iter`], for an operation that needs untimed work
    /// between iterations (refilling what it consumed): `f` runs one
    /// iteration and returns the part of it that counts.
    pub fn iter_timed(&mut self, mut f: impl FnMut() -> std::time::Duration) {
        self.elapsed_ns = (0..self.iters).map(|_| f().as_nanos()).sum();
    }
}

/// One benchmark's aggregated result.
///
/// Serialized with a *stable field order* (the order of the fields below)
/// so `BENCH_*.json` snapshots diff cleanly across PRs and the
/// `bench_compare` tool can treat missing fields as "older schema".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (`group/function`).
    pub name: String,
    /// Iterations per timed batch after calibration.
    pub iters_per_sample: u64,
    /// Discarded warm-up batches run before sampling (each of
    /// `iters_per_sample` iterations).
    pub warmup_batches: u64,
    /// Timed batches.
    pub samples: u64,
    /// Threads the runner timed on (always 1 today — batches are timed
    /// sequentially — recorded so snapshots stay comparable if that
    /// ever changes).
    pub threads: u64,
    /// Fastest observed per-iteration time, nanoseconds.
    pub min_ns: f64,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time, nanoseconds.
    pub mean_ns: f64,
}

/// Collects and reports benchmark results.
pub struct Runner {
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::from_args()
    }
}

impl Runner {
    /// Minimum time one calibrated batch must take, nanoseconds.
    const MIN_BATCH: u128 = 5_000_000;
    /// Timed batches per benchmark.
    const SAMPLES: usize = 25;
    /// Warm-up batches run (and discarded) before sampling.
    const WARMUP_BATCHES: u64 = 1;

    /// Builds a runner from CLI args: the first argument that is not a
    /// `--flag` (cargo passes `--bench`) is a substring filter.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Runner {
            filter,
            results: Vec::new(),
        }
    }

    /// Calibrates, warms up, samples, and records one benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Calibrate: double the batch until it runs long enough to time.
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed_ns: 0,
            };
            f(&mut b);
            assert!(
                b.elapsed_ns > 0 || iters > 1,
                "benchmark '{name}' never called iter()"
            );
            if b.elapsed_ns >= Self::MIN_BATCH || iters >= 1 << 30 {
                break;
            }
            iters *= 2;
        }
        // Warm-up batch, discarded.
        let mut warm = Bencher {
            iters,
            elapsed_ns: 0,
        };
        f(&mut warm);
        // Timed samples.
        let mut per_iter: Vec<f64> = (0..Self::SAMPLES)
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed_ns: 0,
                };
                f(&mut b);
                b.elapsed_ns as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min_ns = per_iter[0];
        let median_ns = per_iter[per_iter.len() / 2];
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        eprintln!(
            "{name:<40} {min_ns:>12.1} ns/iter (min)  {median_ns:>12.1} (median)  \
             {mean_ns:>12.1} (mean)  [{iters} iters x {} samples]",
            Self::SAMPLES
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            warmup_batches: Self::WARMUP_BATCHES,
            samples: Self::SAMPLES as u64,
            threads: 1,
            min_ns,
            median_ns,
            mean_ns,
        });
    }

    /// The JSON document for the collected results. Field order is stable
    /// (see [`BenchResult`]) so snapshots diff line-by-line across PRs.
    pub fn to_json(&self) -> String {
        results_json(&self.results)
    }

    /// Prints the JSON document to stdout and, if `TIGER_BENCH_OUT` is
    /// set, writes it there too.
    pub fn finish(self) {
        let json = self.to_json();
        print!("{json}");
        if let Ok(path) = std::env::var("TIGER_BENCH_OUT") {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
    }
}

/// Serializes results to the `BENCH_*.json` snapshot format (the inverse
/// of [`parse_snapshot`]); shared by the live [`Runner`] and the
/// `bench_merge` snapshot consolidator.
pub fn results_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"iters_per_sample\": {}, \"warmup_batches\": {}, \
             \"samples\": {}, \"threads\": {}, \
             \"min_ns\": {:.2}, \"median_ns\": {:.2}, \"mean_ns\": {:.2}}}{}\n",
            json_string(&r.name),
            r.iters_per_sample,
            r.warmup_batches,
            r.samples,
            r.threads,
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_*.json` snapshot produced by [`Runner::to_json`].
///
/// This is the inverse of the emitter, not a general JSON parser: it
/// understands exactly the one-object-per-line shape the runner writes
/// (names contain no unescaped quotes beyond `\"` handled below). Fields
/// absent from older snapshots (`warmup_batches`, `threads`) default to
/// zero, so `bench_compare` can diff across the schema change.
pub fn parse_snapshot(json: &str) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let Some(name) = str_field(line, "name") else {
            continue;
        };
        out.push(BenchResult {
            name,
            iters_per_sample: num_field(line, "iters_per_sample") as u64,
            warmup_batches: num_field(line, "warmup_batches") as u64,
            samples: num_field(line, "samples") as u64,
            threads: num_field(line, "threads") as u64,
            min_ns: num_field(line, "min_ns"),
            median_ns: num_field(line, "median_ns"),
            mean_ns: num_field(line, "mean_ns"),
        });
    }
    out
}

/// Extracts the string value of `"key": "..."` from one snapshot line,
/// undoing the escapes [`json_string`] applies.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts the numeric value of `"key": <number>` from one snapshot
/// line; 0.0 when the key is absent (older schema).
fn num_field(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let Some(start) = line.find(&pat).map(|i| i + pat.len()) else {
        return 0.0;
    };
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0.0)
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a/b"), "\"a/b\"");
        assert_eq!(json_string("q\"x\\"), "\"q\\\"x\\\\\"");
        assert_eq!(json_string("\n"), "\"\\n\"");
    }

    #[test]
    fn results_serialize_to_valid_shape() {
        let mut r = Runner {
            filter: None,
            results: Vec::new(),
        };
        r.results.push(BenchResult {
            name: "group/fn".into(),
            iters_per_sample: 1024,
            warmup_batches: 1,
            samples: 25,
            threads: 1,
            min_ns: 12.5,
            median_ns: 13.0,
            mean_ns: 13.2,
        });
        let json = r.to_json();
        assert!(json.contains("\"benchmarks\": ["));
        assert!(json.contains("\"name\": \"group/fn\""));
        assert!(json.contains("\"min_ns\": 12.50"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Stable field order: iters/warmup/samples/threads before timings.
        let line = json.lines().find(|l| l.contains("group/fn")).unwrap();
        let order = [
            "name",
            "iters_per_sample",
            "warmup_batches",
            "samples",
            "threads",
            "min_ns",
        ];
        let positions: Vec<usize> = order
            .iter()
            .map(|k| line.find(&format!("\"{k}\"")).expect(k))
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "field order drifted"
        );
    }

    #[test]
    fn snapshot_roundtrips_through_parser() {
        let mut r = Runner {
            filter: None,
            results: Vec::new(),
        };
        r.results.push(BenchResult {
            name: "event_queue/churn \"4k\"".into(),
            iters_per_sample: 2048,
            warmup_batches: 1,
            samples: 25,
            threads: 1,
            min_ns: 53.79,
            median_ns: 54.44,
            mean_ns: 56.23,
        });
        let parsed = parse_snapshot(&r.to_json());
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "event_queue/churn \"4k\"");
        assert_eq!(parsed[0].iters_per_sample, 2048);
        assert_eq!(parsed[0].threads, 1);
        assert!((parsed[0].median_ns - 54.44).abs() < 1e-9);
    }

    #[test]
    fn parser_tolerates_older_schema() {
        // Pre-schema snapshots lack warmup_batches/threads; they parse with
        // those fields zeroed rather than failing the comparison.
        let old = "{\n  \"benchmarks\": [\n    \
                   {\"name\": \"a/b\", \"iters_per_sample\": 64, \"samples\": 25, \
                   \"min_ns\": 1.00, \"median_ns\": 2.00, \"mean_ns\": 3.00}\n  ]\n}\n";
        let parsed = parse_snapshot(old);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].warmup_batches, 0);
        assert_eq!(parsed[0].threads, 0);
        assert!((parsed[0].median_ns - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bench_function_measures_and_filters() {
        let mut r = Runner {
            filter: Some("keep".into()),
            results: Vec::new(),
        };
        r.bench_function("keep/this", |b| {
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(black_box(1));
                x
            })
        });
        r.bench_function("skip/this", |b| b.iter(|| 1u64));
        assert_eq!(r.results.len(), 1);
        assert_eq!(r.results[0].name, "keep/this");
        assert!(r.results[0].min_ns >= 0.0);
        assert!(r.results[0].mean_ns >= r.results[0].min_ns);
    }
}
