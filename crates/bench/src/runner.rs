//! An in-tree micro-benchmark runner (the criterion replacement) that
//! times in reference nanoseconds.
//!
//! Keeps the parts of criterion this repo used — `bench_function` with a
//! calibrated `Bencher::iter` loop — and reads each timing against the
//! [`RefClock`] kernel, so that two runs taken minutes apart on a noisy
//! shared host can be set side by side.
//!
//! Protocol per benchmark:
//!
//! 1. *Calibrate*: starting at one iteration, double the batch size until
//!    one batch takes ≥ `Runner::MIN_BATCH` (5 ms).
//! 2. *Warm up*: run one calibrated batch, discarded.
//! 3. *Sample*: time `Runner::SAMPLES` (25) batches, each bracketed by timed
//!    kernel bursts; a batch's per-iteration time divided by the mean
//!    slowdown of its two brackets is one sample in reference ns. A row is
//!    the median sample and the median slowdown.
//!
//! The human-readable table goes to stderr and the JSON document to
//! stdout, so `cargo bench -q -p tiger-bench > a.json` records one side of
//! an A/B that `bench_compare a.json b.json` reads. The rows are an A/B
//! instrument, not a gate: over five runs of one binary, 3 of 45 rows'
//! medians still spread by more than 10 % (docs/perf-log.md,
//! "MICRO-NOISE"). A single CLI argument filters
//! benchmarks by substring, and the libtest-style `--bench` flag cargo
//! passes is ignored.

use std::time::Instant;

use crate::refclock::RefClock;

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

/// One benchmark's row, serialized in this field order.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Benchmark name (`group/function`).
    pub name: String,
    /// Median per-iteration time, reference nanoseconds.
    pub ref_ns: f64,
    /// Median slowdown of the kernel beside the batches (1.0 = the quiet
    /// reference box).
    pub slowdown: f64,
}

/// Collects and reports benchmark results.
pub struct Runner {
    filter: Option<String>,
    clock: RefClock,
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
    /// Timed kernel bursts on each side of a batch: ≈0.5 ms each side,
    /// the fifth of a minimum batch that `benchmark/` spends on its kernel.
    const BRACKET_BURSTS: u64 = 6;

    /// Builds a runner from CLI args: the first argument that is not a
    /// `--flag` (cargo passes `--bench`) is a substring filter.
    pub fn from_args() -> Self {
        Self::new(std::env::args().skip(1).find(|a| !a.starts_with("--")))
    }

    fn new(filter: Option<String>) -> Self {
        Runner {
            filter,
            clock: RefClock::new(),
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
        let mut batch = |iters| {
            let mut b = Bencher {
                iters,
                elapsed_ns: 0,
            };
            f(&mut b);
            b.elapsed_ns
        };
        // Calibrate: double the batch until it runs long enough to time.
        let mut iters = 1u64;
        loop {
            let elapsed_ns = batch(iters);
            assert!(
                elapsed_ns > 0 || iters > 1,
                "benchmark '{name}' never called iter()"
            );
            if elapsed_ns >= Self::MIN_BATCH || iters >= 1 << 30 {
                break;
            }
            iters *= 2;
        }
        batch(iters); // Warm-up, discarded.
        let (ref_ns, slowdowns): (Vec<f64>, Vec<f64>) = (0..Self::SAMPLES)
            .map(|_| {
                let before = self.clock.slowdown(Self::BRACKET_BURSTS);
                let elapsed_ns = batch(iters);
                let slowdown = (before + self.clock.slowdown(Self::BRACKET_BURSTS)) / 2.0;
                (elapsed_ns as f64 / iters as f64 / slowdown, slowdown)
            })
            .unzip();
        let (ref_ns, slowdown) = (median(ref_ns), median(slowdowns));
        eprintln!(
            "{name:<40} {ref_ns:>12.1} ref-ns/iter (median)  slowdown {slowdown:>5.2}  \
             [{iters} iters x {} samples]",
            Self::SAMPLES
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            ref_ns,
            slowdown,
        });
    }

    /// The JSON document for the collected results, one row a line (the
    /// shape [`parse_snapshot`] reads back).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"median_ref_ns\": {:.2}, \"median_slowdown\": {:.3}}}{}\n",
                json_string(&r.name),
                r.ref_ns,
                r.slowdown,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Prints the JSON document to stdout.
    pub fn finish(self) {
        print!("{}", self.to_json());
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Parses a document produced by [`Runner::to_json`].
///
/// This is the inverse of the emitter, not a general JSON parser: it
/// understands exactly the one-object-per-line shape the runner writes.
/// A row without all three fields is an error naming its line — a
/// document from before the reference clock has none of them to offer.
pub fn parse_snapshot(json: &str) -> Result<Vec<BenchResult>, String> {
    let mut out = Vec::new();
    for (i, line) in json.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let row = str_field(line, "name").and_then(|name| {
            Some(BenchResult {
                name,
                ref_ns: num_field(line, "median_ref_ns")?,
                slowdown: num_field(line, "median_slowdown")?,
            })
        });
        out.push(row.ok_or_else(|| format!("line {}: not a benchmark row: {line}", i + 1))?);
    }
    Ok(out)
}

/// Extracts the string value of `"key": "..."` from one row, undoing the
/// escapes [`json_string`] applies.
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

/// Extracts the numeric value of `"key": <number>` from one row.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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
        let mut r = Runner::new(None);
        r.results.push(BenchResult {
            name: "group/fn".into(),
            ref_ns: 12.5,
            slowdown: 1.25,
        });
        let json = r.to_json();
        assert!(json.contains("\"benchmarks\": ["));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let line = json.lines().find(|l| l.contains("group/fn")).unwrap();
        assert_eq!(
            line.trim(),
            "{\"name\": \"group/fn\", \"median_ref_ns\": 12.50, \"median_slowdown\": 1.250}"
        );
    }

    #[test]
    fn snapshot_roundtrips_through_parser() {
        let mut r = Runner::new(None);
        for name in ["event_queue/churn \"4k\"", "view/apply_duplicate"] {
            r.results.push(BenchResult {
                name: name.into(),
                ref_ns: 54.44,
                slowdown: 1.207,
            });
        }
        assert_eq!(parse_snapshot(&r.to_json()), Ok(r.results));
    }

    #[test]
    fn parser_rejects_a_row_missing_a_field() {
        // A wall-clock row from before the reference clock.
        let old = "{\n  \"benchmarks\": [\n    \
                   {\"name\": \"a/b\", \"iters_per_sample\": 64, \"samples\": 25, \
                   \"min_ns\": 1.00, \"median_ns\": 2.00, \"mean_ns\": 3.00}\n  ]\n}\n";
        let err = parse_snapshot(old).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn bench_function_measures_and_filters() {
        let mut r = Runner::new(Some("keep".into()));
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
        assert!(r.results[0].ref_ns >= 0.0);
        assert!(r.results[0].slowdown > 0.0);
    }
}
