//! A small in-tree property-testing harness.
//!
//! Replaces the registry `proptest` dependency with the subset this
//! codebase actually needs: run a property closure over many
//! deterministically seeded random cases, and on failure report the exact
//! case seed so the run can be replayed in isolation.
//!
//! Each case gets its own [`SimRng`] forked from `(root seed, property
//! name, case index)` — the same stream-independence discipline the
//! simulation itself uses — so adding cases to one property never perturbs
//! another, and a failing seed is stable across the whole suite.
//!
//! There is deliberately no shrinking: case generation here is simple
//! enough (bounded ints, small vecs) that replaying the one failing seed
//! is a fine debugging workflow. Knobs, via environment variables:
//!
//! * `TIGER_PROP_CASES` — cases per property (default 256).
//! * `TIGER_PROP_SEED` — root seed for the whole suite (default 0).
//! * `TIGER_PROP_REPLAY` — run only the one case with this case seed,
//!   as printed by a failure report.
//! * `TIGER_PROP_THREADS` — shard cases across this many worker threads
//!   (default 1). Because every case's seed is a pure function of
//!   `(root seed, property name, case index)`, sharding cannot change any
//!   case's inputs, and the harness reports the *lowest-index* failure no
//!   matter which worker hits one first — the failure report is identical
//!   at every thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::rng::{RngTree, SimRng};

/// Default number of cases per property.
pub const DEFAULT_CASES: u64 = 256;

/// Extra diagnostics appended to a failure report: called with the
/// failing case seed *after* the case's panic has been caught (i.e. after
/// everything the case built has been dropped), on the thread that ran
/// the case. Returns `None` to add nothing.
type FailureHook = Box<dyn Fn(u64) -> Option<String> + Send + Sync>;

static FAILURE_HOOK: Mutex<Option<FailureHook>> = Mutex::new(None);

/// Installs a process-wide failure hook (replacing any previous one).
///
/// The harness calls it once per failing case and appends the returned
/// line to that case's report. The canonical user is `tiger-trace`, which
/// dumps the failing run's ring-buffer trace to a file and reports the
/// path; the hook indirection keeps this crate free of any dependency on
/// (or knowledge of) the tracer. Hooks must be deterministic functions of
/// the case seed for failure reports to stay identical at every
/// `TIGER_PROP_THREADS` setting.
pub fn set_failure_hook(hook: impl Fn(u64) -> Option<String> + Send + Sync + 'static) {
    *FAILURE_HOOK.lock().expect("failure hook lock") = Some(Box::new(hook));
}

/// Hashes `keys` with [`crate::DetHasher`] and checks that both the low
/// ten bits (the bucket a `HashMap` of a thousand slots picks) and the top
/// seven (the tag it compares before the key) fill every bucket within
/// ±50 % of uniform. For the crates that key a `DetHashMap` by a type of
/// their own.
pub fn assert_hash_spreads<K: std::hash::Hash>(what: &str, keys: impl Iterator<Item = K>) {
    use std::hash::BuildHasher;
    let build = std::hash::BuildHasherDefault::<crate::DetHasher>::default();
    let (mut low, mut top, mut n) = ([0u32; 1 << 10], [0u32; 1 << 7], 0u32);
    for key in keys {
        let h = build.hash_one(key);
        low[(h & 0x3ff) as usize] += 1;
        top[(h >> 57) as usize] += 1;
        n += 1;
    }
    for (bits, counts) in [("low 10", &low[..]), ("top 7", &top[..])] {
        let even = f64::from(n) / counts.len() as f64;
        for (bucket, &count) in counts.iter().enumerate() {
            assert!(
                (0.5 * even..=1.5 * even).contains(&f64::from(count)),
                "{what}: {bits} bits, bucket {bucket} holds {count} of {n} (even share {even})"
            );
        }
    }
}

fn failure_hook_output(case_seed: u64) -> Option<String> {
    FAILURE_HOOK
        .lock()
        .expect("failure hook lock")
        .as_ref()
        .and_then(|hook| hook(case_seed))
}

fn env_u64(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    match parse_u64(&v) {
        Some(x) => Some(x),
        None => panic!("{name} must be an integer (decimal or 0x-hex), got {v:?}"),
    }
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Runs `property` over [`DEFAULT_CASES`] seeded cases (see module docs
/// for environment overrides). The closure receives a fresh, case-specific
/// [`SimRng`] and should `assert!`/`panic!` on violation; returning
/// normally passes the case.
///
/// Panics with the property name, case index, and replayable case seed on
/// the first failure (lowest case index, independent of thread count).
pub fn check(name: &str, property: impl Fn(&mut SimRng) + Sync) {
    check_cases(
        name,
        env_u64("TIGER_PROP_CASES").unwrap_or(DEFAULT_CASES),
        property,
    );
}

/// [`check`] with an explicit case count (`TIGER_PROP_CASES` still wins if
/// set, so one environment knob scales the whole suite).
pub fn check_cases(name: &str, cases: u64, property: impl Fn(&mut SimRng) + Sync) {
    let cases = env_u64("TIGER_PROP_CASES").unwrap_or(cases);
    let root = env_u64("TIGER_PROP_SEED").unwrap_or(0);
    let threads = env_u64("TIGER_PROP_THREADS").unwrap_or(1).max(1);
    let tree = RngTree::new(root).subtree(name, 0);

    if let Some(replay) = env_u64("TIGER_PROP_REPLAY") {
        let mut rng = SimRng::from_seed(replay);
        // Catch the failure so the hook (e.g. the trace dumper) still
        // runs on a replay, then re-raise the original panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = outcome {
            if let Some(extra) = failure_hook_output(replay) {
                eprintln!("replay of case seed {replay:#018x}:\n  {extra}");
            }
            std::panic::resume_unwind(payload);
        }
        return;
    }

    // Runs one case; returns its failure message, if any.
    let run_case = |case: u64| -> Option<String> {
        // The case seed is what failure reports print; reconstruct the
        // same SimRng the tree-fork would produce.
        let case_seed = tree.subtree("case", case).seed();
        let mut rng = SimRng::from_seed(case_seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        let payload = outcome.err()?;
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic payload>");
        let mut report = format!(
            "property '{name}' failed at case {case}/{cases} \
             (case seed {case_seed:#018x}):\n  {msg}\n\
             replay with: TIGER_PROP_REPLAY={case_seed:#x} cargo test {name}"
        );
        if let Some(extra) = failure_hook_output(case_seed) {
            report.push_str("\n  ");
            report.push_str(&extra);
        }
        Some(report)
    };

    if threads == 1 || cases < 2 {
        for case in 0..cases {
            if let Some(report) = run_case(case) {
                panic!("{report}");
            }
        }
        return;
    }

    // Parallel shard: workers claim case indices from a shared counter.
    // Each case is seed-independent, so execution order is irrelevant; the
    // harness keeps only the lowest-index failure so the report matches the
    // sequential run. Workers stop claiming once a failure below their next
    // case is known (later-index failures can't win).
    let next = AtomicU64::new(0);
    let failure: Mutex<Option<(u64, String)>> = Mutex::new(None);
    let workers = threads.min(cases) as usize;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let case = next.fetch_add(1, Ordering::Relaxed);
                if case >= cases {
                    return;
                }
                if failure
                    .lock()
                    .expect("harness lock")
                    .as_ref()
                    .is_some_and(|&(c, _)| c < case)
                {
                    return; // A strictly earlier failure already won.
                }
                if let Some(report) = run_case(case) {
                    let mut best = failure.lock().expect("harness lock");
                    if best.as_ref().is_none_or(|&(c, _)| case < c) {
                        *best = Some((case, report));
                    }
                }
            });
        }
    });
    if let Some((_, report)) = failure.into_inner().expect("harness lock") {
        panic!("{report}");
    }
}

/// Generates a vector whose length is drawn from `len` and whose elements
/// come from `item` — the `proptest::collection::vec` workhorse.
pub fn vec_of<T>(
    rng: &mut SimRng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        // Atomics, not Cell: the property closure must be Sync so the
        // harness may shard it across worker threads.
        let count = AtomicU64::new(0);
        check_cases("always-true", 64, |_rng| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn failing_property_reports_case_seed() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_cases("fails-eventually", 64, |rng| {
                let x = rng.gen_range(0u64..100);
                assert!(x < 2, "x was {x}");
            });
        }));
        let payload = result.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("string panic payload");
        assert!(msg.contains("fails-eventually"), "{msg}");
        assert!(msg.contains("TIGER_PROP_REPLAY"), "{msg}");
        assert!(msg.contains("case seed"), "{msg}");
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            // Interior mutability: the property closure is `Fn + Sync`, so
            // record each case's first draw through a Mutex.
            let seen = Mutex::new(Vec::new());
            check_cases("determinism", 16, |rng| {
                seen.lock().unwrap().push(rng.next_u64());
            });
            let mut draws = seen.into_inner().unwrap();
            draws.sort_unstable();
            draws
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn distinct_properties_get_distinct_streams() {
        let first_draw = |name: &str| {
            let v = AtomicU64::new(0);
            check_cases(name, 1, |rng| v.store(rng.next_u64(), Ordering::Relaxed));
            v.load(Ordering::Relaxed)
        };
        assert_ne!(first_draw("prop-a"), first_draw("prop-b"));
    }

    #[test]
    fn sharded_failure_report_matches_sequential() {
        // The same failing property must produce a byte-identical report
        // whether cases run on one thread or several: the harness keeps the
        // lowest-index failure regardless of which worker finds one first.
        let report_with_threads = |threads: &str| {
            std::env::set_var("TIGER_PROP_THREADS", threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                check_cases("shard-equivalence", 64, |rng| {
                    let x = rng.gen_range(0u64..100);
                    assert!(x < 5, "x was {x}");
                });
            }));
            std::env::remove_var("TIGER_PROP_THREADS");
            let payload = result.expect_err("property must fail");
            payload
                .downcast_ref::<String>()
                .expect("string panic payload")
                .clone()
        };
        let sequential = report_with_threads("1");
        let sharded = report_with_threads("3");
        assert_eq!(sequential, sharded);
        assert!(sequential.contains("shard-equivalence"), "{sequential}");
    }

    #[test]
    fn sharded_run_executes_every_case() {
        let count = AtomicU64::new(0);
        std::env::set_var("TIGER_PROP_THREADS", "4");
        check_cases("shard-coverage", 64, |_rng| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        std::env::remove_var("TIGER_PROP_THREADS");
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut rng = SimRng::from_seed(3);
        for _ in 0..200 {
            let v = vec_of(&mut rng, 1..7, |r| r.gen_range(0u32..10));
            assert!((1..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }
}
