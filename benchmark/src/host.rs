//! What the harness reads from the machine it runs on: `/proc` counters,
//! the toolchain and commit for the result file, and the counting
//! allocator the `perf` bin installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// A `#[global_allocator]` that counts calls and bytes and otherwise is
/// the system allocator. Only the `perf` bin installs it; in any other
/// binary the counters stay zero.
pub struct CountingAlloc;

// Relaxed: the counters are statistics read by the single thread that
// also does every allocation; they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the only addition is a relaxed counter bump, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` so far in this process.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k as f64 / 1024.0)
}

/// Nanoseconds this process has spent on a CPU (`/proc/self/schedstat`).
pub fn oncpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// `rustc -V`, or "unknown".
pub fn rustc_version() -> String {
    first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into())
}

/// The commit the harness directory is checked out at, or "unknown"
/// (the driver's checkout is not a git repository).
pub fn commit() -> String {
    first_line_of(
        Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null()),
    )
    .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Removes from this process's environment every variable that would
/// turn on tracing, force a replay or size a worker fleet inside the
/// program under test; child processes inherit the scrubbed environment.
/// Call once at the top of `main`, before any thread exists.
pub fn scrub_env() {
    let scrubbed = |name: &str| {
        name.starts_with("TIGER_TRACE")
            || name == "TIGER_FLEET_THREADS"
            || name == "TIGER_PROP_REPLAY"
    };
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| scrubbed(k))
        .collect();
    for n in names {
        std::env::remove_var(n);
    }
}
