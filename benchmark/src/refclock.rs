//! Host time measured against a reference kernel.
//!
//! On a small shared machine the same code runs 20–40 % slower for
//! seconds to minutes at a time (a neighbour on the sibling hardware
//! thread, cache and memory contention), while the process stays on a
//! CPU the whole while — so neither more repetitions inside a run nor CPU
//! time removes it. The harness therefore interleaves the measured work
//! with short bursts of a fixed kernel that uses only `std` (a binary
//! heap and a hash map churned by an xorshift stream — the shape of a
//! discrete-event loop) and scales each chunk of measured time by how
//! much slower than nominal the kernel ran right beside it. A
//! *reference second* is the time the kernel takes for
//! [`REF_ITERS_PER_SEC`] iterations; on the quiet reference box that is
//! one wall second. Nothing in the program under test can move the
//! kernel, so a change that makes the simulator faster moves the ratio
//! exactly as it would move wall time on a quiet machine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Kernel iterations per reference second: the kernel's speed on the
/// 2-core reference box (a KVM guest on a Xeon @ 2.1 GHz) at its quietest.
pub const REF_ITERS_PER_SEC: f64 = 12.0e6;

/// Entries in the kernel's heap and map: ≈0.7 MB, resident in L2 beside
/// the simulator's working set rather than evicting it.
const ENTRIES: u64 = 16_384;
/// Iterations per burst (≈0.1 ms).
const BURST_ITERS: u64 = 1_000;
/// Kernel time spent per unit of measured time.
const KERNEL_SHARE: f64 = 0.2;
/// Measured work accumulates to at least this much before a group of
/// bursts runs, however finely the caller slices its work, so a pass
/// stepped a second at a time and one stepped a cluster at a time
/// interleave alike.
const QUANTUM_NS: u64 = 4_000_000;

struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    map: HashMap<u64, u64>,
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut k = Kernel {
            heap: BinaryHeap::with_capacity(ENTRIES as usize + 1),
            map: HashMap::with_capacity(ENTRIES as usize),
            x: 88_172_645_463_325_252,
        };
        for id in 0..ENTRIES {
            let r = k.next();
            k.heap.push(Reverse((r % 1_000_000, id)));
            k.map.insert(id, r);
        }
        k
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// One burst: pop the earliest entry, touch a random map slot,
    /// reschedule the entry later. Allocation-free in steady state.
    fn burst(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..BURST_ITERS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap never drains");
            let r = self.next();
            if let Some(v) = self.map.get_mut(&(r % ENTRIES)) {
                *v = v.wrapping_add(id);
                acc ^= *v;
            }
            self.heap.push(Reverse((t + 1 + r % 1_000_000, id)));
        }
        acc
    }
}

/// Accumulates measured work and interleaved kernel bursts; yields the
/// work's duration in reference seconds.
pub struct RefClock {
    kernel: Kernel,
    /// Work since the last group of bursts, ns.
    pending_ns: u64,
    /// Closed chunks (one chunk = the work before a group plus the group).
    ref_s: f64,
    work_ns: u64,
    kernel_ns: u64,
    bursts: u64,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    /// Builds the kernel (allocates its ≈0.7 MB once).
    pub fn new() -> Self {
        RefClock {
            kernel: Kernel::new(),
            pending_ns: 0,
            ref_s: 0.0,
            work_ns: 0,
            kernel_ns: 0,
            bursts: 0,
        }
    }

    /// Accounts `ns` of measured work that just ended; once a quantum has
    /// accumulated, runs the group of bursts that keeps the kernel at
    /// [`KERNEL_SHARE`] of it.
    pub fn work(&mut self, ns: u64) {
        self.pending_ns += ns;
        if self.pending_ns >= QUANTUM_NS {
            self.group();
        }
    }

    /// One group: an untimed burst to pull the kernel's working set back
    /// into cache (the measured work evicted part of it), then timed
    /// bursts; the pending work is scaled by their slowdown.
    fn group(&mut self) {
        std::hint::black_box(self.kernel.burst());
        let mut kernel_ns = 0u64;
        let mut bursts = 0u64;
        while (kernel_ns as f64) < KERNEL_SHARE * self.pending_ns as f64 {
            let t = Instant::now();
            std::hint::black_box(self.kernel.burst());
            kernel_ns += t.elapsed().as_nanos() as u64;
            bursts += 1;
        }
        let nominal_ns = (bursts * BURST_ITERS) as f64 / REF_ITERS_PER_SEC * 1e9;
        let slowdown = kernel_ns as f64 / nominal_ns;
        self.ref_s += self.pending_ns as f64 / 1e9 / slowdown;
        self.work_ns += self.pending_ns;
        self.kernel_ns += kernel_ns;
        self.bursts += bursts;
        self.pending_ns = 0;
    }

    /// Returns the totals since the last call.
    pub fn take(&mut self) -> RefSpan {
        // A tail of at least a burst's worth of kernel time earns its own
        // group; a shorter one is scaled by the overall slowdown.
        if self.pending_ns >= QUANTUM_NS / 4 {
            self.group();
        }
        let tail_s = self.pending_ns as f64 / 1e9;
        self.pending_ns = 0;
        // Kernel time observed ÷ nominal (1.0 if no burst ran).
        let slowdown = if self.bursts == 0 {
            1.0
        } else {
            let nominal_ns = (self.bursts * BURST_ITERS) as f64 / REF_ITERS_PER_SEC * 1e9;
            self.kernel_ns as f64 / nominal_ns
        };
        let out = RefSpan {
            ref_s: self.ref_s + tail_s / slowdown,
            wall_s: self.work_ns as f64 / 1e9 + tail_s,
            slowdown,
        };
        self.ref_s = 0.0;
        self.work_ns = 0;
        self.kernel_ns = 0;
        self.bursts = 0;
        out
    }
}

/// One measured stretch of work.
#[derive(Clone, Copy, Debug)]
pub struct RefSpan {
    /// Duration in reference seconds.
    pub ref_s: f64,
    /// Wall seconds of the work itself (bursts excluded).
    pub wall_s: f64,
    /// How much slower than the quiet reference box the host ran the
    /// kernel meanwhile.
    pub slowdown: f64,
}
