//! Host time measured against a reference kernel.
//!
//! On a small shared machine the same code runs 20–40 % slower for
//! seconds to minutes at a time (a neighbour on the sibling hardware
//! thread, cache and memory contention), while the process stays on a
//! CPU the whole while — so neither more repetitions nor CPU time removes
//! it. A timing is therefore taken beside short bursts of a fixed kernel
//! that uses only `std` (a binary heap and a hash map churned by an
//! xorshift stream — the shape of a discrete-event loop) and divided by
//! how much slower than nominal the kernel ran. A *reference second* is
//! the time the kernel takes for [`REF_ITERS_PER_SEC`] iterations; on the
//! quiet reference box that is one wall second. Nothing under test can
//! move the kernel, so a change that makes the code faster moves the
//! ratio exactly as it would move wall time on a quiet machine.
//!
//! The kernel and its constants are `benchmark/src/refclock.rs`'s, so the
//! micro-benches and the end-to-end harness read in the same units.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Kernel iterations per reference second: the kernel's speed on the
/// 2-core reference box (a KVM guest on a Xeon @ 2.1 GHz) at its quietest.
pub const REF_ITERS_PER_SEC: f64 = 12.0e6;

/// Entries in the kernel's heap and map: ≈0.7 MB, resident in L2.
const ENTRIES: u64 = 16_384;
/// Iterations per burst (≈0.1 ms).
const BURST_ITERS: u64 = 1_000;

/// The reference kernel.
pub struct RefClock {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    map: HashMap<u64, u64>,
    x: u64,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    /// Builds the kernel (allocates its ≈0.7 MB once).
    pub fn new() -> Self {
        let mut k = RefClock {
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

    /// How much slower than the quiet reference box the host runs the
    /// kernel right now: one untimed burst pulls its working set back into
    /// cache (whatever ran before evicted part of it), then `bursts` timed
    /// bursts are set against their nominal time.
    pub fn slowdown(&mut self, bursts: u64) -> f64 {
        std::hint::black_box(self.burst());
        let start = Instant::now();
        for _ in 0..bursts {
            std::hint::black_box(self.burst());
        }
        let nominal_ns = (bursts * BURST_ITERS) as f64 / REF_ITERS_PER_SEC * 1e9;
        start.elapsed().as_nanos() as f64 / nominal_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_positive_ratio() {
        let mut clock = RefClock::new();
        let s = clock.slowdown(2);
        // Unoptimized test builds run the kernel many times slower than
        // nominal; all that holds everywhere is a finite positive ratio.
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }
}
