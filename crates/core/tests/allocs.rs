//! Heap allocations per block sent at full load: a count, exactly
//! repeatable. A test binary of its own, because counting needs a
//! `#[global_allocator]` and a binary has one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tiger_core::{TigerConfig, TigerSystem};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

/// The system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed through to `System` unchanged; the counter
// is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn full_load_allocates_little_per_block() {
    // `sosp97`, blips off, a start queued for every slot of the schedule
    // as `protocol::full_load_dispatches_what_a_block_needs` queues them;
    // allocations between t = 100 s and t = 200 s over the blocks sent in
    // the same span. The only test in this binary, so nothing else
    // allocates meanwhile. Measured here: 3,074 allocations for 60,186
    // blocks, 0.051 a block — the `Arc` a forwarded batch travels in, one
    // or two a pass. (85,124 and 1.414 while a view slot's entry lived in a
    // `Vec` of its own and the per-instance questions in two B-trees;
    // 14,278 and 0.237 before the forward pass kept its two vectors.)
    let mut cfg = TigerConfig::sosp97();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    let capacity = sys.shared().params.capacity();
    let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(400));
    for i in 0..u64::from(capacity) {
        let client = sys.add_client();
        let at = SimTime::from_millis(100 + i * 100);
        sys.request_start_at(at, client, file, (i * 7 % 191) as u32);
    }
    sys.run_until(SimTime::from_secs(100));
    let open = (
        ALLOCS.load(Ordering::Relaxed),
        sys.metrics().loss.blocks_sent,
    );
    sys.run_until(SimTime::from_secs(200));
    let allocs = ALLOCS.load(Ordering::Relaxed) - open.0;
    let blocks = (sys.metrics().loss.blocks_sent - open.1) as f64;
    let per_block = allocs as f64 / blocks;
    println!("{allocs} allocations for {blocks} blocks: {per_block:.3} a block");
    assert!(per_block < 0.4, "{per_block:.3} allocations a block");
}
