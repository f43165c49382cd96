//! The counting allocator the heap tests share: the system allocator,
//! counting the bytes it has handed out and not yet taken back, and the
//! calls that hand out memory on each thread. A test binary that declares
//! `mod common;` allocates through it, because a binary has one
//! `#[global_allocator]`; a binary reads the count it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made on this thread: each test runs a system on a
    /// thread of its own, so tests running side by side do not mix.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bytes handed out and not yet taken back, over every thread.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Calls that handed out memory on this thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn handed_out(bytes: usize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed through to `System` unchanged; the counters
// are statistics that publish no other data, and the thread-local one has
// no destructor and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        handed_out(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        handed_out(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        handed_out(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
