//! The memory of a cub's schedule information: bytes of live heap the
//! service table (the view's entries among its records) and the shadow
//! records keep for a cub state the size of one of `scale-56`'s. A test binary of its own,
//! because counting needs a `#[global_allocator]` and a binary has one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tiger_core::cub::service::PieceSpec;
use tiger_core::cub::TableBench;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, DiskId, FileId, StripeConfig, ViewerId};
use tiger_sched::{PrimaryRecord, ScheduleParams, SlotId, StreamKind, ViewApply, ViewerState};
use tiger_sim::{Bandwidth, ByteSize, SimDuration, SimTime};

/// The system allocator, counting the bytes it has handed out and not
/// yet taken back.
struct Live;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed through to `System` unchanged; the counter
// is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

fn record(slot: u32, viewer: u64) -> ViewerState {
    ViewerState {
        instance: ViewerInstance {
            viewer: ViewerId(viewer),
            incarnation: 0,
        },
        client: 1,
        file: FileId(0),
        position: BlockNum(0),
        slot: SlotId(slot),
        play_seq: 0,
        bitrate: Bandwidth::from_mbit_per_sec(2),
        kind: StreamKind::Primary,
    }
}

#[test]
fn a_scale_56_cub_state_keeps_no_more_than_three_maps_did() {
    // One cub of `scale-56` (56 cubs, 2,409 slots) at capacity: 430
    // services at once, each with its view entry; 800 instances with a
    // service or a retired entry; 500 second-successor copies. The records
    // are spread over the whole ring, as a cub's are. Everything the
    // structures keep is charged, the service window and the retired log
    // included. The only test in this binary, so nothing else allocates
    // meanwhile. Measured here: 318,000 bytes while the view entries, the
    // per-instance records and the shadows sat in three hash maps (view
    // 33,296; service window, retired log and records 193,552; shadows
    // 91,152); 302,900 (37,920; 218,488; 46,492) with each a list a slot
    // in a pool, its slot index grown exactly; 273,172 (54,304; 172,376;
    // 46,492) with each view entry in its instance's record (the records
    // now come into being with the view's entries); 252,692 (54,304;
    // 155,992; 42,396) with the retired log and the shadows keeping each
    // record without its kind, 48 bytes an entry against 64 (a shadow's
    // pool entry 56 against 64); 240,404 (54,304; 143,704; 42,396), which
    // is the bound, with a service 80 bytes against 104 (its pacing time
    // derived at the send, its counts narrowed): the window's 512 slots.
    const SLOTS: u32 = 2_409;
    const SERVICES: u32 = 430;
    const RECORDS: u32 = 800;
    const SHADOWS: u32 = 500;
    let params = ScheduleParams::derive(
        StripeConfig::new(56, 4, 4),
        SimDuration::from_secs(1),
        ByteSize::from_bytes(250_000),
        SimDuration::from_nanos(92_954_226),
        Bandwidth::from_mbit_per_sec(135),
    );
    assert_eq!(params.capacity(), SLOTS);
    let spec = PieceSpec::primary(&params, ByteSize::from_bytes(250_000), DiskId(0), 1);
    let spread = |i: u32, apart: u32| (i * apart) % SLOTS;

    let start = LIVE.load(Ordering::Relaxed);
    let mut tables = TableBench::default();
    for i in 0..SERVICES {
        let applied = tables.view_apply(&record(spread(i, 3), u64::from(i)));
        assert_eq!(applied, ViewApply::Inserted);
    }
    let after_view = LIVE.load(Ordering::Relaxed);
    for i in 0..RECORDS {
        let vs = record(spread(i, 3), u64::from(i));
        if i < SERVICES {
            tables.insert(vs, &spec);
        }
        tables.retire(PrimaryRecord::new(&vs).expect("a primary record"));
    }
    let after_services = LIVE.load(Ordering::Relaxed);
    for i in 0..SHADOWS {
        let vs = record((i * 5 + 1) % SLOTS, 10_000 + u64::from(i));
        tables.shadow(vs, SimTime::from_secs(1));
    }
    let end = LIVE.load(Ordering::Relaxed);

    let bytes = end - start;
    println!(
        "{bytes} bytes: view {}, services and retired log {}, shadows {}",
        after_view - start,
        after_services - after_view,
        end - after_services,
    );
    assert!(bytes <= 240_404, "{bytes} bytes");
    drop(tables);
}
