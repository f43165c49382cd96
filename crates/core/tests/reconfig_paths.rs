//! Byte-level goldens for the three reconfiguration paths the system
//! layer drives: a live grow restripe under streaming load, a live
//! shrink whose draining source cub crashes and restarts, and a
//! spare-shield campaign across a double failure.
//!
//! Same discipline as `service_paths.rs`: each scenario is a small
//! fixed-seed run whose *entire* observable output — every trace line,
//! the loss ledger, the aggregate client report and the primary layout
//! digest — is folded into one FNV-1a digest and compared against a
//! checked-in value produced before the system layer was split by
//! concern. A digest changes only when behaviour does; regenerate by
//! running with `-- --nocapture` and copying the printed values.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{Bandwidth, SimDuration, SimTime};
use tiger_trace::{TraceEvent, TraceRecord};

/// Large enough that no scenario overwrites a record: the digest covers
/// the whole run, not the ring's tail.
const TRACE_CAP: usize = 1 << 21;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A blip-free ring of `cubs` striped machines plus `spares`.
fn ring(cubs: u32, spares: u32) -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(cubs, 1, 2);
    cfg.spare_cubs = spares;
    cfg.num_clients = cubs;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    cfg.seed = 1997;
    cfg
}

/// Starts `viewers` staggered plays alternating over two `secs`-long
/// files; returns the instances in start order.
fn load(sys: &mut TigerSystem, viewers: u64, secs: u64) -> Vec<ViewerInstance> {
    sys.enable_trace(TRACE_CAP);
    let rate = Bandwidth::from_mbit_per_sec(2);
    let files = [
        sys.add_file(rate, SimDuration::from_secs(secs)),
        sys.add_file(rate, SimDuration::from_secs(secs)),
    ];
    (0..viewers)
        .map(|i| {
            let client = sys.add_client();
            let at = SimTime::from_millis(100 + i * 400);
            sys.request_start(at, client, files[(i % 2) as usize])
        })
        .collect()
}

/// The run's records and the digest over everything it produced.
fn finish(sys: &TigerSystem, name: &str) -> (Vec<TraceRecord>, u64) {
    let records = sys.tracer().records();
    assert!(
        (records.len() as u64) == sys.tracer().recorded(),
        "{name}: trace ring overflowed; raise TRACE_CAP"
    );
    let text = format!(
        "{}{:?}\n{:?}\n{}\n",
        sys.tracer().dump().expect("tracing is on"),
        sys.metrics().loss,
        sys.all_clients_report(),
        sys.layout_digest()
    );
    let digest = fnv1a(&text);
    println!("{name}: {digest:#018x} ({} records)", records.len());
    (records, digest)
}

fn count(records: &[TraceRecord], pred: impl Fn(&TraceRecord) -> bool) -> usize {
    records.iter().filter(|r| pred(r)).count()
}

#[test]
fn grow_restripe_under_streaming_load() {
    let mut sys = TigerSystem::new(ring(6, 2));
    load(&mut sys, 6, 120);
    sys.request_restripe(SimTime::from_secs(5), 2);
    sys.run_until(SimTime::from_secs(140));
    let (records, digest) = finish(&sys, "grow_restripe_under_streaming_load");
    assert_eq!(
        count(&records, |r| matches!(
            r.ev,
            TraceEvent::RestripeCutover { .. }
        )),
        1,
        "restripe never cut over"
    );
    assert_eq!(sys.world().cfg.stripe.num_cubs, 8);
    assert_eq!(digest, 0x0439_685e_19e2_e8d9);
}

#[test]
fn shrink_with_source_crash_and_restart_mid_drain() {
    // Cub 5 is the departing member: every block homed on it drains to
    // the survivors. It dies 300 ms into the drain with reads in flight
    // and comes back ten seconds later; the parked moves resume.
    let mut sys = TigerSystem::new(ring(6, 0));
    load(&mut sys, 6, 120);
    sys.request_restripe_remove(SimTime::from_secs(5), 1);
    sys.fail_cub_at(SimTime::from_millis(5_300), CubId(5));
    sys.restart_cub_at(SimTime::from_secs(15), CubId(5));
    sys.run_until(SimTime::from_secs(180));
    let (records, digest) = finish(&sys, "shrink_with_source_crash_and_restart_mid_drain");
    let cutover_at = records
        .iter()
        .find_map(|r| matches!(r.ev, TraceEvent::RestripeCutover { .. }).then_some(r.at))
        .expect("shrink never cut over");
    assert!(cutover_at > SimTime::from_secs(15));
    assert!(
        count(&records, |r| matches!(
            r.ev,
            TraceEvent::ShrinkDrain { cub: 5, .. }
        )) == 1
            && count(&records, |r| matches!(
                r.ev,
                TraceEvent::ShrinkFence { cub: 5 }
            )) == 1,
        "the departing cub never drained and fenced"
    );
    assert_eq!(digest, 0x5f66_f2a0_e850_f207);
}

#[test]
fn spare_shield_double_failure_on_the_wide_ring() {
    // Cub 1 dies and the shield shadows its exposed spans onto the one
    // spare (cub 8); cub 3, holder of piece 1 of disk 1's blocks, dies
    // after the spans have landed and the spare serves in its place.
    let mut sys = TigerSystem::new(ring(8, 1));
    load(&mut sys, 8, 100);
    sys.fail_cub_at(SimTime::from_secs(10), CubId(1));
    sys.fail_cub_at(SimTime::from_secs(60), CubId(3));
    sys.run_until(SimTime::from_secs(115));
    let (records, digest) = finish(&sys, "spare_shield_double_failure_on_the_wide_ring");
    assert!(
        count(&records, |r| matches!(
            r.ev,
            TraceEvent::SpareShadow { spare: 8, .. }
        )) > 0,
        "no shadow span ever became ready"
    );
    assert!(
        count(&records, |r| r.cub == 8
            && matches!(r.ev, TraceEvent::MirrorAccept { .. }))
            > 0,
        "the spare never served a shielded piece"
    );
    assert_eq!(digest, 0x0d87_98e8_4074_0575);
}
