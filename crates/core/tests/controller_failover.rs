//! The controller as a single point of failure.
//!
//! §2.3: "While the Tiger controller is a single point of failure in the
//! current implementation, the distributed schedule work described in this
//! paper removes the major function that the controller in a centralized
//! Tiger system would have. The Netshow product group plans on making the
//! remaining functions of the controller fault tolerant."
//!
//! These tests pin both sides of that sentence: running streams never
//! depend on the controller at all (the paper's key point), and once it
//! is dead nothing new can start.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

fn quiet() -> TigerConfig {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    cfg
}

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn running_streams_survive_controller_death() {
    // The distributed schedule's headline property: once started, a stream
    // needs only the ring of cubs — the controller can die and nobody's
    // video glitches.
    let mut sys = TigerSystem::new(quiet());
    let file = sys.add_file(rate(), SimDuration::from_secs(60));
    let mut viewers = Vec::new();
    for i in 0..10u64 {
        let client = sys.add_client();
        viewers.push((
            client,
            sys.request_start(SimTime::from_millis(100 + i * 400), client, file),
        ));
    }
    sys.fail_controller_at(SimTime::from_secs(10));
    sys.run_until(SimTime::from_secs(80));
    for (client, v) in &viewers {
        let p = sys.clients()[*client as usize]
            .viewer(v)
            .expect("viewer exists");
        assert!(p.complete(), "a stream depended on the controller");
        assert_eq!(p.blocks_missing(), 0);
    }
}

#[test]
fn no_new_starts_after_controller_death() {
    let mut sys = TigerSystem::new(quiet());
    let file = sys.add_file(rate(), SimDuration::from_secs(30));
    sys.fail_controller_at(SimTime::from_secs(5));
    let client = sys.add_client();
    let v = sys.request_start(SimTime::from_secs(10), client, file);
    sys.run_until(SimTime::from_secs(40));
    let p = sys.clients()[client as usize]
        .viewer(&v)
        .expect("registered");
    assert!(
        p.first_block_at.is_none(),
        "a start succeeded with no controller"
    );
}
