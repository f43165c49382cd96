//! Cross-crate integration tests: the full-scale system exercised through
//! the facade crate, with the omniscient hallucination checker on.

use tiger::core::{TigerConfig, TigerSystem};
use tiger::faults::FaultPlan;
use tiger::layout::CubId;
use tiger::sim::{Bandwidth, SimDuration, SimTime};
use tiger::workload::{run, run_ramp, CatalogSpec, Demand, RampConfig, Scenario};

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn sosp_scale_run_respects_the_hallucination() {
    // Full 14-cub system, 120 streams, omniscient checker on: every send
    // and insert must be consistent with the never-materialized global
    // schedule.
    let mut cfg = TigerConfig::sosp97();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();
    let films: Vec<_> = (0..8)
        .map(|_| sys.add_file(rate(), SimDuration::from_secs(90)))
        .collect();
    for i in 0..120u64 {
        let client = sys.add_client();
        sys.request_start(
            SimTime::from_millis(100 + i * 150),
            client,
            films[(i % 8) as usize],
        );
    }
    sys.run_until(SimTime::from_secs(130));
    let report = sys.all_clients_report();
    assert_eq!(report.completed_viewers, 120, "{report:?}");
    assert_eq!(report.blocks_missing, 0);
    assert!(
        sys.take_violations().is_empty(),
        "{:?}",
        sys.take_violations()
    );
}

#[test]
fn sosp_scale_capacity_is_602() {
    let cfg = TigerConfig::sosp97();
    let sys = TigerSystem::new(cfg);
    assert_eq!(sys.world().params.capacity(), 602);
    assert_eq!(
        sys.world().params.schedule_len(),
        SimDuration::from_secs(56)
    );
}

#[test]
fn full_ramp_is_deterministic() {
    let run = || {
        let cfg = RampConfig {
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(120), 8),
            settle: SimDuration::from_secs(20),
            target: Some(120),
            ..RampConfig::fig8(TigerConfig::sosp97(), SimDuration::from_secs(20))
        };
        let r = run_ramp(&cfg);
        (
            r.loss.blocks_sent,
            r.loss.server_missed,
            r.windows
                .iter()
                .map(|w| (w.streams, (w.cub_cpu * 1e12) as u64))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn ramp_loads_are_linear_in_streams() {
    let cfg = RampConfig {
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(200), 64),
        settle: SimDuration::from_secs(20),
        target: Some(240),
        ..RampConfig::fig8(TigerConfig::sosp97(), SimDuration::from_secs(20))
    };
    let r = run_ramp(&cfg);
    assert_eq!(r.windows.len(), 8);
    // cub CPU and disk load scale with streams: the ratio of
    // (load - base) between window 8 and window 2 matches the stream
    // ratio within 20%.
    let w2 = &r.windows[1];
    let w8 = &r.windows[7];
    let stream_ratio = f64::from(w8.streams) / f64::from(w2.streams);
    for (name, a, b) in [
        ("cub_cpu", w2.cub_cpu, w8.cub_cpu),
        ("disk_load", w2.disk_load, w8.disk_load),
    ] {
        let load_ratio = b / a;
        assert!(
            (load_ratio / stream_ratio - 1.0).abs() < 0.25,
            "{name} not linear: loads {a:.3}->{b:.3}, streams x{stream_ratio:.2}"
        );
    }
    // The controller's load does not grow with streams.
    assert!(
        (w8.controller_cpu - w2.controller_cpu).abs() < 0.02,
        "controller load must stay flat: {} -> {}",
        w2.controller_cpu,
        w8.controller_cpu
    );
}

#[test]
fn failed_mode_mirror_cub_outworks_unfailed() {
    let base = RampConfig {
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(150), 8),
        settle: SimDuration::from_secs(15),
        target: Some(240),
        ..RampConfig::fig8(TigerConfig::sosp97(), SimDuration::from_secs(15))
    };
    let unfailed = run_ramp(&base);
    let failed = run_ramp(&RampConfig {
        failed_cub: Some(CubId(5)),
        ..base
    });
    let u = unfailed.windows.last().expect("windows");
    let f = failed.windows.last().expect("windows");
    assert!(
        f.disk_load > u.disk_load * 1.15,
        "mirror disks must work harder"
    );
    assert!(f.control_bytes_per_sec > u.control_bytes_per_sec * 1.5);
    assert!(
        f.nic_utilization > u.nic_utilization,
        "mirror cub sends more"
    );
}

#[test]
fn reconfiguration_window_is_seconds_not_minutes() {
    let mut tiger = TigerConfig::sosp97();
    tiger.disk = tiger.disk.without_blips();
    let r = run(&Scenario {
        demand: Demand::half_load(&tiger),
        tiger,
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(220), 8),
        faults: FaultPlan::parse("crash c5 at=60s").expect("plan parses"),
        run_to: SimTime::from_secs(150),
    });
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert!(
        r.lost_blocks().count() > 0,
        "the detection window loses some blocks"
    );
    let window = r.loss_window_secs();
    assert!(
        window > 1.0 && window < 12.0,
        "loss window {window}s (paper: ~8 s)"
    );
    let det = r.detection_secs().expect("failure detected");
    assert!(det < 6.5, "detection {det}s with a 5 s deadman timeout");
}

#[test]
fn facade_reexports_compose() {
    // Spot-check that the facade's modules interoperate: derive schedule
    // params from a disk profile and stripe config via the facade paths.
    let profile = tiger::disk::DiskProfile::sosp97();
    let stripe = tiger::layout::StripeConfig::new(14, 4, 4);
    let params = tiger::sched::ScheduleParams::derive(
        stripe,
        SimDuration::from_secs(1),
        tiger::sim::ByteSize::from_bytes(250_000),
        profile.worst_case_read(tiger::sim::ByteSize::from_bytes(250_000), 4, true),
        Bandwidth::from_mbit_per_sec(135),
    );
    assert_eq!(params.capacity(), 602);
}
