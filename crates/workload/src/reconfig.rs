//! The §5 reconfiguration experiment.
//!
//! "A final measurement was the time for the system to reconfigure from a
//! cub failure. We loaded the system to 50% of capacity and cut the power
//! to a cub. We inspected the clients' logs and found about 8 seconds
//! between the earliest and latest lost block."

use tiger_core::{TigerConfig, TigerSystem};
use tiger_faults::FaultPlan;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::CubId;
use tiger_sim::{RngTree, SimDuration, SimTime};

use crate::catalog::{populate_catalog, CatalogSpec};

/// Configuration of the power-cut experiment.
#[derive(Clone, Debug)]
pub struct ReconfigConfig {
    /// System configuration.
    pub tiger: TigerConfig,
    /// Content catalog.
    pub catalog: CatalogSpec,
    /// Fraction of capacity to load before the cut (0.5 in the paper).
    pub load: f64,
    /// The cub whose power is cut.
    pub victim: CubId,
    /// When to cut power (after the load has settled).
    pub cut_at: SimTime,
    /// How long to observe after the cut.
    pub observe: SimDuration,
}

impl ReconfigConfig {
    /// The paper's setup at a given system scale.
    pub fn sosp97(tiger: TigerConfig) -> Self {
        ReconfigConfig {
            tiger,
            catalog: CatalogSpec::sosp97(),
            load: 0.5,
            victim: CubId(5),
            cut_at: SimTime::from_secs(120),
            observe: SimDuration::from_secs(120),
        }
    }
}

/// Result of the power-cut experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconfigResult {
    /// Expected arrival time of the earliest block any client lost.
    pub earliest_loss: Option<f64>,
    /// Expected arrival time of the latest block any client lost.
    pub latest_loss: Option<f64>,
    /// The §5 headline: seconds between the earliest and latest lost block.
    pub loss_window_secs: f64,
    /// Total blocks lost across all clients.
    pub blocks_lost: u64,
    /// When the deadman protocol detected the failure (seconds after the
    /// cut).
    pub detection_secs: Option<f64>,
    /// Streams playing when the power was cut.
    pub streams: u32,
}

/// Runs the power-cut experiment.
pub fn run_reconfig(cfg: &ReconfigConfig) -> ReconfigResult {
    run_reconfig_impl(cfg, None)
}

/// Runs the power-cut experiment with the failure expressed as a
/// declarative fault plan instead of the direct `fail_cub_at` call. With
/// the plan `crash <victim> at=<cut_at>` this is the same experiment —
/// the equivalence test in `tests/faults.rs` holds the two paths to
/// identical results, which is what pins the fault subsystem to the §5
/// measurement.
pub fn run_reconfig_with_plan(cfg: &ReconfigConfig, plan: &FaultPlan) -> ReconfigResult {
    run_reconfig_impl(cfg, Some(plan))
}

fn run_reconfig_impl(cfg: &ReconfigConfig, plan: Option<&FaultPlan>) -> ReconfigResult {
    let mut sys = TigerSystem::new(cfg.tiger.clone());
    let files = populate_catalog(&mut sys, &cfg.catalog);
    let mut chooser = RngTree::new(cfg.tiger.seed).fork("reconfig-files", 0);

    let capacity = sys.shared().params.capacity();
    let want = ((capacity as f64) * cfg.load).round() as u32;
    let mut now = SimTime::from_millis(100);
    for _ in 0..want {
        let client = sys.add_client();
        let file = files[chooser.gen_range(0..files.len())];
        sys.request_start(now, client, file);
        now += SimDuration::from_millis(150);
    }
    assert!(now < cfg.cut_at, "load phase must finish before the cut");
    match plan {
        None => sys.fail_cub_at(cfg.cut_at, cfg.victim),
        Some(p) => sys.apply_fault_plan(p),
    }
    sys.run_until(cfg.cut_at + cfg.observe);

    let streams = sys.controller().active_streams();
    let mut lost = 0u64;
    let mut span: Option<(f64, f64)> = None;
    for (_, _, at) in lost_blocks(&sys, cfg.tiger.block_play_time) {
        lost += 1;
        span = Some(span.map_or((at, at), |(e, l)| (e.min(at), l.max(at))));
    }

    let detection_secs = sys
        .metrics()
        .failure_detections
        .first()
        .map(|&(t, _)| t.saturating_since(cfg.cut_at).as_secs_f64());

    ReconfigResult {
        earliest_loss: span.map(|(e, _)| e),
        latest_loss: span.map(|(_, l)| l),
        loss_window_secs: span.map_or(0.0, |(e, l)| l - e),
        blocks_lost: lost,
        detection_secs,
        streams,
    }
}

/// Every block a client should have received but did not — each gap
/// below a viewer's high-water mark — with its expected arrival time in
/// seconds: the §5 "inspected the clients' logs", reconstructed from the
/// viewer's first-block time and the block play time `bpt` (blocks arrive
/// equitemporally once started). Viewers come in no particular order.
pub(crate) fn lost_blocks(
    sys: &TigerSystem,
    bpt: SimDuration,
) -> impl Iterator<Item = (ViewerInstance, u32, f64)> + '_ {
    let bpt = bpt.as_secs_f64();
    let viewers = sys.clients().iter().flat_map(|c| c.viewers());
    viewers.flat_map(move |(&vi, v)| {
        let played = v.high_water.zip(v.first_block_at);
        played.into_iter().flat_map(move |(high, first)| {
            let first = first.as_secs_f64();
            (0..=high)
                .filter(move |&b| !v.block_received(b))
                .map(move |b| (vi, b, first + f64::from(b) * bpt))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_window_tracks_detection_time() {
        let mut tiger = TigerConfig::small_test();
        tiger.disk = tiger.disk.without_blips();
        tiger.deadman_timeout = SimDuration::from_millis(2_000);
        let cfg = ReconfigConfig {
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(200), 4),
            load: 0.5,
            victim: CubId(1),
            cut_at: SimTime::from_secs(30),
            observe: SimDuration::from_secs(60),
            tiger,
        };
        let result = run_reconfig(&cfg);
        assert!(result.streams > 0);
        assert!(result.detection_secs.expect("detected") < 4.0);
        // Some blocks are lost in the detection window, and the window is
        // bounded: detection + propagation, not tens of seconds.
        assert!(result.blocks_lost > 0, "expected losses in the window");
        assert!(
            result.loss_window_secs < 10.0,
            "loss window {} too wide",
            result.loss_window_secs
        );
    }
}
