//! The §5 ramp experiment: Figures 8 (unfailed) and 9 (one cub failed).
//!
//! "In each of the experiments, we ramped the system up to its full
//! capacity of 602 streams … we increased the load on the server by adding
//! 30 streams at a time (except that we added 2 during the final step from
//! 600 to 602 streams), waiting for at least 50s and then recording
//! various system load factors."

use tiger_core::{LossReport, TigerConfig, TigerSystem, WindowSample};
use tiger_layout::CubId;
use tiger_sim::{RngTree, SimDuration, SimTime};

use crate::catalog::{populate_catalog, CatalogSpec};

/// Configuration of a ramp experiment.
#[derive(Clone, Debug)]
pub struct RampConfig {
    /// System configuration.
    pub tiger: TigerConfig,
    /// Content catalog.
    pub catalog: CatalogSpec,
    /// Streams added per step (30 in the paper).
    pub step: u32,
    /// Settle time per step (≥50 s in the paper).
    pub settle: SimDuration,
    /// Target stream count; capped at system capacity. `None` = capacity.
    pub target: Option<u32>,
    /// A cub to fail for the entire run (Figure 9), if any.
    pub failed_cub: Option<CubId>,
    /// Extra steady-state time at the final load (the failed test ran a
    /// further hour at 602 streams).
    pub hold_at_peak: SimDuration,
    /// Which cub's control traffic to report.
    pub report_cub: CubId,
    /// Which cub's disks to report (`None` = all living cubs' mean). The
    /// failed test reports a mirroring cub.
    pub disk_report_cub: Option<CubId>,
}

impl RampConfig {
    /// The Figure 8 configuration at a reduced (fast) scale: capacity
    /// target with short files, no failure.
    pub fn fig8(tiger: TigerConfig, settle: SimDuration) -> Self {
        RampConfig {
            tiger,
            catalog: CatalogSpec::sosp97(),
            step: 30,
            settle,
            target: None,
            failed_cub: None,
            hold_at_peak: SimDuration::ZERO,
            report_cub: CubId(0),
            disk_report_cub: None,
        }
    }

    /// The Figure 9 configuration: cub 5 failed for the whole run; disk
    /// load reported for mirroring cub 6.
    pub fn fig9(tiger: TigerConfig, settle: SimDuration) -> Self {
        RampConfig {
            failed_cub: Some(CubId(5)),
            disk_report_cub: Some(CubId(6)),
            report_cub: CubId(6),
            ..Self::fig8(tiger, settle)
        }
    }
}

/// Result of a ramp run.
#[derive(Clone, Debug)]
pub struct RampResult {
    /// One sample per ramp step (the Figure 8/9 series).
    pub windows: Vec<WindowSample>,
    /// Loss accounting over the whole run.
    pub loss: LossReport,
    /// Client-observed missing blocks.
    pub client_missing: u64,
    /// Client-observed received blocks.
    pub client_received: u64,
    /// Start latency samples `(schedule load, seconds)`.
    pub start_latencies: Vec<(f64, f64)>,
    /// Peak read-ahead buffer bytes used on any cub (the testbed had a
    /// 20 MB cache per cub).
    pub peak_buffers: u64,
    /// Buffer-cache hit rate across all cubs (§5 measured < 0.05%).
    pub cache_hit_rate: f64,
    /// Reads, over all cubs, that found the buffer pool full and waited.
    pub reads_waited: u64,
    /// Reads, over all cubs, still waiting at their hard floor and issued
    /// into the full pool: what takes `peak_buffers` above the cache.
    pub reads_forced: u64,
    /// Events the run dispatched, by kind (those of a count of zero left
    /// out): `TigerSystem::events_dispatched_by_kind`.
    pub events_by_kind: Vec<(&'static str, u64)>,
    /// The omniscient checker's and the NIC/schedule asserts' violations
    /// (empty = the run is clean).
    pub violations: Vec<String>,
}

/// Runs a ramp experiment.
pub fn run_ramp(cfg: &RampConfig) -> RampResult {
    let mut sys = TigerSystem::new(cfg.tiger.clone());
    sys.enable_omniscient();
    let files = populate_catalog(&mut sys, &cfg.catalog);
    let mut chooser = RngTree::new(cfg.tiger.seed).fork("ramp-files", 0);

    if let Some(failed) = cfg.failed_cub {
        // Failed for the entire duration: cut power before any viewer
        // arrives, let detection settle.
        sys.fail_cub_at(SimTime::from_millis(10), failed);
        sys.run_until(SimTime::from_millis(10) + cfg.tiger.deadman_timeout.mul_u64(2));
    }

    let capacity = sys.shared().params.capacity();
    let target = cfg.target.unwrap_or(capacity).min(capacity);
    let mut launched = 0u32;
    let mut now = sys.now();

    while launched < target {
        let batch = cfg.step.min(target - launched);
        // Spread the batch's requests over most of the settle window, like
        // real client machines arriving (tightly bunched same-file starts
        // would ride each other's buffer-cache residency, which the §5
        // setup explicitly avoided).
        let spacing = cfg.settle.mul_u64(3).div_u64(4 * u64::from(batch.max(1)));
        for i in 0..batch {
            let client = sys.add_client();
            let file = files[chooser.gen_range(0..files.len())];
            let at = now + SimDuration::from_millis(50) + spacing.mul_u64(u64::from(i));
            sys.request_start(at, client, file);
        }
        launched += batch;
        now += cfg.settle;
        sys.run_until(now);
        sys.sample_window(now, cfg.report_cub, cfg.disk_report_cub);
    }

    if !cfg.hold_at_peak.is_zero() {
        let end = now + cfg.hold_at_peak;
        // Sample in ~50 s sub-windows during the hold; viewers that reach
        // end-of-file are replaced ("The clients randomly selected a file,
        // played it from beginning to end and repeated", §5).
        let window = SimDuration::from_secs(50);
        while now < end {
            let next = (now + window).min(end);
            sys.run_until(next);
            let active = sys.controller().active_streams();
            for i in 0..target.saturating_sub(active) {
                let client = sys.add_client();
                let file = files[chooser.gen_range(0..files.len())];
                let at = next + SimDuration::from_millis(10 + u64::from(i) * 47);
                sys.request_start(at, client, file);
            }
            sys.sample_window(next, cfg.report_cub, cfg.disk_report_cub);
            now = next;
        }
    }

    let report = sys.all_clients_report();
    RampResult {
        windows: sys.metrics().windows.clone(),
        loss: sys.metrics().loss.clone(),
        client_missing: report.blocks_missing,
        client_received: report.blocks_received,
        start_latencies: sys.metrics().start_latencies.clone(),
        peak_buffers: sys
            .cubs()
            .iter()
            .map(|c| c.peak_buffer_bytes())
            .max()
            .unwrap_or(0),
        cache_hit_rate: {
            let hits: u64 = sys.cubs().iter().map(|c| c.cache_hits.total()).sum();
            let lookups: u64 = sys.cubs().iter().map(|c| c.cache_lookups.total()).sum();
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        },
        reads_waited: sys.cubs().iter().map(|c| c.reads_waited()).sum(),
        reads_forced: sys.cubs().iter().map(|c| c.reads_forced()).sum(),
        events_by_kind: sys
            .events_dispatched_by_kind()
            .filter(|&(_, n)| n > 0)
            .collect(),
        violations: sys.take_violations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, small ramp exercising the whole driver path.
    #[test]
    fn small_ramp_reaches_target_without_loss() {
        let mut tiger = TigerConfig::small_test();
        tiger.disk = tiger.disk.without_blips();
        let cfg = RampConfig {
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(120), 4),
            step: 8,
            settle: SimDuration::from_secs(15),
            target: Some(24),
            ..RampConfig::fig8(tiger, SimDuration::from_secs(15))
        };
        let result = run_ramp(&cfg);
        assert_eq!(result.windows.len(), 3);
        let last = result.windows.last().expect("has windows");
        assert_eq!(last.streams, 24);
        assert_eq!(result.loss.server_missed, 0);
        assert_eq!(result.client_missing, 0);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        // Load grows monotonically with streams.
        assert!(result.windows[0].cub_cpu < result.windows[2].cub_cpu);
        assert!(result.windows[0].disk_load < result.windows[2].disk_load);
    }

    #[test]
    fn failed_ramp_doubles_control_traffic() {
        let mut tiger = TigerConfig::small_test();
        tiger.disk = tiger.disk.without_blips();
        let base = RampConfig {
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(100), 4),
            step: 8,
            settle: SimDuration::from_secs(15),
            target: Some(16),
            ..RampConfig::fig8(tiger, SimDuration::from_secs(15))
        };
        let unfailed = run_ramp(&base);
        let failed_cfg = RampConfig {
            failed_cub: Some(CubId(2)),
            disk_report_cub: Some(CubId(3)),
            report_cub: CubId(3),
            ..base
        };
        let failed = run_ramp(&failed_cfg);
        let u = unfailed
            .windows
            .last()
            .expect("windows")
            .control_bytes_per_sec;
        let f = failed
            .windows
            .last()
            .expect("windows")
            .control_bytes_per_sec;
        // The mirroring cub forwards a mirror viewer state for each primary
        // one: roughly double the control traffic (§5).
        assert!(f > u * 1.3, "failed {f:.0} B/s vs unfailed {u:.0} B/s");
        assert!(f < u * 4.0, "failed traffic implausibly high: {f:.0} B/s");
        // Mirroring-cub disks work harder than the unfailed mean.
        let fd = failed.windows.last().expect("windows").disk_load;
        let ud = unfailed.windows.last().expect("windows").disk_load;
        assert!(fd > ud, "mirroring disk load {fd} <= unfailed {ud}");
    }
}
