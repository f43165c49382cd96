//! The Figure 10 experiment: stream startup latency vs schedule load.
//!
//! "Figure 10 shows the distribution of stream start times versus the
//! schedule load. … Each start is represented by a gray dot … The heavy
//! black line represents the mean of the starts at that particular
//! schedule load."

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::CubId;
use tiger_sim::{RngTree, SimDuration, SimTime};

use crate::catalog::{populate_catalog, CatalogSpec};

/// Configuration of the startup-latency experiment.
#[derive(Clone, Debug)]
pub struct StartupConfig {
    /// System configuration.
    pub tiger: TigerConfig,
    /// Content catalog.
    pub catalog: CatalogSpec,
    /// Schedule loads (fractions of capacity) at which to probe.
    pub loads: Vec<f64>,
    /// Probe starts issued at each load level.
    pub probes_per_load: u32,
    /// Optional failed cub (the paper combines failed and unfailed runs).
    pub failed_cub: Option<CubId>,
}

impl StartupConfig {
    /// Default probe ladder: 50 % to full load.
    pub fn fig10(tiger: TigerConfig) -> Self {
        StartupConfig {
            tiger,
            catalog: CatalogSpec::sosp97(),
            loads: vec![0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 1.0],
            probes_per_load: 30,
            failed_cub: None,
        }
    }
}

/// Result of the startup experiment: `(schedule load, latency seconds)`
/// per start, like the paper's scatter.
#[derive(Clone, Debug)]
pub struct StartupResult {
    /// All start samples.
    pub samples: Vec<(f64, f64)>,
    /// The omniscient checker's and the NIC/schedule asserts' violations
    /// (empty = the run is clean).
    pub violations: Vec<String>,
}

impl StartupResult {
    /// The mean latency at loads within `[lo, hi)`.
    pub fn mean_in(&self, lo: f64, hi: f64) -> Option<f64> {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|(l, _)| *l >= lo && *l < hi)
            .map(|&(_, s)| s)
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// The smallest latency observed.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min)
    }

    /// The largest latency observed.
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|&(_, s)| s).fold(0.0, f64::max)
    }

    /// Samples exceeding `secs`.
    pub fn count_above(&self, secs: f64) -> usize {
        self.samples.iter().filter(|(_, s)| *s > secs).count()
    }
}

/// Runs the startup-latency experiment: fills the schedule stepwise and
/// issues probe starts at each load level, recording their latencies.
pub fn run_startup(cfg: &StartupConfig) -> StartupResult {
    let mut sys = TigerSystem::new(cfg.tiger.clone());
    sys.enable_omniscient();
    let files = populate_catalog(&mut sys, &cfg.catalog);
    let mut chooser = RngTree::new(cfg.tiger.seed).fork("startup-files", 0);

    if let Some(failed) = cfg.failed_cub {
        sys.fail_cub_at(SimTime::from_millis(10), failed);
        sys.run_until(SimTime::from_millis(10) + cfg.tiger.deadman_timeout.mul_u64(2));
    }

    let capacity = sys.shared().params.capacity();
    let mut filled = 0u32;
    for &load in &cfg.loads {
        let want = ((capacity as f64) * load).round() as u32;
        let want = want.min(capacity);
        // Fill up to the target load (these fills also record latencies).
        let mut now = sys.now();
        while filled < want {
            let client = sys.add_client();
            let file = files[chooser.gen_range(0..files.len())];
            now += SimDuration::from_millis(120);
            sys.request_start(now, client, file);
            filled += 1;
        }
        // Let fills land, then issue measured probes spread over time.
        sys.run_until(now + SimDuration::from_secs(10));
        let mut t = sys.now();
        for _ in 0..cfg.probes_per_load {
            // Start a probe, then stop it shortly after it begins playing
            // so the load level stays put.
            let client = sys.add_client();
            let file = files[chooser.gen_range(0..files.len())];
            t += SimDuration::from_millis(1_500);
            let instance = sys.request_start(t, client, file);
            sys.request_stop(t + SimDuration::from_secs(70), instance);
        }
        sys.run_until(t + SimDuration::from_secs(80));
    }

    StartupResult {
        samples: sys.metrics().start_latencies.clone(),
        violations: sys.take_violations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_toward_full_load() {
        let mut tiger = TigerConfig::small_test();
        tiger.disk = tiger.disk.without_blips();
        let cfg = StartupConfig {
            catalog: CatalogSpec::sized_for(SimDuration::from_secs(500), 4),
            loads: vec![0.3, 0.95],
            probes_per_load: 10,
            failed_cub: None,
            tiger,
        };
        let result = run_startup(&cfg);
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        let low = result.mean_in(0.0, 0.5).expect("low-load samples");
        let high = result.mean_in(0.85, 1.01).expect("high-load samples");
        assert!(
            high > low,
            "startup latency must grow with load: low {low:.2}s high {high:.2}s"
        );
        // Minimum ≈ transmission time (1 s) + lead; never below 1 s.
        assert!(result.min() >= 1.0, "min {:.2}", result.min());
    }
}
