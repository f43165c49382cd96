//! System-wide measurement collection: the quantities Figures 8–10 and the
//! §5 text report.

use tiger_sim::{Histogram, SimTime};

/// One measurement window (the ≥50 s settle periods of the §5 ramp).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSample {
    /// Window end time.
    pub at: SimTime,
    /// Streams being served when the window closed.
    pub streams: u32,
    /// Mean cub CPU load over the window (mean across cubs).
    pub cub_cpu: f64,
    /// Controller CPU load.
    pub controller_cpu: f64,
    /// Mean disk load (the §5 definition: fraction of time waiting for an
    /// I/O completion), averaged over the reported disk set.
    pub disk_load: f64,
    /// Control traffic from the reported cub to all others, bytes/s.
    pub control_bytes_per_sec: f64,
    /// Mean NIC data utilization across cubs.
    pub nic_utilization: f64,
}

/// Block-delivery loss accounting (§5's most important measurement).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LossReport {
    /// Blocks the server scheduled for sending.
    pub blocks_scheduled: u64,
    /// Blocks the server failed to place on the network because the disk
    /// read had not completed in time.
    pub server_missed: u64,
    /// Of those, mirror-piece sends (failed-mode service).
    pub mirror_missed: u64,
    /// Blocks lost because their disk or cub was failed and mirror
    /// coverage could not supply them (e.g. during the detection window).
    pub failover_lost: u64,
    /// Blocks (or pieces) actually placed on the network.
    pub blocks_sent: u64,
}

impl LossReport {
    /// The overall loss rate as "1 in N", or `None` if lossless.
    pub fn one_in(&self) -> Option<u64> {
        let lost = self.server_missed + self.failover_lost;
        if lost == 0 {
            return None;
        }
        Some(self.blocks_scheduled / lost)
    }
}

/// Collected metrics for one run.
///
/// `PartialEq` is part of the determinism contract: two runs with the same
/// `(TigerConfig, workload, seed)` must produce *identical* metrics (see
/// `tests/determinism.rs`), floats included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Per-window samples (the ramp curves).
    pub windows: Vec<WindowSample>,
    /// Loss accounting.
    pub loss: LossReport,
    /// Start latencies in seconds, with the schedule load at request time.
    pub start_latencies: Vec<(f64, f64)>,
    /// Times at which cub failures were detected (per detecting cub).
    pub failure_detections: Vec<(SimTime, u32)>,
    /// Ownership-protocol violations observed by the omniscient checker
    /// (must be empty in every correct run).
    pub violations: Vec<String>,
}

impl Metrics {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a start latency sample.
    pub fn record_start(&mut self, schedule_load: f64, latency_secs: f64) {
        self.start_latencies.push((schedule_load, latency_secs));
    }

    /// Start latencies as a histogram (all loads).
    pub fn start_latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &(_, l) in &self.start_latencies {
            h.record(l);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_report_one_in() {
        let mut l = LossReport::default();
        assert_eq!(l.one_in(), None);
        l.blocks_scheduled = 4_100_000;
        l.server_missed = 15;
        l.failover_lost = 8;
        assert_eq!(l.one_in(), Some(178_260));
    }

    #[test]
    fn start_latencies_are_recorded() {
        let mut m = Metrics::new();
        m.record_start(0.5, 1.8);
        m.record_start(0.55, 2.2);
        m.record_start(0.95, 10.0);
        assert_eq!(m.start_latency_histogram().len(), 3);
    }
}
