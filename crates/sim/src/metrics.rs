//! Measurement primitives for the quantities the paper reports.
//!
//! §5 measures disk duty cycle ("percentage of time during which the disk
//! was waiting for an I/O completion"), mean CPU load over 50-second
//! windows, control traffic in bytes per second, and startup latency
//! distributions. These types compute exactly those quantities from event
//! timestamps, with no sampling noise.

use crate::time::{SimDuration, SimTime};

/// Tracks the fraction of time a resource is busy.
///
/// Supports overlapping busy intervals (e.g. a NIC carrying several stream
/// sends at once) by reference counting: the resource is "busy" while at
/// least one interval is open.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    depth: u32,
    busy_since: Option<SimTime>,
    window_start: SimTime,
    window_accumulated: SimDuration,
}

impl BusyTracker {
    /// Creates an idle tracker with its window origin at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of a busy interval at `now`.
    pub fn begin(&mut self, now: SimTime) {
        if self.depth == 0 {
            self.busy_since = Some(now);
        }
        self.depth += 1;
    }

    /// Marks the end of a busy interval at `now`.
    ///
    /// # Panics
    ///
    /// Panics if no interval is open.
    pub fn end(&mut self, now: SimTime) {
        assert!(self.depth > 0, "BusyTracker::end without matching begin");
        self.depth -= 1;
        if self.depth == 0 {
            let since = self.busy_since.take().expect("busy_since set while busy");
            self.window_accumulated += now.saturating_since(since);
        }
    }

    /// Busy fraction over the current measurement window ending at `now`,
    /// in `[0, 1]`. Returns 0 for an empty window.
    pub fn window_utilization(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.window_start);
        if window.is_zero() {
            return 0.0;
        }
        let open = match self.busy_since {
            Some(since) if self.depth > 0 => now.saturating_since(since.max(self.window_start)),
            _ => SimDuration::ZERO,
        };
        let busy = self.window_accumulated + open;
        (busy.as_nanos() as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Starts a fresh measurement window at `now` (e.g. after each 50-second
    /// settle period in the ramp experiments).
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_accumulated = SimDuration::ZERO;
        // An interval that straddles the boundary only counts its part
        // inside the new window.
        if self.depth > 0 {
            self.busy_since = Some(now);
        }
    }
}

/// A monotonically increasing event/byte counter with windowed rates.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    total: u64,
    window_start: SimTime,
    window_total: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.total += n;
        self.window_total += n;
    }

    /// Increments the counter by one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// The lifetime total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The rate (count per second) over the current window ending at `now`.
    pub fn window_rate(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.window_start);
        if window.is_zero() {
            return 0.0;
        }
        self.window_total as f64 / window.as_secs_f64()
    }

    /// Starts a fresh measurement window at `now`.
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_total = 0;
    }
}

/// The time-weighted mean of a piecewise-constant quantity (e.g. a modelled
/// CPU load that changes when streams are added).
#[derive(Debug, Clone)]
pub struct TimeWeightedMean {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    window_start: SimTime,
}

impl TimeWeightedMean {
    /// Creates a tracker with initial value `value` at the epoch.
    pub fn new(value: f64) -> Self {
        TimeWeightedMean {
            value,
            last_change: SimTime::ZERO,
            weighted_sum: 0.0,
            window_start: SimTime::ZERO,
        }
    }

    /// Records that the quantity changed to `value` at `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.accumulate(now);
        self.value = value;
    }

    fn accumulate(&mut self, now: SimTime) {
        let span = now.saturating_since(self.last_change);
        self.weighted_sum += self.value * span.as_secs_f64();
        self.last_change = now;
    }

    /// The time-weighted mean over the current window ending at `now`.
    pub fn window_mean(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        let window = now.saturating_since(self.window_start);
        if window.is_zero() {
            return self.value;
        }
        self.weighted_sum / window.as_secs_f64()
    }

    /// Starts a fresh window at `now`.
    pub fn reset_window(&mut self, now: SimTime) {
        self.accumulate(now);
        self.weighted_sum = 0.0;
        self.window_start = now;
        self.last_change = now;
    }
}

/// A latency/size histogram that retains raw samples.
///
/// The paper's Figure 10 is a scatter of 4050 individual start latencies
/// plus their per-load mean; retaining samples lets the bench reproduce the
/// scatter exactly.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "histogram sample must be finite");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The smallest sample, or 0 for an empty histogram.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite()
    }

    /// The largest sample, or 0 for an empty histogram.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank, or 0 if empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let idx = ((self.samples.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.samples[idx]
    }

    /// The count of samples strictly greater than `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.samples.iter().filter(|&&v| v > threshold).count()
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_simple_interval() {
        let mut b = BusyTracker::new();
        b.begin(SimTime::from_secs(1));
        b.end(SimTime::from_secs(3));
        assert!((b.window_utilization(SimTime::from_secs(4)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_overlapping_intervals_count_once() {
        let mut b = BusyTracker::new();
        b.begin(SimTime::from_secs(0));
        b.begin(SimTime::from_secs(1));
        b.end(SimTime::from_secs(2));
        b.end(SimTime::from_secs(4));
        assert!((b.window_utilization(SimTime::from_secs(8)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_window_reset_straddles_open_interval() {
        let mut b = BusyTracker::new();
        b.begin(SimTime::from_secs(0));
        b.reset_window(SimTime::from_secs(10));
        b.end(SimTime::from_secs(15));
        // Window [10, 20): busy 10..15 = 50%.
        assert!((b.window_utilization(SimTime::from_secs(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_tracker_open_interval_counts_to_now() {
        let mut b = BusyTracker::new();
        b.begin(SimTime::from_secs(2));
        assert!((b.window_utilization(SimTime::from_secs(5)) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn counter_window_rate() {
        let mut c = Counter::new();
        c.add(100);
        c.reset_window(SimTime::from_secs(10));
        c.add(50);
        assert_eq!(c.total(), 150);
        assert!((c.window_rate(SimTime::from_secs(15)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_integrates() {
        let mut m = TimeWeightedMean::new(0.0);
        m.set(SimTime::from_secs(5), 1.0);
        // Window [0, 10): value 0 for 5 s, 1 for 5 s => mean 0.5.
        assert!((m.window_mean(SimTime::from_secs(10)) - 0.5).abs() < 1e-9);
        m.reset_window(SimTime::from_secs(10));
        assert!((m.window_mean(SimTime::from_secs(20)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-9);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.count_above(3.5), 2);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
        assert!(h.is_empty());
    }
}
