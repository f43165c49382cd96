//! The dynamic disk model: a FIFO-serviced drive with head position,
//! utilization accounting, failure state, and service-time blips.
//!
//! The simulation driver calls [`Disk::submit`] when a cub issues a read;
//! the model serializes requests internally and returns the absolute
//! completion time, at which the driver schedules a completion event. Two
//! load metrics are kept:
//!
//! * *head utilization* — the fraction of time the media is transferring or
//!   positioning (what a drive vendor would call duty cycle), and
//! * *disk load* — the paper's §5 definition, "the percentage of time during
//!   which the disk was waiting for an I/O completion", i.e. the fraction of
//!   time at least one request is outstanding (queueing included).

use tiger_faults::{DiskFaults, DiskVerdict};
use tiger_sim::rng::sample_bounded_pareto;
use tiger_sim::{BusyTracker, ByteSize, Counter, SimDuration, SimRng, SimTime};

use crate::profile::DiskProfile;

/// Why a read was issued; affects nothing in the model but is kept for
/// per-class accounting (primary vs failed-mode mirror traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A primary block read.
    Primary,
    /// A declustered mirror-piece read issued while covering a failed peer.
    Mirror,
}

/// One read request.
#[derive(Clone, Copy, Debug)]
pub struct DiskRequest {
    /// Byte offset of the extent on the disk.
    pub offset: u64,
    /// Length of the extent.
    pub len: ByteSize,
    /// Accounting class.
    pub kind: RequestKind,
}

/// Errors from submitting disk requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The disk has failed; it accepts no requests.
    Failed,
    /// The request extends past the end of the disk.
    OutOfRange,
    /// Fault injection failed this read; the disk stays alive and later
    /// requests may succeed.
    Transient,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Failed => write!(f, "disk has failed"),
            DiskError::OutOfRange => write!(f, "request extends past end of disk"),
            DiskError::Transient => write!(f, "transient read error (injected)"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A simulated disk drive.
#[derive(Debug)]
pub struct Disk {
    profile: DiskProfile,
    rng: SimRng,
    failed: bool,
    /// Completion time of the most recently accepted request (the queue is
    /// FIFO, so this is when the head becomes free).
    head_free_at: SimTime,
    /// Head position after the queue drains, as a byte offset.
    head_offset: u64,
    outstanding: u32,
    /// The paper's "disk load": time with >= 1 outstanding request.
    load: BusyTracker,
    reads: Counter,
    bytes: Counter,
    mirror_reads: Counter,
    blips: Counter,
    /// Fault injector; disabled (one pointer test per submit) by default.
    faults: DiskFaults,
    transient_errors: Counter,
}

impl Disk {
    /// Creates an idle disk with the given profile and RNG stream.
    pub fn new(profile: DiskProfile, rng: SimRng) -> Self {
        Disk {
            profile,
            rng,
            failed: false,
            head_free_at: SimTime::ZERO,
            head_offset: 0,
            outstanding: 0,
            load: BusyTracker::new(),
            reads: Counter::new(),
            bytes: Counter::new(),
            mirror_reads: Counter::new(),
            blips: Counter::new(),
            faults: DiskFaults::disabled(),
            transient_errors: Counter::new(),
        }
    }

    /// Installs a compiled fault injector (replacing the disabled
    /// default). The injector draws from its own RNG stream, so the
    /// disk's service-time sequence is untouched by fault decisions.
    pub fn set_faults(&mut self, faults: DiskFaults) {
        self.faults = faults;
    }

    /// The drive's static profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Marks the disk failed. Outstanding requests are considered lost; the
    /// caller is responsible for not delivering their completions.
    pub fn fail(&mut self, now: SimTime) {
        if !self.failed {
            self.failed = true;
            // Close the load interval if one is open.
            if self.outstanding > 0 {
                self.load.end(now);
                self.outstanding = 0;
            }
        }
    }

    /// Whether the disk has failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Revives a failed disk (the machine rejoined with its media intact).
    /// The platters kept their bytes; only the serving state restarts.
    /// `fail` already zeroed `outstanding`, and `submit` clamps the head
    /// start time with `max(now)`, so the stale `head_free_at` is harmless.
    pub fn revive(&mut self, _now: SimTime) {
        self.failed = false;
    }

    /// Submits a read at `now`; returns the absolute completion time.
    ///
    /// The model is FIFO: service begins when the head frees up. Service
    /// time is seek (from the previous request's end position) + rotational
    /// latency + command overhead + zoned transfer, times a rare heavy-tail
    /// blip multiplier.
    pub fn submit(&mut self, now: SimTime, req: DiskRequest) -> Result<SimTime, DiskError> {
        if self.failed {
            return Err(DiskError::Failed);
        }
        let cap = self.profile.capacity.as_bytes();
        if req.offset + req.len.as_bytes() > cap {
            return Err(DiskError::OutOfRange);
        }
        // Fault injection sees the request before it occupies the head: a
        // transient error is an immediate host-side failure, not a
        // media-time consumer; a degraded window stretches service.
        let mut degrade = 1.0;
        if self.faults.active() {
            match self.faults.verdict(now) {
                DiskVerdict::Transient => {
                    self.transient_errors.incr();
                    return Err(DiskError::Transient);
                }
                DiskVerdict::Degraded(factor) => degrade = factor,
                DiskVerdict::Clean => {}
            }
        }

        if self.outstanding == 0 {
            self.load.begin(now);
        }
        self.outstanding += 1;

        let start = self.head_free_at.max(now);
        let seek_frac =
            (req.offset as i64 - self.head_offset as i64).unsigned_abs() as f64 / cap as f64;
        let offset_frac = req.offset as f64 / cap as f64;
        let mut service = self.profile.read_time(seek_frac, offset_frac, req.len);
        if self.profile.blip_probability > 0.0 && self.rng.gen_f64() < self.profile.blip_probability
        {
            let mult = sample_bounded_pareto(
                &mut self.rng,
                self.profile.blip_alpha,
                self.profile.blip_cap,
            );
            service = SimDuration::from_nanos((service.as_nanos() as f64 * mult) as u64);
            self.blips.incr();
        }
        if degrade > 1.0 {
            service = SimDuration::from_nanos((service.as_nanos() as f64 * degrade) as u64);
        }

        let done = start + service;
        self.head_free_at = done;
        self.head_offset = req.offset + req.len.as_bytes();
        self.reads.incr();
        self.bytes.add(req.len.as_bytes());
        if req.kind == RequestKind::Mirror {
            self.mirror_reads.incr();
        }
        Ok(done)
    }

    /// Notifies the model that a completion event fired at `now`. Must be
    /// called exactly once per successful [`Disk::submit`], in completion
    /// order.
    pub fn complete(&mut self, now: SimTime) {
        if self.failed {
            return; // Losses after failure are accounted elsewhere.
        }
        debug_assert!(
            self.outstanding > 0,
            "completion without outstanding request"
        );
        self.outstanding -= 1;
        if self.outstanding == 0 {
            self.load.end(now);
        }
    }

    /// Outstanding (queued or in-service) request count.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// The paper's disk load over the current measurement window.
    pub fn load_window(&self, now: SimTime) -> f64 {
        self.load.window_utilization(now)
    }

    /// Starts a fresh measurement window (the 50 s settle periods of §5).
    pub fn reset_window(&mut self, now: SimTime) {
        self.load.reset_window(now);
        self.reads.reset_window(now);
        self.bytes.reset_window(now);
    }

    /// Bytes read per second over the current window.
    pub fn window_bytes_per_sec(&self, now: SimTime) -> f64 {
        self.bytes.window_rate(now)
    }

    /// Reads per second over the current window.
    pub fn window_reads_per_sec(&self, now: SimTime) -> f64 {
        self.reads.window_rate(now)
    }

    /// Lifetime read count.
    pub fn total_reads(&self) -> u64 {
        self.reads.total()
    }

    /// Lifetime mirror-read count.
    pub fn total_mirror_reads(&self) -> u64 {
        self.mirror_reads.total()
    }

    /// Lifetime bytes read.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.total()
    }

    /// Lifetime count of blipped (heavy-tail slowed) requests.
    pub fn total_blips(&self) -> u64 {
        self.blips.total()
    }

    /// Lifetime count of injected transient read errors.
    pub fn total_transient_errors(&self) -> u64 {
        self.transient_errors.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::RngTree;

    fn disk() -> Disk {
        Disk::new(
            DiskProfile::sosp97().without_blips(),
            RngTree::new(1).fork("disk", 0),
        )
    }

    fn req(offset: u64, len: u64) -> DiskRequest {
        DiskRequest {
            offset,
            len: ByteSize::from_bytes(len),
            kind: RequestKind::Primary,
        }
    }

    #[test]
    fn fifo_serialization() {
        let mut d = disk();
        let t0 = SimTime::ZERO;
        // The first request seeks in from offset 0; the second is
        // sequential after it.
        let c1 = d.submit(t0, req(1_000_000_000, 250_000)).expect("accepts");
        let c2 = d.submit(t0, req(1_000_250_000, 250_000)).expect("accepts");
        assert!(c2 > c1, "second request completes after first");
        // Back-to-back sequential read: no seek, so the delta is rotation +
        // overhead + transfer only, which is strictly less than c1's total.
        assert!(c2 - c1 < c1 - t0);
    }

    #[test]
    fn outer_reads_are_faster_than_inner() {
        let mut fast = disk();
        let mut slow = disk();
        let cap = fast.profile().capacity.as_bytes();
        let t_outer = fast
            .submit(SimTime::ZERO, req(0, 250_000))
            .expect("accepts");
        // Position the slow disk's head at the inner edge first so the seek
        // distance matches (zero from head position).
        slow.head_offset = cap - 300_000;
        let t_inner = slow
            .submit(SimTime::ZERO, req(cap - 250_000, 250_000))
            .expect("accepts");
        assert!(t_inner > t_outer);
    }

    #[test]
    fn load_includes_queueing() {
        let mut d = disk();
        let t0 = SimTime::ZERO;
        let c1 = d.submit(t0, req(0, 250_000)).expect("accepts");
        let c2 = d.submit(t0, req(1_000_000_000, 250_000)).expect("accepts");
        d.complete(c1);
        d.complete(c2);
        // Disk load (paper definition) covered the whole [t0, c2] span.
        assert!((d.load_window(c2) - 1.0).abs() < 1e-9);
        // After completions, an idle gap lowers the load.
        let later = c2 + SimDuration::from_secs(1);
        assert!(d.load_window(later) < 1.0);
    }

    #[test]
    fn failed_disk_rejects() {
        let mut d = disk();
        d.fail(SimTime::ZERO);
        assert_eq!(d.submit(SimTime::ZERO, req(0, 64)), Err(DiskError::Failed));
        assert!(d.is_failed());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = disk();
        let cap = d.profile().capacity.as_bytes();
        assert_eq!(
            d.submit(SimTime::ZERO, req(cap - 63, 64)),
            Err(DiskError::OutOfRange)
        );
    }

    #[test]
    fn counters_track_reads() {
        let mut d = disk();
        let c1 = d.submit(SimTime::ZERO, req(0, 100_000)).expect("accepts");
        d.complete(c1);
        let c2 = d
            .submit(
                c1,
                DiskRequest {
                    offset: 2_000_000_000,
                    len: ByteSize::from_bytes(62_500),
                    kind: RequestKind::Mirror,
                },
            )
            .expect("accepts");
        d.complete(c2);
        assert_eq!(d.total_reads(), 2);
        assert_eq!(d.total_mirror_reads(), 1);
        assert_eq!(d.total_bytes(), 162_500);
    }

    #[test]
    fn blips_occur_at_configured_rate() {
        let mut profile = DiskProfile::sosp97();
        profile.blip_probability = 0.2;
        let mut d = Disk::new(profile, RngTree::new(7).fork("disk", 0));
        let mut now = SimTime::ZERO;
        for i in 0..1000 {
            let c = d
                .submit(now, req((i % 1000) * 250_000, 250_000))
                .expect("accepts");
            d.complete(c);
            now = c;
        }
        let frac = d.total_blips() as f64 / 1000.0;
        assert!((0.1..0.3).contains(&frac), "blip fraction {frac}");
    }

    #[test]
    fn injected_transient_errors_fail_reads_without_occupying_the_head() {
        use tiger_faults::FaultPlan;
        let plan = FaultPlan::parse("disk-transient c0:0 prob=1 from=1s until=2s").unwrap();
        let mut d = disk();
        d.set_faults(DiskFaults::compile(
            &plan,
            0,
            0,
            RngTree::new(1).subtree("faults", 0).fork("disk", 0),
        ));
        // Before the window: clean.
        let c = d.submit(SimTime::ZERO, req(0, 250_000)).expect("clean");
        d.complete(c);
        // Inside: every read fails, the disk stays alive, nothing queues.
        assert_eq!(
            d.submit(SimTime::from_secs(1), req(0, 250_000)),
            Err(DiskError::Transient)
        );
        assert!(!d.is_failed());
        assert_eq!(d.outstanding(), 0);
        // After: clean again, and only the error counter remembers.
        d.submit(SimTime::from_secs(2), req(0, 250_000))
            .expect("recovered");
        assert_eq!(d.total_transient_errors(), 1);
        assert_eq!(d.total_reads(), 2);
    }

    #[test]
    fn degraded_window_stretches_service_by_its_factor() {
        use tiger_faults::FaultPlan;
        let factor = 3.0;
        let plan = FaultPlan::parse("disk-degraded c0:0 factor=3 from=10s until=20s").unwrap();
        let service_of = |at: SimTime, faulted: bool| {
            let mut d = disk();
            if faulted {
                d.set_faults(DiskFaults::compile(
                    &plan,
                    0,
                    0,
                    RngTree::new(1).subtree("faults", 0).fork("disk", 0),
                ));
            }
            d.submit(at, req(1_000_000_000, 250_000)).expect("accepts") - at
        };
        let t = SimTime::from_secs(15);
        let clean = service_of(t, false);
        let slowed = service_of(t, true);
        let ratio = slowed.as_nanos() as f64 / clean.as_nanos() as f64;
        assert!(
            (ratio - factor).abs() < 1e-6,
            "service stretched by {ratio}, want {factor}"
        );
        // Outside the window the faulted disk matches the clean one.
        assert_eq!(service_of(SimTime::from_secs(5), true), clean);
    }

    #[test]
    fn sustained_throughput_matches_capacity_math() {
        // Feed the disk the §5 failed-mode mix (one primary + one mirror
        // piece per slot) with randomly placed extents and verify the
        // achieved service rate supports ~10.75 slots/s.
        let mut d = disk();
        let mut rng = RngTree::new(3).fork("places", 0);
        let cap = d.profile().capacity.as_bytes();
        let half = cap / 2;
        let mut now = SimTime::ZERO;
        let slots = 500u64;
        for _ in 0..slots {
            let p_off = rng.gen_range(0..half - 250_000);
            let s_off = rng.gen_range(half..cap - 62_500);
            let c1 = d.submit(now, req(p_off, 250_000)).expect("accepts");
            let c2 = d
                .submit(
                    now,
                    DiskRequest {
                        offset: s_off,
                        len: ByteSize::from_bytes(62_500),
                        kind: RequestKind::Mirror,
                    },
                )
                .expect("accepts");
            d.complete(c1);
            d.complete(c2);
            now = c2;
        }
        let achieved = slots as f64 / now.as_secs_f64();
        // Average-case throughput must meet (and will exceed) the
        // worst-case design point of ~10.75 slots/s.
        assert!(achieved > 10.75, "achieved {achieved} slots/s");
        assert!(achieved < 16.0, "model unrealistically fast: {achieved}");
    }
}
