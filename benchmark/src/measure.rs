//! The measured window, stepped a simulated second at a time with
//! tracing off, and everything read from the system at its two ends:
//! counter snapshots, the simulated-side metrics and the `sim_digest`.

use std::time::Instant;

use tiger_core::{LossReport, TigerSystem, WindowSample};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::CubId;
use tiger_sim::{SimDuration, SimTime};

use crate::host;
use crate::refclock::{RefClock, RefSpan};
use crate::workloads::{RunPlan, REPORT_CUB};

/// Starts issued later than this before the end of the run are not
/// counted as blocked if still waiting (`run_workgen`'s rule).
const BLOCKED_GRACE: SimDuration = SimDuration::from_secs(30);

/// Cumulative counters read from outside at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub blocks_received: u64,
    pub blocks_missing: u64,
    pub dup_blocks: u64,
    pub loss: LossReport,
    /// Control bytes sent so far, per cub machine.
    pub ctrl_bytes_per_cub: Vec<u64>,
    /// Control messages and bytes sent so far by every node.
    pub ctrl_msgs: u64,
    pub ctrl_bytes: u64,
    pub disk_reads: u64,
    pub disk_mirror_reads: u64,
    pub disk_blips: u64,
    pub disk_transient_errors: u64,
    pub nic_overcommits: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl Counters {
    pub fn read(sys: &TigerSystem) -> Counters {
        let sh = sys.shared();
        let clients = sys.all_clients_report();
        let mut c = Counters {
            blocks_received: clients.blocks_received,
            blocks_missing: clients.blocks_missing,
            dup_blocks: clients.dup_blocks,
            loss: sys.metrics().loss.clone(),
            ..Counters::default()
        };
        for node in 0..sh.net.num_nodes() {
            let node = tiger_net::NetNode(node);
            c.ctrl_msgs += sh.net.total_control_msgs(node);
            c.ctrl_bytes += sh.net.total_control_bytes(node);
            c.nic_overcommits += sh.net.nic(node).total_overcommits();
        }
        for cub in sys.cubs() {
            c.ctrl_bytes_per_cub
                .push(sh.net.total_control_bytes(sh.cub_node(cub.id)));
            for d in cub.disks() {
                c.disk_reads += d.total_reads();
                c.disk_mirror_reads += d.total_mirror_reads();
                c.disk_blips += d.total_blips();
                c.disk_transient_errors += d.total_transient_errors();
            }
            c.cache_hits += cub.cache_hits.total();
            c.cache_lookups += cub.cache_lookups.total();
        }
        c
    }
}

/// What the harness sampled once per simulated second of a window (both
/// the untraced and the traced pass take the same samples, so the
/// passes stay comparable).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sampled {
    pub queue_depth_sum: u64,
    pub queue_depth_max: u64,
    pub samples: u64,
    /// Peak over cubs and seconds of `schedule_information_held`.
    pub view_entries_peak: u64,
}

impl Sampled {
    pub fn sample(&mut self, sys: &TigerSystem) {
        let depth = sys.shared().queue.len() as u64;
        self.queue_depth_sum += depth;
        self.queue_depth_max = self.queue_depth_max.max(depth);
        self.samples += 1;
        let held = sys
            .cubs()
            .iter()
            .map(|c| c.schedule_information_held() as u64)
            .max()
            .unwrap_or(0);
        self.view_entries_peak = self.view_entries_peak.max(held);
    }

    pub fn queue_depth_mean(&self) -> f64 {
        self.queue_depth_sum as f64 / self.samples.max(1) as f64
    }
}

/// One pass over the measured window.
#[derive(Clone, Debug)]
pub struct WindowOutcome {
    /// The window's dispatch time on the reference clock.
    pub span: RefSpan,
    pub open: Counters,
    pub close: Counters,
    pub sampled: Sampled,
    /// `sample_window` over exactly the window.
    pub sample: WindowSample,
    /// On-CPU share of the pass (`schedstat` ÷ wall), if `/proc` has it.
    pub oncpu_frac: Option<f64>,
}

impl WindowOutcome {
    /// Viewer blocks delivered in the window.
    pub fn blocks(&self) -> u64 {
        self.close.blocks_received - self.open.blocks_received
    }
}

/// Opens the window on a warmed-up system: resets the windowed counters
/// and snapshots the cumulative ones.
pub fn open_window(sys: &mut TigerSystem, plan: &RunPlan) -> Counters {
    sys.sample_window(plan.warm, REPORT_CUB, None);
    Counters::read(sys)
}

/// Wall time and allocations of each 1-sim-s step of an untraced window.
#[derive(Clone, Debug, Default)]
pub struct StepLog {
    pub step_ms: Vec<f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Runs the window with `run_until`, one simulated second at a time.
pub fn run_window(
    sys: &mut TigerSystem,
    plan: &RunPlan,
    clock: &mut RefClock,
) -> (WindowOutcome, StepLog) {
    let open = open_window(sys, plan);
    let mut sampled = Sampled::default();
    let mut log = StepLog {
        step_ms: Vec::with_capacity(plan.window_s as usize),
        ..StepLog::default()
    };
    let cpu0 = host::oncpu_ns();
    let wall0 = Instant::now();
    for s in 1..=plan.window_s {
        let horizon = plan.warm + SimDuration::from_secs(s);
        let (a0, b0) = host::alloc_counts();
        let t = Instant::now();
        sys.run_until(horizon);
        let ns = t.elapsed().as_nanos() as u64;
        let (a1, b1) = host::alloc_counts();
        log.allocs += a1 - a0;
        log.alloc_bytes += b1 - b0;
        log.step_ms.push(ns as f64 / 1e6);
        sampled.sample(sys);
        clock.work(ns);
    }
    let oncpu_frac = oncpu_share(cpu0, wall0);
    let span = clock.take();
    let outcome = close_window(sys, plan, span, open, sampled, oncpu_frac);
    (outcome, log)
}

/// On-CPU share since `(cpu0, wall0)`.
pub fn oncpu_share(cpu0: Option<u64>, wall0: Instant) -> Option<f64> {
    let wall_ns = wall0.elapsed().as_nanos() as f64;
    Some((host::oncpu_ns()? - cpu0?) as f64 / wall_ns.max(1.0))
}

/// Closes the window at `plan.window_end()`.
pub fn close_window(
    sys: &mut TigerSystem,
    plan: &RunPlan,
    span: RefSpan,
    open: Counters,
    sampled: Sampled,
    oncpu_frac: Option<f64>,
) -> WindowOutcome {
    let sample = sys.sample_window(plan.window_end(), REPORT_CUB, None);
    WindowOutcome {
        span,
        open,
        close: Counters::read(sys),
        sampled,
        sample,
        oncpu_frac,
    }
}

/// The simulated-side figures of a finished run: exact and
/// bit-repeatable for a fixed seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    pub start_latency_n: usize,
    pub start_latency_p50_s: f64,
    pub start_latency_p75_s: f64,
    pub start_latency_p95_s: f64,
    /// Initial starts old enough to count, and how many of those never
    /// got a first block.
    pub starts_counted: u64,
    pub starts_blocked: u64,
    pub ctrl_bytes_per_cub_s: f64,
    /// Operations for the failure share.
    pub attempted: u64,
    pub failed: u64,
    pub dup_blocks: u64,
    pub violations: usize,
    pub digest: String,
}

impl SimOutcome {
    pub fn blocked_frac(&self) -> f64 {
        self.starts_blocked as f64 / self.starts_counted.max(1) as f64
    }
}

/// Reduces a finished run to its simulated-side figures.
pub fn sim_outcome(
    sys: &mut TigerSystem,
    plan: &RunPlan,
    starts: &[(SimTime, u32, ViewerInstance)],
    w: &WindowOutcome,
) -> SimOutcome {
    // The repository's own quantile (nearest rank, 0 when empty).
    let mut lat = sys.metrics().start_latency_histogram();

    let cutoff = plan.window_end().saturating_sub(BLOCKED_GRACE);
    let mut starts_counted = 0u64;
    let mut starts_blocked = 0u64;
    for &(at, client, inst) in starts {
        if at > cutoff {
            continue;
        }
        starts_counted += 1;
        // A viewer who paused, sought or left before the first block
        // arrived was not refused service.
        let blocked = sys.clients()[client as usize]
            .viewer(&inst)
            .is_none_or(|v| v.first_block_at.is_none() && !v.stopped);
        starts_blocked += u64::from(blocked);
    }

    let living: Vec<CubId> = sys
        .cubs()
        .iter()
        .filter(|c| !c.failed && c.id.raw() < plan.cfg.stripe.num_cubs)
        .map(|c| c.id)
        .collect();
    let ctrl_delta: u64 = living
        .iter()
        .map(|c| w.close.ctrl_bytes_per_cub[c.index()] - w.open.ctrl_bytes_per_cub[c.index()])
        .sum();
    let ctrl_bytes_per_cub_s =
        ctrl_delta as f64 / (living.len().max(1) as f64 * plan.window_s as f64);

    let blocks_due = w.blocks() + (w.close.blocks_missing - w.open.blocks_missing);
    let violations = sys.take_violations();

    let mut out = SimOutcome {
        start_latency_n: lat.len(),
        start_latency_p50_s: lat.quantile(0.50),
        start_latency_p75_s: lat.quantile(0.75),
        start_latency_p95_s: lat.quantile(0.95),
        starts_counted,
        starts_blocked,
        ctrl_bytes_per_cub_s,
        attempted: starts_counted + blocks_due,
        failed: starts_blocked + (w.close.blocks_missing - w.open.blocks_missing),
        dup_blocks: w.close.dup_blocks,
        violations: violations.len(),
        digest: String::new(),
    };
    out.digest = digest(&out, sys, w);
    out
}

/// FNV-1a over the simulated-side figures, the loss report, the clients'
/// received/missing/duplicate counts, every cub's control bytes and the
/// whole start-latency vector, in request order.
fn digest(o: &SimOutcome, sys: &TigerSystem, w: &WindowOutcome) -> String {
    let mut h = Fnv::default();
    for v in [
        o.start_latency_p50_s,
        o.start_latency_p75_s,
        o.start_latency_p95_s,
        o.ctrl_bytes_per_cub_s,
    ] {
        h.u64(v.to_bits());
    }
    for v in [
        o.start_latency_n as u64,
        o.starts_counted,
        o.starts_blocked,
        o.attempted,
        o.failed,
        w.open.blocks_received,
        w.close.blocks_received,
        w.close.blocks_missing,
        w.close.dup_blocks,
        w.close.loss.blocks_scheduled,
        w.close.loss.server_missed,
        w.close.loss.mirror_missed,
        w.close.loss.failover_lost,
        w.close.loss.blocks_sent,
        w.close.ctrl_msgs,
    ] {
        h.u64(v);
    }
    for &b in &w.close.ctrl_bytes_per_cub {
        h.u64(b);
    }
    for &(load, secs) in &sys.metrics().start_latencies {
        h.u64(load.to_bits());
        h.u64(secs.to_bits());
    }
    format!("{:016x}", h.0)
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
