//! Compiled, seeded injectors — the runtime half of a [`FaultPlan`].
//!
//! Each injector follows the `tiger-trace` gating idiom: the struct is a
//! single `Option<Box<..>>`, so the disabled hot path is one null-pointer
//! test and the no-faults build of the system pays ~1 ns per hook (see
//! the `fault_check_off` micro-bench). Every injector owns its own
//! [`SimRng`] stream, forked under the `"faults"` subtree — fault
//! decisions never draw from the network's or a disk's own stream, so an
//! empty plan leaves every other RNG sequence untouched and injections
//! are bit-identical across reruns and fleet thread counts.

use tiger_sim::{SimDuration, SimRng, SimTime};

use crate::plan::{
    DiskFaultKind, FaultPlan, LinkFault, NodeSel, Partition, ProcessFault, Topology,
};

// --- Network -----------------------------------------------------------------

/// What the network should do to one message, as decided by
/// [`NetFaults::verdict`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetPerturb {
    /// Drop the message (`partition` tells a scheduled cut from a random
    /// per-link loss).
    Drop {
        /// True when a partition clause, not a probabilistic drop, ate it.
        partition: bool,
    },
    /// Deliver, but late and/or twice.
    Tweak {
        /// Extra one-way delay to add on top of the sampled latency.
        extra: SimDuration,
        /// Deliver a second copy (control messages only).
        duplicate: bool,
    },
}

#[derive(Debug)]
struct NetInner {
    rng: SimRng,
    topo: Topology,
    links: Vec<LinkFault>,
    partitions: Vec<Partition>,
}

impl NetInner {
    fn partitioned(&self, now: SimTime, src: u32, dst: u32) -> bool {
        let matches =
            |group: &[NodeSel], node: u32| group.iter().any(|&sel| self.topo.matches(sel, node));
        self.partitions.iter().any(|p| {
            now >= p.from
                && now < p.heal
                && ((matches(&p.a, src) && matches(&p.b, dst))
                    || (matches(&p.b, src) && matches(&p.a, dst)))
        })
    }
}

/// Per-network fault injector: link drop/delay/jitter/duplication windows
/// and bidirectional partitions.
#[derive(Debug, Default)]
pub struct NetFaults {
    inner: Option<Box<NetInner>>,
}

impl NetFaults {
    /// The no-faults injector: every verdict is `None` at the cost of one
    /// pointer test.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Compiles the network clauses of `plan` against `topo`, drawing
    /// fault decisions from `rng`. A plan with no network clauses
    /// compiles to the disabled injector.
    pub fn compile(plan: &FaultPlan, topo: Topology, rng: SimRng) -> Self {
        if plan.links.is_empty() && plan.partitions.is_empty() {
            return Self::disabled();
        }
        Self {
            inner: Some(Box::new(NetInner {
                rng,
                topo,
                links: plan.links.clone(),
                partitions: plan.partitions.clone(),
            })),
        }
    }

    /// Whether any clause is compiled in.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Decides the fate of one message on the `src -> dst` link at `now`.
    /// `None` means deliver untouched. Partitions win outright and
    /// consume no randomness; link clauses are then consulted in plan
    /// order — a drop hit stops the scan, otherwise extra delays (plus
    /// uniform jitter) accumulate and any clause may flag duplication.
    pub fn verdict(&mut self, now: SimTime, src: u32, dst: u32) -> Option<NetPerturb> {
        let inner = self.inner.as_mut()?;
        if inner.partitioned(now, src, dst) {
            return Some(NetPerturb::Drop { partition: true });
        }
        let NetInner {
            rng, topo, links, ..
        } = &mut **inner;
        let mut extra = SimDuration::ZERO;
        let mut duplicate = false;
        for l in links.iter() {
            if now < l.from || now >= l.until {
                continue;
            }
            if !(topo.matches(l.src, src) && topo.matches(l.dst, dst)) {
                continue;
            }
            if l.drop_prob > 0.0 && rng.gen_bool(l.drop_prob) {
                return Some(NetPerturb::Drop { partition: false });
            }
            extra += l.extra_delay;
            if !l.extra_jitter.is_zero() {
                extra += SimDuration::from_nanos(rng.gen_range(0..=l.extra_jitter.as_nanos()));
            }
            if l.dup_prob > 0.0 && rng.gen_bool(l.dup_prob) {
                duplicate = true;
            }
        }
        if extra.is_zero() && !duplicate {
            None
        } else {
            Some(NetPerturb::Tweak { extra, duplicate })
        }
    }
}

// --- Disk --------------------------------------------------------------------

/// What one disk read should suffer, as decided by [`DiskFaults::verdict`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiskVerdict {
    /// Serve normally.
    Clean,
    /// Fail this read transiently (the disk stays alive).
    Transient,
    /// Serve, but multiply the service time by the factor.
    Degraded(f64),
}

#[derive(Debug)]
struct TransientWindow {
    prob: f64,
    from: SimTime,
    until: SimTime,
}

#[derive(Debug)]
struct DegradedWindow {
    factor: f64,
    from: SimTime,
    until: SimTime,
}

#[derive(Debug)]
struct DiskInner {
    rng: SimRng,
    transients: Vec<TransientWindow>,
    degraded: Vec<DegradedWindow>,
}

/// Per-disk fault injector: transient read errors and degraded-throughput
/// windows. Disk *death* is not handled here — the system schedules it as
/// a dedicated event so the trace shows it at its exact instant.
#[derive(Debug, Default)]
pub struct DiskFaults {
    inner: Option<Box<DiskInner>>,
}

impl DiskFaults {
    /// The no-faults injector.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Compiles the windowed clauses of `plan` that target `cub`'s local
    /// disk `disk`. Death clauses are ignored here (see the type docs).
    /// No matching windows compiles to the disabled injector.
    pub fn compile(plan: &FaultPlan, cub: u32, disk: u32, rng: SimRng) -> Self {
        let mut transients = Vec::new();
        let mut degraded = Vec::new();
        for f in plan.disks.iter().filter(|f| f.cub == cub && f.disk == disk) {
            match f.kind {
                DiskFaultKind::Transient { prob, from, until } => {
                    transients.push(TransientWindow { prob, from, until });
                }
                DiskFaultKind::Degraded {
                    factor,
                    from,
                    until,
                } => {
                    degraded.push(DegradedWindow {
                        factor,
                        from,
                        until,
                    });
                }
                DiskFaultKind::Death { .. } => {}
            }
        }
        if transients.is_empty() && degraded.is_empty() {
            return Self::disabled();
        }
        Self {
            inner: Some(Box::new(DiskInner {
                rng,
                transients,
                degraded,
            })),
        }
    }

    /// Whether any window is compiled in.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Decides the fate of one read submitted at `now`. Transient windows
    /// are consulted in plan order (a hit ends the scan); otherwise the
    /// service-time factors of every open degraded window multiply.
    pub fn verdict(&mut self, now: SimTime) -> DiskVerdict {
        let Some(inner) = &mut self.inner else {
            return DiskVerdict::Clean;
        };
        for w in &inner.transients {
            if now >= w.from && now < w.until && inner.rng.gen_bool(w.prob) {
                return DiskVerdict::Transient;
            }
        }
        let factor: f64 = inner
            .degraded
            .iter()
            .filter(|w| now >= w.from && now < w.until)
            .map(|w| w.factor)
            .product();
        if factor > 1.0 {
            DiskVerdict::Degraded(factor)
        } else {
            DiskVerdict::Clean
        }
    }
}

// --- Process -----------------------------------------------------------------

#[derive(Debug)]
struct FreezeWindow {
    cub: u32,
    from: SimTime,
    until: SimTime,
}

#[derive(Debug)]
struct ProcInner {
    freezes: Vec<FreezeWindow>,
}

/// Process-level injector: freeze/resume stalls. Crashes and power-domain
/// cuts are instants, scheduled by the system as events; only the stall
/// windows need a per-dispatch check.
#[derive(Debug, Default)]
pub struct ProcFaults {
    inner: Option<Box<ProcInner>>,
}

impl ProcFaults {
    /// The no-faults injector.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Compiles the freeze clauses of `plan`. No freezes compiles to the
    /// disabled injector.
    pub fn compile(plan: &FaultPlan) -> Self {
        let freezes: Vec<FreezeWindow> = plan
            .process
            .iter()
            .filter_map(|p| match *p {
                ProcessFault::Freeze { cub, from, until } => {
                    Some(FreezeWindow { cub, from, until })
                }
                _ => None,
            })
            .collect();
        if freezes.is_empty() {
            return Self::disabled();
        }
        Self {
            inner: Some(Box::new(ProcInner { freezes })),
        }
    }

    /// Whether any freeze is compiled in — the one-pointer dispatch gate.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// If `cub` is frozen at `now`, the instant it resumes (the latest
    /// `until` among open windows, so overlapping freezes merge).
    pub fn frozen_until(&self, cub: u32, now: SimTime) -> Option<SimTime> {
        let inner = self.inner.as_ref()?;
        inner
            .freezes
            .iter()
            .filter(|w| w.cub == cub && now >= w.from && now < w.until)
            .map(|w| w.until)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::RngTree;

    fn topo() -> Topology {
        Topology { num_cubs: 4 }
    }

    fn rng(idx: u64) -> SimRng {
        RngTree::new(42).subtree("faults", 0).fork("net", idx)
    }

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).expect("plan parses")
    }

    #[test]
    fn disabled_injectors_do_nothing() {
        let mut net = NetFaults::disabled();
        assert!(!net.active());
        assert_eq!(net.verdict(SimTime::from_secs(1), 1, 2), None);
        let mut disk = DiskFaults::disabled();
        assert_eq!(disk.verdict(SimTime::from_secs(1)), DiskVerdict::Clean);
        let proc = ProcFaults::disabled();
        assert!(!proc.active());
        assert_eq!(proc.frozen_until(0, SimTime::from_secs(1)), None);
    }

    #[test]
    fn empty_plan_compiles_to_disabled() {
        let empty = FaultPlan::new();
        assert!(!NetFaults::compile(&empty, topo(), rng(0)).active());
        assert!(!DiskFaults::compile(&empty, 0, 0, rng(1)).active());
        assert!(!ProcFaults::compile(&empty).active());
        // A plan with only disk clauses still leaves net/proc disabled.
        let disk_only = plan("disk-kill c1:0 at=5s");
        assert!(!NetFaults::compile(&disk_only, topo(), rng(0)).active());
        assert!(!ProcFaults::compile(&disk_only).active());
        // ... and the kill clause alone compiles no *windowed* disk faults.
        assert!(!DiskFaults::compile(&disk_only, 1, 0, rng(1)).active());
    }

    #[test]
    fn certain_drop_applies_only_inside_its_window_and_link() {
        let plan = plan("drop c0>c2 prob=1 from=2s until=5s");
        let mut net = NetFaults::compile(&plan, topo(), rng(0));
        let (src, dst) = (topo().cub_node(0), topo().cub_node(2));
        assert_eq!(net.verdict(SimTime::from_secs(1), src, dst), None);
        assert_eq!(
            net.verdict(SimTime::from_secs(2), src, dst),
            Some(NetPerturb::Drop { partition: false })
        );
        // Window end is exclusive; the reverse direction is untouched.
        assert_eq!(net.verdict(SimTime::from_secs(5), src, dst), None);
        assert_eq!(net.verdict(SimTime::from_secs(3), dst, src), None);
    }

    #[test]
    fn partition_cuts_both_directions_until_heal() {
        let plan = plan("partition ctrl,c0|c2,c3 from=4s heal=6s");
        let mut net = NetFaults::compile(&plan, topo(), rng(0));
        let t = SimTime::from_secs(5);
        let cut = Some(NetPerturb::Drop { partition: true });
        assert_eq!(net.verdict(t, 0, topo().cub_node(2)), cut);
        assert_eq!(net.verdict(t, topo().cub_node(3), topo().cub_node(0)), cut);
        // Within a side the link is clean; after heal everything is.
        assert_eq!(net.verdict(t, topo().cub_node(2), topo().cub_node(3)), None);
        assert_eq!(
            net.verdict(SimTime::from_secs(6), 0, topo().cub_node(2)),
            None
        );
    }

    #[test]
    fn delay_jitter_stays_within_its_bound() {
        let extra = SimDuration::from_millis(20);
        let jitter = SimDuration::from_millis(10);
        let plan = plan("delay c1>* extra=20ms jitter=10ms from=0s until=10s");
        let mut net = NetFaults::compile(&plan, topo(), rng(0));
        for i in 0..200u64 {
            let t = SimTime::from_millis(i * 10);
            match net.verdict(t, topo().cub_node(1), 0) {
                Some(NetPerturb::Tweak {
                    extra: e,
                    duplicate,
                }) => {
                    assert!(!duplicate);
                    assert!(
                        e >= extra && e <= extra + jitter,
                        "jitter out of bounds: {e}"
                    );
                }
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplication_flags_but_never_drops() {
        let plan = plan("dup ctrl>c2 prob=1 from=0s until=10s");
        let mut net = NetFaults::compile(&plan, topo(), rng(0));
        assert_eq!(
            net.verdict(SimTime::from_secs(1), 0, topo().cub_node(2)),
            Some(NetPerturb::Tweak {
                extra: SimDuration::ZERO,
                duplicate: true
            })
        );
    }

    #[test]
    fn verdict_sequence_is_deterministic() {
        let plan = plan(
            "drop *>* prob=0.3 from=0s until=10s\n\
             delay *>* extra=1ms jitter=9ms from=0s until=10s\n",
        );
        let run = || {
            let mut net = NetFaults::compile(&plan, topo(), rng(7));
            (0..500u64)
                .map(|i| net.verdict(SimTime::from_millis(i * 10), 1, 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transient_window_hits_and_degraded_factors_multiply() {
        let plan = plan(
            "disk-transient c2:0 prob=1 from=3s until=6s\n\
             disk-degraded c2:0 factor=3 from=7s until=9s\n\
             disk-degraded c2:0 factor=2 from=8s until=9s\n",
        );
        // Another disk on the same cub is untouched.
        assert!(!DiskFaults::compile(&plan, 2, 1, rng(1)).active());
        let mut disk = DiskFaults::compile(&plan, 2, 0, rng(1));
        assert_eq!(disk.verdict(SimTime::from_secs(2)), DiskVerdict::Clean);
        assert_eq!(disk.verdict(SimTime::from_secs(3)), DiskVerdict::Transient);
        assert_eq!(disk.verdict(SimTime::from_secs(6)), DiskVerdict::Clean);
        assert_eq!(
            disk.verdict(SimTime::from_secs(7)),
            DiskVerdict::Degraded(3.0)
        );
        assert_eq!(
            disk.verdict(SimTime::from_secs(8)),
            DiskVerdict::Degraded(6.0)
        );
        assert_eq!(disk.verdict(SimTime::from_secs(9)), DiskVerdict::Clean);
    }

    #[test]
    fn freeze_windows_merge_and_respect_boundaries() {
        let plan = plan("freeze c0 from=2s until=4s\nfreeze c0 from=3s until=5s\n");
        let proc = ProcFaults::compile(&plan);
        assert!(proc.active());
        assert_eq!(proc.frozen_until(0, SimTime::from_millis(1_999)), None);
        assert_eq!(
            proc.frozen_until(0, SimTime::from_secs(2)),
            Some(SimTime::from_secs(4))
        );
        // Inside the overlap the later resume wins.
        assert_eq!(
            proc.frozen_until(0, SimTime::from_millis(3_500)),
            Some(SimTime::from_secs(5))
        );
        // The resume instant itself is not frozen; other cubs never are.
        assert_eq!(proc.frozen_until(0, SimTime::from_secs(5)), None);
        assert_eq!(proc.frozen_until(1, SimTime::from_secs(3)), None);
    }
}
