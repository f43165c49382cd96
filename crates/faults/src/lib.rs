//! tiger-faults: deterministic fault injection for the Tiger simulator.
//!
//! A [`FaultPlan`] declares *what goes wrong and when* — lossy, slow, or
//! partitioned links; flaky, slow, or dead disks; crashed, frozen, or
//! power-cut cubs — in a small line-oriented text format read by
//! [`FaultPlan::parse`]. The system compiles a plan into
//! per-layer injectors ([`NetFaults`], [`DiskFaults`], [`ProcFaults`])
//! whose disabled form costs one pointer test per hook, exactly like the
//! `tiger-trace` gate, so the no-faults hot path stays free.
//!
//! Determinism: every fault decision draws from RNG streams forked under
//! the system seed's `"faults"` subtree, disjoint from every other stream
//! in the simulation. An empty plan compiles to nothing and perturbs
//! nothing; a fixed plan plus a seed reproduces the identical injection
//! sequence on every rerun, at any fleet thread count.
//!
//! The [`invariants`] module holds the plan-level checks the chaos runner
//! enforces — most importantly that every deadman declaration is
//! justified by a stall the plan actually caused.

pub mod inject;
pub mod invariants;
pub mod plan;

pub use inject::{DiskFaults, DiskVerdict, NetFaults, NetPerturb, ProcFaults};
pub use invariants::{
    check_deadman_justified, drop_silence_intervals, silence_probability, stall_intervals,
    Intervals, ObservedDeclare, ObservedStall,
};
pub use plan::{
    parse_duration, DiskFault, DiskFaultKind, FaultPlan, FaultWindow, LinkFault, NodeSel,
    Partition, ProcessFault, RestripeDecl, Topology,
};
