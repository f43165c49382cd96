//! The Tiger schedule (paper §3 and §4): the "coherent hallucination".
//!
//! In the abstract, a Tiger system has a single global schedule with one
//! slot per stream of system capacity; disks move through it in lockstep,
//! one block play time apart. In practice no machine holds that schedule —
//! each cub keeps a bounded *view* of the part near its disks and forwards
//! viewer-state records around the ring. This crate implements both halves
//! of the abstraction as pure data structures:
//!
//! * [`params::ScheduleParams`] — block service time derivation, the
//!   integral-slot rounding rule, exact slot/pointer/ownership arithmetic
//!   (§3.1, §4.1.3);
//! * [`records`] — viewer states, mirror viewer states, and deschedule
//!   requests, with their idempotence and matching semantics (§4.1.1–2);
//! * [`disk_schedule::DiskSchedule`] — the materialized global schedule,
//!   kept by the omniscient checker that tests hold the distributed
//!   implementation against;
//! * [`view::ScheduleView`] — a bounded view with its merge rules (§4.1),
//!   and [`HeldDeschedules`], the holding half a cub's forward machine keeps;
//! * [`net_schedule::NetworkSchedule`] — the two-dimensional
//!   (time × bandwidth) schedule of the multiple-bitrate system, with
//!   reservations for two-phase insertion and fragmentation measurement
//!   (§3.2, §4.2).
//!
//! Everything here is deterministic, allocation-light, and heavily
//! property-tested; the distributed protocol that animates these structures
//! lives in `tiger-core`.

pub mod disk_schedule;
mod load_index;
pub mod net_schedule;
pub mod params;
pub mod records;
pub mod view;

pub use net_schedule::{AdmissibleStarts, NetEntryId, NetScheduleError, NetworkSchedule};
pub use params::{ScheduleParams, SlotId};
pub use records::{Deschedule, PrimaryRecord, StreamKind, ViewerState};
pub use view::{HeldDeschedules, ScheduleView, ViewApply};
