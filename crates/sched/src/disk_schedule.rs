//! The materialized global disk schedule (§3.1).
//!
//! The distributed system never holds this object — that is the point of
//! the coherent hallucination. It exists in code for two purposes:
//!
//! 1. the **centralized baseline** of §3.3, where the controller tracks the
//!    entire schedule and streams per-block commands to the cubs; and
//! 2. the **omniscient checker** used by tests: an observer applies every
//!    committed operation to a real `DiskSchedule` and verifies that the
//!    cubs' independent actions are consistent with it (no double-booked
//!    slot, no send for an empty slot).

use tiger_layout::ids::ViewerInstance;
use tiger_sim::SimTime;

use crate::params::{ScheduleParams, SlotId};
use crate::records::{StreamKind, ViewerState};

/// An occupied slot in the global schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// The viewer state occupying the slot.
    pub state: ViewerState,
    /// When the entry was inserted (for diagnostics).
    pub inserted_at: SimTime,
}

/// Errors from schedule mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// Insert into an occupied slot — a resource conflict the system must
    /// never create ("Inserting a viewer into a slot that is already
    /// occupied would result in a loss of service").
    SlotOccupied(SlotId),
    /// The slot id is out of range.
    BadSlot(SlotId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::SlotOccupied(s) => write!(f, "{s} is already occupied"),
            ScheduleError::BadSlot(s) => write!(f, "{s} out of range"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The single, global, centralized schedule.
#[derive(Clone, Debug)]
pub struct DiskSchedule {
    params: ScheduleParams,
    slots: Vec<Option<SlotEntry>>,
}

impl DiskSchedule {
    /// Creates an empty schedule for `params`.
    pub fn new(params: ScheduleParams) -> Self {
        let n = params.capacity() as usize;
        DiskSchedule {
            params,
            slots: vec![None; n],
        }
    }

    /// The schedule parameters.
    pub fn params(&self) -> &ScheduleParams {
        &self.params
    }

    /// Inserts `state` into its slot.
    pub fn insert(&mut self, state: ViewerState, now: SimTime) -> Result<(), ScheduleError> {
        let slot = state.slot;
        let cell = self
            .slots
            .get_mut(slot.index())
            .ok_or(ScheduleError::BadSlot(slot))?;
        if cell.is_some() {
            return Err(ScheduleError::SlotOccupied(slot));
        }
        *cell = Some(SlotEntry {
            state,
            inserted_at: now,
        });
        Ok(())
    }

    /// Removes the entry for `instance` from `slot` if present, returning
    /// it. Deschedule semantics: a non-matching instance is left alone.
    pub fn remove(&mut self, slot: SlotId, instance: ViewerInstance) -> Option<SlotEntry> {
        let cell = self.slots.get_mut(slot.index())?;
        if cell.as_ref().is_some_and(|e| e.state.instance == instance) {
            cell.take()
        } else {
            None
        }
    }

    /// The entry in `slot`, if any.
    pub fn get(&self, slot: SlotId) -> Option<&SlotEntry> {
        self.slots.get(slot.index())?.as_ref()
    }

    /// Advances the entry in `slot` by one block (a disk serviced it).
    /// Returns the state *before* advancing (the block to send), if any.
    pub fn service(&mut self, slot: SlotId) -> Option<ViewerState> {
        let cell = self.slots.get_mut(slot.index())?;
        let entry = cell.as_mut()?;
        let current = entry.state;
        entry.state = entry.state.advanced(1);
        Some(current)
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_some()).count() as u32
    }

    /// Iterates over occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &SlotEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (SlotId(i as u32), e)))
    }
}

/// An omniscient observer used by tests: replays committed distributed
/// operations against a real global schedule and reports any action that
/// the hallucination would not permit.
///
/// Removal is committed at the controller, but a block already read (or in
/// flight on a NIC) legitimately goes out for a short while afterwards —
/// the protocol only guarantees deschedules win within one propagation
/// round. Sends within `grace` of the removal are therefore permitted.
#[derive(Clone, Debug)]
pub struct Omniscient {
    schedule: DiskSchedule,
    violations: Vec<String>,
    grace: crate::params::SlotGrace,
}

impl Omniscient {
    /// Creates a checker over an empty schedule, with the default grace of
    /// one block play time plus 500 ms for deschedule propagation. Systems
    /// whose end-of-file notices run ahead of the final send (they travel
    /// with the viewer-state lead) should widen it with
    /// [`Omniscient::with_grace`].
    pub fn new(params: ScheduleParams) -> Self {
        let grace_span = params.block_play_time() + tiger_sim::SimDuration::from_millis(500);
        Omniscient {
            schedule: DiskSchedule::new(params),
            violations: Vec::new(),
            grace: crate::params::SlotGrace::new(grace_span),
        }
    }

    /// Overrides the in-flight grace window.
    pub fn with_grace(mut self, span: tiger_sim::SimDuration) -> Self {
        self.grace = crate::params::SlotGrace::new(span);
        self
    }

    /// Records a committed insertion.
    pub fn on_insert(&mut self, state: ViewerState, now: SimTime) {
        if state.kind != StreamKind::Primary {
            return; // Mirror entries shadow the primary; not double-booking.
        }
        if let Err(e) = self.schedule.insert(state, now) {
            self.violations
                .push(format!("insert of {} at {now}: {e}", state.instance));
        }
    }

    /// Records a committed removal at `now`.
    pub fn on_remove(&mut self, slot: SlotId, instance: ViewerInstance, now: SimTime) {
        self.schedule.remove(slot, instance);
        self.grace.record(slot, instance, now);
    }

    /// Records that a cub sent a block for `state` at `now`. A send for a
    /// slot the global schedule shows empty (or occupied by someone else)
    /// is a violation — unless the occupant was removed within the grace
    /// window (an in-flight block).
    pub fn on_send(&mut self, state: &ViewerState, now: SimTime) {
        match self.schedule.get(state.slot) {
            Some(entry) if entry.state.instance == state.instance => {}
            Some(entry) => {
                if !self.grace.covers(state.slot, state.instance, now) {
                    self.violations.push(format!(
                        "send for {} in {} which is held by {}",
                        state.instance, state.slot, entry.state.instance
                    ));
                }
            }
            None => {
                if !self.grace.covers(state.slot, state.instance, now) {
                    self.violations.push(format!(
                        "send for {} in empty {}",
                        state.instance, state.slot
                    ));
                }
            }
        }
    }

    /// The global schedule as accumulated.
    pub fn schedule(&self) -> &DiskSchedule {
        &self.schedule
    }

    /// All recorded violations.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::{BlockNum, FileId, StripeConfig, ViewerId};
    use tiger_sim::{Bandwidth, ByteSize, SimDuration};

    fn params() -> ScheduleParams {
        ScheduleParams::derive(
            StripeConfig::new(4, 1, 2),
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            SimDuration::from_millis(100),
            Bandwidth::from_mbit_per_sec(135),
        )
    }

    fn vs(slot: u32, viewer: u64) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation: 0,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(0),
            slot: SlotId(slot),
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = DiskSchedule::new(params());
        s.insert(vs(3, 1), SimTime::ZERO).expect("empty slot");
        assert_eq!(s.occupancy(), 1);
        assert!(s.get(SlotId(3)).is_some());
        let wrong = ViewerInstance {
            viewer: ViewerId(2),
            incarnation: 0,
        };
        assert!(
            s.remove(SlotId(3), wrong).is_none(),
            "wrong instance is a no-op"
        );
        let right = ViewerInstance {
            viewer: ViewerId(1),
            incarnation: 0,
        };
        assert!(s.remove(SlotId(3), right).is_some());
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn double_booking_rejected() {
        let mut s = DiskSchedule::new(params());
        s.insert(vs(3, 1), SimTime::ZERO).expect("empty slot");
        assert_eq!(
            s.insert(vs(3, 2), SimTime::ZERO),
            Err(ScheduleError::SlotOccupied(SlotId(3)))
        );
    }

    #[test]
    fn service_advances_position() {
        let mut s = DiskSchedule::new(params());
        s.insert(vs(3, 1), SimTime::ZERO).expect("empty slot");
        let sent = s.service(SlotId(3)).expect("occupied");
        assert_eq!(sent.position, BlockNum(0));
        let sent = s.service(SlotId(3)).expect("occupied");
        assert_eq!(sent.position, BlockNum(1));
        assert_eq!(s.get(SlotId(3)).expect("occupied").state.play_seq, 2);
    }

    #[test]
    fn omniscient_flags_bad_sends() {
        let mut o = Omniscient::new(params());
        o.on_insert(vs(3, 1), SimTime::ZERO);
        o.on_send(&vs(3, 1), SimTime::ZERO);
        assert!(o.violations().is_empty());
        o.on_send(&vs(4, 1), SimTime::ZERO); // empty slot
        o.on_send(&vs(3, 2), SimTime::ZERO); // held by someone else
        assert_eq!(o.violations().len(), 2);
    }

    #[test]
    fn omniscient_flags_double_insert() {
        let mut o = Omniscient::new(params());
        o.on_insert(vs(3, 1), SimTime::ZERO);
        o.on_insert(vs(3, 2), SimTime::ZERO);
        assert_eq!(o.violations().len(), 1);
        o.on_remove(
            SlotId(3),
            ViewerInstance {
                viewer: ViewerId(1),
                incarnation: 0,
            },
            SimTime::ZERO,
        );
        o.on_insert(vs(3, 2), SimTime::ZERO);
        assert_eq!(o.violations().len(), 1, "reuse after remove is fine");
    }
}
