//! A bounded, possibly out-of-date view of the schedule (§4.1).
//!
//! "Every cub maintains a view of the portion of the disk schedule near
//! each of its disks. … Views may be incomplete or out-of-date without
//! compromising the coherence of the underlying hallucination."
//!
//! The view enforces the paper's merge rules:
//!
//! * viewer states are idempotent — duplicates are ignored;
//! * a held deschedule blocks (re-)acceptance of the matching viewer state
//!   ("Before accepting a viewer state, a cub checks to see if it is
//!   holding a deschedule for that viewer in that slot") — one hash probe,
//!   however many deschedules are held;
//! * deschedules are held for a while after their slot has passed, to catch
//!   late viewer states, and dropped in expiry order from a queue, so
//!   expiring costs what expired and not what is held;
//! * a primary entry never shares a slot with a different instance — an
//!   attempted conflicting insert is reported, because it would mean the
//!   ownership protocol was violated.
//!
//! A cub's forward machine keeps the [`HeldDeschedules`], its service
//! table's per-instance records the entries: [`ScheduleView`] is the
//! reference model both are tested against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tiger_layout::ids::ViewerInstance;
use tiger_sim::{DenseLists, DetHashMap as HashMap, SimTime, Tagged};

use crate::params::SlotId;
use crate::records::{Deschedule, StreamKind, ViewerState};

/// Outcome of merging a viewer state into a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewApply {
    /// The record was new and is now in the view.
    Inserted,
    /// The record refreshed/advanced an existing entry.
    Updated,
    /// The record is an exact or older duplicate; ignored.
    Duplicate,
    /// A held deschedule killed the record on arrival.
    Blocked,
    /// The slot already holds a *different* viewer instance of the same
    /// kind. The view keeps the existing entry; the caller should treat
    /// this as an ownership-protocol violation.
    Conflict,
}

impl Tagged for ViewerState {
    fn tag(&self) -> u32 {
        self.instance.tag()
    }
}

/// The deschedules held against late viewer states (§4.1.2), to expiry.
#[derive(Clone, Debug, Default)]
pub struct HeldDeschedules {
    /// Each hold's expiry, and the order it was first applied in (what
    /// [`HeldDeschedules::gc_report`] reports by).
    held: HashMap<Deschedule, (SimTime, u64)>,
    /// One `(instant, first-application order, deschedule)` per hold,
    /// earliest on top. The instant is the hold's expiry as of when the
    /// entry was queued: re-applying a deschedule moves only `held`'s
    /// expiry, and [`HeldDeschedules::expire`] re-queues the entry when it
    /// surfaces early. So `lapses.len() == held.len()` always.
    lapses: BinaryHeap<Reverse<(SimTime, u64, Deschedule)>>,
    /// First-application order of the next new hold.
    next_hold: u64,
}

impl HeldDeschedules {
    /// Holds `d` until `hold_until` or, if held already, its later expiry,
    /// having dropped what expired by `now`.
    pub fn hold(&mut self, d: Deschedule, now: SimTime, hold_until: SimTime) {
        self.expire(now, |_, _| {});
        match self.held.get_mut(&d) {
            Some((expiry, _)) => *expiry = (*expiry).max(hold_until),
            None => {
                let order = self.next_hold;
                self.next_hold += 1;
                self.held.insert(d, (hold_until, order));
                self.lapses.push(Reverse((hold_until, order, d)));
            }
        }
    }

    /// Whether a hold still in force at `now` blocks `vs`.
    pub fn blocks(&mut self, vs: &ViewerState, now: SimTime) -> bool {
        self.expire(now, |_, _| {});
        self.held.contains_key(&Deschedule::of(vs))
    }

    /// Whether a matching deschedule is currently held.
    pub fn holds(&self, d: &Deschedule) -> bool {
        self.held.contains_key(d)
    }

    /// Drops expired deschedules, reporting each in first-application
    /// order: expiry observed at the caller's granularity (the forward
    /// pass); what `hold` and `blocks` drop on the way is past relevance.
    pub fn gc_report(&mut self, now: SimTime, mut expired: impl FnMut(Deschedule)) {
        let mut lapsed = Vec::new();
        self.expire(now, |order, d| lapsed.push((order, d)));
        lapsed.sort_unstable_by_key(|&(order, _)| order);
        for (_, d) in lapsed {
            expired(d);
        }
    }

    /// Drops every hold whose expiry is at or before `now`, handing each
    /// to `lapsed` with its first-application order, in queue order.
    /// Amortised O(expired): a queue entry is visited once per time its
    /// hold was extended past it, and otherwise only to expire.
    fn expire(&mut self, now: SimTime, mut lapsed: impl FnMut(u64, Deschedule)) {
        while let Some(&Reverse((at, order, d))) = self.lapses.peek() {
            if at > now {
                break;
            }
            self.lapses.pop();
            match self.held.get(&d) {
                // Re-applied since it was queued: back in at its real expiry.
                Some(&(expiry, _)) if expiry > now => {
                    self.lapses.push(Reverse((expiry, order, d)));
                }
                _ => {
                    self.held.remove(&d);
                    lapsed(order, d);
                }
            }
        }
    }
}

/// A window onto the global schedule.
#[derive(Clone, Debug, Default)]
pub struct ScheduleView {
    /// Live entries by slot, in the order they arrived (but for
    /// [`ScheduleView::retire`]'s swap). A slot usually holds one primary
    /// entry; during failed mode it may also hold mirror entries (distinct
    /// `kind`s) for the same instance.
    entries: DenseLists<ViewerState>,
    held: HeldDeschedules,
}

impl ScheduleView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a viewer state into the view at `now`.
    pub fn apply_viewer_state(&mut self, vs: ViewerState, now: SimTime) -> ViewApply {
        if self.held.blocks(&vs, now) {
            return ViewApply::Blocked;
        }
        let slot = vs.slot.raw();
        // Same-kind entry for this slot?
        let mut held = self.entries.get_mut(slot).iter_mut();
        if let Some(existing) = held.find(|e| e.kind == vs.kind) {
            if existing.instance == vs.instance {
                if existing.play_seq >= vs.play_seq {
                    return ViewApply::Duplicate;
                }
                *existing = vs;
                return ViewApply::Updated;
            }
            return ViewApply::Conflict;
        }
        self.entries.push(slot, vs);
        ViewApply::Inserted
    }

    /// Applies a deschedule at `now`, holding it until `hold_until`.
    /// Returns `true` if it removed at least one live entry.
    ///
    /// Idempotent: re-applying an already-held deschedule extends its hold
    /// time but reports `false` (nothing newly removed) unless an entry
    /// re-appeared meanwhile.
    pub fn apply_deschedule(&mut self, d: Deschedule, now: SimTime, hold_until: SimTime) -> bool {
        self.held.hold(d, now, hold_until);
        self.entries.retain(d.slot.raw(), |e| !d.matches(e)) > 0
    }

    /// Whether a matching deschedule is currently held.
    pub fn holds_deschedule(&self, d: &Deschedule) -> bool {
        self.held.holds(d)
    }

    /// The primary entry in `slot`, if known.
    pub fn primary_entry(&self, slot: SlotId) -> Option<&ViewerState> {
        self.slot_entries(slot)
            .iter()
            .find(|e| e.kind == StreamKind::Primary)
    }

    /// All entries in `slot` (primary and mirror).
    pub fn slot_entries(&self, slot: SlotId) -> &[ViewerState] {
        self.entries.get(slot.raw())
    }

    /// Whether the view believes `slot` has no primary occupant.
    ///
    /// This is a *belief*, not a fact — "Just because a cub's local view of
    /// the schedule shows a particular slot as being empty, it cannot
    /// conclude that the slot is in fact empty." The ownership protocol is
    /// what makes acting on the belief safe.
    pub fn believes_slot_free(&self, slot: SlotId) -> bool {
        self.primary_entry(slot).is_none()
    }

    /// Removes one specific entry (after its work is done and forwarded).
    /// Returns the removed record.
    ///
    /// Matching includes `play_seq`: if the view has meanwhile been updated
    /// with a newer lap of the same slot (possible on small rings where the
    /// viewer-state lead approaches the ring length), retiring the older
    /// record must not evict the newer one.
    pub fn retire(&mut self, slot: SlotId, entry: &ViewerState) -> Option<ViewerState> {
        let idx = self.entries.get(slot.raw()).iter().position(|e| {
            e.instance == entry.instance && e.kind == entry.kind && e.play_seq == entry.play_seq
        })?;
        Some(self.entries.swap_remove(slot.raw(), idx))
    }

    /// Iterates over all `(slot, entry)` pairs in the view, by slot.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &ViewerState)> {
        self.entries.iter().map(|(slot, e)| (SlotId(slot), e))
    }

    /// Whether any entry belongs to `instance`: a scan of the per-slot
    /// summaries, for the one question that comes without a slot.
    pub fn holds_instance(&self, instance: &ViewerInstance) -> bool {
        let mut held = self.entries.tagged(instance.tag());
        held.any(|e| e.instance == *instance)
    }

    /// Number of live entries (all kinds).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of held deschedules.
    pub fn held_deschedules(&self) -> usize {
        self.held.held.len()
    }

    /// Drops expired deschedules.
    pub fn gc(&mut self, now: SimTime) {
        self.held.expire(now, |_, _| {});
    }

    /// [`ScheduleView::gc`], reporting as [`HeldDeschedules::gc_report`].
    pub fn gc_report(&mut self, now: SimTime, expired: impl FnMut(Deschedule)) {
        self.held.gc_report(now, expired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ids::ViewerInstance;
    use tiger_layout::{BlockNum, DiskId, FileId, ViewerId};
    use tiger_sim::{Bandwidth, SimDuration};

    fn vs(slot: u32, viewer: u64, play_seq: u32) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation: 0,
            },
            client: 1,
            file: FileId(0),
            position: BlockNum(play_seq),
            slot: SlotId(slot),
            play_seq,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        }
    }

    const T0: SimTime = SimTime::ZERO;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn insert_then_duplicate_then_update() {
        let mut v = ScheduleView::new();
        assert_eq!(v.apply_viewer_state(vs(3, 1, 5), T0), ViewApply::Inserted);
        assert_eq!(v.apply_viewer_state(vs(3, 1, 5), T0), ViewApply::Duplicate);
        assert_eq!(v.apply_viewer_state(vs(3, 1, 4), T0), ViewApply::Duplicate);
        assert_eq!(v.apply_viewer_state(vs(3, 1, 6), T0), ViewApply::Updated);
        assert_eq!(v.primary_entry(SlotId(3)).map(|e| e.play_seq), Some(6));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn conflicting_instance_is_reported_and_rejected() {
        let mut v = ScheduleView::new();
        v.apply_viewer_state(vs(3, 1, 5), T0);
        assert_eq!(v.apply_viewer_state(vs(3, 2, 0), T0), ViewApply::Conflict);
        assert_eq!(
            v.primary_entry(SlotId(3)).map(|e| e.instance.viewer),
            Some(ViewerId(1))
        );
    }

    #[test]
    fn deschedule_removes_and_blocks() {
        let mut v = ScheduleView::new();
        let a = vs(3, 1, 5);
        v.apply_viewer_state(a, T0);
        let d = Deschedule {
            instance: a.instance,
            slot: a.slot,
        };
        assert!(v.apply_deschedule(d, T0, t(10)));
        assert!(v.believes_slot_free(SlotId(3)));
        // A late-arriving viewer state for the descheduled viewer is
        // blocked by the held deschedule.
        assert_eq!(
            v.apply_viewer_state(a.advanced(1), t(1)),
            ViewApply::Blocked
        );
        // A *new* viewer may take the slot.
        assert_eq!(v.apply_viewer_state(vs(3, 9, 0), t(1)), ViewApply::Inserted);
    }

    #[test]
    fn deschedule_is_idempotent_and_harmless_when_unmatched() {
        let mut v = ScheduleView::new();
        let d = Deschedule {
            instance: ViewerInstance {
                viewer: ViewerId(1),
                incarnation: 0,
            },
            slot: SlotId(3),
        };
        // "Having a deschedule request floating around after the slot has
        // been reallocated will not cause incorrect results."
        assert!(!v.apply_deschedule(d, T0, t(10)));
        assert!(!v.apply_deschedule(d, T0, t(12)));
        assert_eq!(v.held_deschedules(), 1);
        // A different instance in the same slot is untouched.
        let other = vs(3, 2, 0);
        v.apply_viewer_state(other, T0);
        assert!(!v.apply_deschedule(d, t(1), t(10)));
        assert!(v.primary_entry(SlotId(3)).is_some());
    }

    #[test]
    fn wrong_incarnation_survives_deschedule() {
        // §4.1.2: "instance corresponds to the particular start request
        // being descheduled" — a restarted viewer must not be killed by the
        // stale deschedule of its previous incarnation.
        let mut v = ScheduleView::new();
        let mut restarted = vs(3, 1, 0);
        restarted.instance.incarnation = 1;
        v.apply_viewer_state(restarted, T0);
        let stale = Deschedule {
            instance: ViewerInstance {
                viewer: ViewerId(1),
                incarnation: 0,
            },
            slot: SlotId(3),
        };
        assert!(!v.apply_deschedule(stale, T0, t(10)));
        assert!(v.primary_entry(SlotId(3)).is_some());
    }

    #[test]
    fn deschedules_expire() {
        let mut v = ScheduleView::new();
        let a = vs(3, 1, 5);
        let d = Deschedule {
            instance: a.instance,
            slot: a.slot,
        };
        v.apply_deschedule(d, T0, t(5));
        assert_eq!(v.apply_viewer_state(a, t(1)), ViewApply::Blocked);
        // After expiry the viewer state would be accepted again (the
        // protocol prevents this from happening in practice by discarding
        // states that arrive later than the deschedule hold time).
        assert_eq!(v.apply_viewer_state(a, t(6)), ViewApply::Inserted);
        assert_eq!(v.held_deschedules(), 0);
    }

    #[test]
    fn gc_report_names_each_expired_hold() {
        let mut v = ScheduleView::new();
        let d1 = Deschedule {
            instance: vs(3, 1, 0).instance,
            slot: SlotId(3),
        };
        let d2 = Deschedule {
            instance: vs(4, 2, 0).instance,
            slot: SlotId(4),
        };
        v.apply_deschedule(d1, T0, t(5));
        v.apply_deschedule(d2, T0, t(50));
        let mut dropped = Vec::new();
        v.gc_report(t(10), |d| dropped.push(d));
        assert_eq!(dropped, vec![d1], "only the lapsed hold is reported");
        assert_eq!(v.held_deschedules(), 1);
        // Identical end state to plain gc.
        let mut w = ScheduleView::new();
        w.apply_deschedule(d1, T0, t(5));
        w.apply_deschedule(d2, T0, t(50));
        w.gc(t(10));
        assert_eq!(w.held_deschedules(), v.held_deschedules());
    }

    #[test]
    fn reapplying_extends_hold() {
        let mut v = ScheduleView::new();
        let a = vs(3, 1, 5);
        let d = Deschedule {
            instance: a.instance,
            slot: a.slot,
        };
        v.apply_deschedule(d, T0, t(5));
        v.apply_deschedule(d, t(1), t(20));
        assert_eq!(v.apply_viewer_state(a, t(6)), ViewApply::Blocked);
        // A shorter hold never cuts a longer one short.
        v.apply_deschedule(d, t(7), t(8));
        assert_eq!(v.apply_viewer_state(a, t(19)), ViewApply::Blocked);
        assert_eq!(v.apply_viewer_state(a, t(20)), ViewApply::Inserted);
    }

    #[test]
    fn expiry_queue_holds_one_entry_per_hold() {
        // Every repeat sighting extends the hold; none may grow the queue,
        // however often gc surfaces the entry early and re-queues it.
        let mut v = ScheduleView::new();
        let d = Deschedule {
            instance: vs(3, 1, 0).instance,
            slot: SlotId(3),
        };
        for s in 0..1_000 {
            v.apply_deschedule(d, t(s), t(s + 3));
            assert_eq!((v.held.held.len(), v.held.lapses.len()), (1, 1));
        }
        v.gc(t(1_002));
        assert_eq!((v.held.held.len(), v.held.lapses.len()), (0, 0));
    }

    #[test]
    fn mirror_entries_share_slot_with_primary() {
        let mut v = ScheduleView::new();
        let a = vs(3, 1, 5);
        v.apply_viewer_state(a, T0);
        let mut m0 = a;
        m0.kind = StreamKind::Mirror {
            failed_disk: DiskId(7),
            piece: 0,
        };
        let mut m1 = a;
        m1.kind = StreamKind::Mirror {
            failed_disk: DiskId(7),
            piece: 1,
        };
        assert_eq!(v.apply_viewer_state(m0, T0), ViewApply::Inserted);
        assert_eq!(v.apply_viewer_state(m1, T0), ViewApply::Inserted);
        assert_eq!(v.apply_viewer_state(m0, T0), ViewApply::Duplicate);
        assert_eq!(v.slot_entries(SlotId(3)).len(), 3);
        // Descheduling the viewer kills all derived entries.
        let d = Deschedule {
            instance: a.instance,
            slot: a.slot,
        };
        assert!(v.apply_deschedule(d, T0, t(10)));
        assert!(v.slot_entries(SlotId(3)).is_empty());
    }

    #[test]
    fn retire_removes_one_entry() {
        let mut v = ScheduleView::new();
        let a = vs(3, 1, 5);
        v.apply_viewer_state(a, T0);
        assert!(v.retire(SlotId(3), &a).is_some());
        assert!(v.retire(SlotId(3), &a).is_none());
        assert!(v.is_empty());
        let _ = SimDuration::ZERO;
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut v = ScheduleView::new();
        v.apply_viewer_state(vs(1, 1, 0), T0);
        v.apply_viewer_state(vs(2, 2, 0), T0);
        v.apply_viewer_state(vs(9, 3, 0), T0);
        let mut slots: Vec<u32> = v.iter().map(|(s, _)| s.raw()).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![1, 2, 9]);
    }
}
