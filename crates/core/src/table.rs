//! The cub's per-stream tables: its view of the schedule near its disks (§4.1),
//! the blocks (and pieces) it has committed to send, the log of primary records
//! it recently did send (each a `tiger_sched::PrimaryRecord` and its time, 48
//! bytes, the kind left out), and the per-instance record that holds the
//! view's entries and answers the per-message questions about all three — "is
//! this record a duplicate", "which services does this deschedule kill", "has
//! this block already been served" (§4.1.2). The deschedules the cub holds and
//! the shadow records a second successor holds for redundancy are the forward
//! machine's (`tiger_proto::ForwardMachine`).
//!
//! The active services sit in a [`Window`] of consecutive tokens, so the
//! per-block events (`ReadIssue`, `DiskDone`, `SendDue`, `SendDone`) find
//! theirs by subtraction and the forward pass walks them in acceptance
//! order. The records are kept by the slot they name, as the schedule is
//! (§3.1: "an array of slots"): every question about a record comes with
//! its slot, an instance keeps the slot it was inserted at, and a slot's
//! list is found by indexing. `carried` holds, in its
//! slot's list, one [`Carried`] record for each viewer instance this cub
//! carries anything of. The record has three parts:
//!
//! * its active half lists exactly the tokens of the instance's active
//!   services — [`ServiceTable::insert`], [`ServiceTable::remove`] and
//!   [`ServiceTable::clear`] touch the window and the record or neither;
//! * its retired half lists exactly the `play_seq` of each of the
//!   instance's `retired_log` entries — [`ServiceTable::retire`],
//!   [`ServiceTable::prune_retired`] and [`ServiceTable::clear_retired`];
//! * its view entries, one `(kind, play_seq)` a kind of service, change
//!   only by the `view_*` methods, under `tiger_sched::ScheduleView`'s rules;
//! * a record exists exactly while any part holds something.
//!
//! The two halves are derived state and not schedule information:
//! [`ServiceTable::information_held`] counts the two tables and the view.

use std::collections::VecDeque;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::CubId;
use tiger_proto::{ForwardMachine, Progress, RingMachine};
use tiger_sched::{Deschedule, PrimaryRecord, SlotId, StreamKind, ViewApply, ViewerState};
use tiger_sim::{DenseLists, SimDuration, SimTime, Tagged};

use super::service::{Active, Outcome};
use crate::event::ServiceToken;

/// What identifies one active service on this cub: slot, instance, kind,
/// and play sequence. The last distinguishes successive laps of the same
/// slot: on small rings a slot's next-lap record can arrive while the
/// previous block is still being transmitted.
fn service_key(vs: &ViewerState) -> (SlotId, ViewerInstance, StreamKind, u32) {
    (vs.slot, vs.instance, vs.kind, vs.play_seq)
}

/// The active services, as a window of consecutive tokens. Tokens are
/// handed out in sequence and a service is reclaimed within seconds of its
/// neighbours, so the live ones lie in a short run of consecutive
/// numbers: `slots[i]` belongs to token `base + i`, a lookup is a
/// subtraction, and a cub's successive events find their entries side by
/// side. Iteration is by ascending token, which is acceptance order.
#[derive(Debug, Default)]
struct Window {
    /// Token of `slots[0]`; `base + slots.len()` is the next token to hand
    /// out. Only ever grows: tokens of a previous life may still sit in
    /// the event queue and must miss, not name a new life's service.
    base: ServiceToken,
    /// `None` once reclaimed. A vacated front is popped at once, so the
    /// window spans the oldest live token to the newest and no further.
    slots: VecDeque<Option<Active>>,
    live: usize,
    /// Every service below this token has been forwarded or reclaimed:
    /// where the forward pass starts looking, so it walks the last
    /// second's acceptances and not the table.
    unforwarded_from: ServiceToken,
}

impl Window {
    fn index(&self, token: ServiceToken) -> Option<usize> {
        usize::try_from(token.checked_sub(self.base)?).ok()
    }

    fn get(&self, token: ServiceToken) -> Option<&Active> {
        self.slots.get(self.index(token)?)?.as_ref()
    }

    fn get_mut(&mut self, token: ServiceToken) -> Option<&mut Active> {
        let at = self.index(token)?;
        self.slots.get_mut(at)?.as_mut()
    }

    fn insert(&mut self, entry: Active) -> ServiceToken {
        self.slots.push_back(Some(entry));
        self.live += 1;
        self.base + (self.slots.len() - 1) as ServiceToken
    }

    fn remove(&mut self, token: ServiceToken) -> Option<Active> {
        let at = self.index(token)?;
        let entry = self.slots.get_mut(at)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(entry)
    }

    fn clear(&mut self) {
        self.base += self.slots.len() as ServiceToken;
        self.slots.clear();
        self.live = 0;
    }

    fn iter(&self) -> impl Iterator<Item = (ServiceToken, &Active)> {
        let tokens = self.base..;
        tokens
            .zip(&self.slots)
            .filter_map(|(t, e)| Some((t, e.as_ref()?)))
    }

    /// [`Active::reforward`] on every service; whether any is forwarded
    /// again. The forward pass then looks again from the front.
    fn reforward(&mut self, mut cut_off: impl FnMut(&ViewerState) -> bool) -> bool {
        self.unforwarded_from = self.base;
        let live = self.slots.iter_mut().flatten();
        live.fold(false, |again, e| e.reforward(&mut cut_off) | again)
    }

    fn unforwarded_mut(&mut self) -> impl Iterator<Item = (ServiceToken, &mut Active)> {
        let mut from = self.index(self.unforwarded_from).unwrap_or(0);
        while let Some(slot) = self.slots.get(from) {
            if slot.as_ref().is_some_and(Active::awaits_forward) {
                break;
            }
            from += 1;
        }
        self.unforwarded_from = self.base + from as ServiceToken;
        let tokens = self.unforwarded_from..;
        tokens
            .zip(self.slots.range_mut(from..))
            .filter_map(|(t, e)| Some((t, e.as_mut()?)))
            .filter(|(_, e)| e.awaits_forward())
    }
}

/// The two halves of a [`Carried`] record.
const ACTIVE: usize = 0;
const RETIRED: usize = 1;
/// Pads a half's inline values. Never a value: tokens count up from zero
/// and a `play_seq` is a `u32`.
const EMPTY: u64 = u64::MAX;
/// A half's inline capacity. A mirrored ring holds one or two services of
/// an instance at once and one retired entry; under coded fan-in one
/// acceptance in eight is the instance's third, and its fourth is rare.
const INLINE: usize = 3;

/// A view entry: a kind of service and its latest record's `play_seq`.
type Entry = (StreamKind, u32);

/// What this cub carries of one viewer instance: the tokens of its active
/// services (`ACTIVE`), the `play_seq` of each of its retired-log
/// entries, repeats included (`RETIRED`), and its view entries. A half is
/// kept ascending: its smallest values inline, [`EMPTY`]-padded, so the
/// usual question is a probe and a look at a word or two; whatever else
/// there is (small rings, coded fan-in) in `more`, which is empty unless
/// inline is full. So with the entries: the usual one in `entry`, others
/// (mirror pieces, coded shards) in `more`, only while `entry` is full.
#[derive(Debug)]
struct Carried {
    instance: ViewerInstance,
    inline: [[u64; INLINE]; 2],
    entry: Option<Entry>,
    more: Option<Box<Spill>>,
}

/// A [`Carried`] record's values past inline: its halves', its entries.
type Spill = ([Vec<u64>; 2], Vec<Entry>);

impl Tagged for Carried {
    fn tag(&self) -> u32 {
        self.instance.tag()
    }
}

impl Carried {
    fn half(&self, half: usize) -> impl Iterator<Item = u64> + '_ {
        let inline = self.inline[half].iter().take_while(|&&v| v != EMPTY);
        inline
            .chain(self.more.iter().flat_map(move |more| &more.0[half]))
            .copied()
    }

    fn is_empty(&self) -> bool {
        self.entry.is_none() && self.inline.iter().all(|half| half[0] == EMPTY)
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        let more = self.more.iter().flat_map(|more| &more.1);
        self.entry.iter().chain(more)
    }

    /// The `play_seq` of the entry of `kind`, if there is one.
    fn entry_mut(&mut self, kind: StreamKind) -> Option<&mut u32> {
        let more = self.more.iter_mut().flat_map(|more| &mut more.1);
        let mut entries = self.entry.iter_mut().chain(more);
        entries.find(|(k, _)| *k == kind).map(|(_, seq)| seq)
    }

    fn add_entry(&mut self, entry: Entry) {
        if let Some(first) = self.entry.replace(entry) {
            self.more.get_or_insert_with(Box::default).1.push(first);
        }
    }

    /// Drops the entries `doomed` names; how many.
    fn drop_entries(&mut self, mut doomed: impl FnMut(&Entry) -> bool) -> usize {
        let mut none = Vec::new();
        let more = self.more.as_mut().map_or(&mut none, |more| &mut more.1);
        let before = more.len() + usize::from(self.entry.is_some());
        more.retain(|e| !doomed(e));
        if self.entry.as_ref().is_some_and(doomed) {
            self.entry = more.pop();
        }
        before - more.len() - usize::from(self.entry.is_some())
    }

    fn insert(&mut self, half: usize, mut value: u64) {
        debug_assert_ne!(value, EMPTY);
        // Each inline value larger than the new one moves up a place; what
        // falls off the end is larger than all of inline.
        for held in &mut self.inline[half] {
            if value < *held {
                std::mem::swap(held, &mut value);
            }
        }
        if value != EMPTY {
            let more = &mut self.more.get_or_insert_with(Box::default).0[half];
            more.insert(more.partition_point(|&m| m < value), value);
        }
    }

    /// Removes one occurrence of `value`, if there is one.
    fn remove(&mut self, half: usize, value: u64) {
        let inline = &mut self.inline[half];
        let more = self.more.as_mut().map(|more| &mut more.0[half]);
        if let Some(at) = inline.iter().position(|&held| held == value) {
            inline[at..].rotate_left(1);
            inline[INLINE - 1] = match more {
                Some(more) if !more.is_empty() => more.remove(0),
                _ => EMPTY,
            };
        } else if let Some(more) = more {
            if let Ok(at) = more.binary_search(&value) {
                more.remove(at);
            }
        }
    }

    /// Empties one half; whether the other holds anything.
    fn clear(&mut self, half: usize) -> bool {
        self.inline[half] = [EMPTY; INLINE];
        if let Some(more) = &mut self.more {
            more.0[half].clear();
        }
        !self.is_empty()
    }
}

/// See the module documentation.
#[derive(Debug, Default)]
pub(super) struct ServiceTable {
    active: Window,
    /// Services that may have finished where no event of their own
    /// reclaims them — forwarded by a pass only after their send, a read
    /// that could not be issued, a cut-over. The next
    /// [`ServiceTable::take_reclaims`] hands them out; a forward pass
    /// looks at these and not at the table.
    reclaims: Vec<ServiceToken>,
    /// One record per instance with an active service, a retired entry or
    /// a view entry, in the list of the instance's slot.
    carried: DenseLists<Carried>,
    /// View entries over all records.
    entries: usize,
    /// Recently serviced-and-forwarded primary records, oldest first,
    /// retained for one failure-detection window so that, as "the
    /// preceding living cub", this cub can re-send scheduling information
    /// across a gap of consecutive failures (§2.3), each without its kind.
    retired_log: VecDeque<(SimTime, PrimaryRecord)>,
}

impl ServiceTable {
    // --- Active services ----------------------------------------------------

    /// Adds a service under a fresh token.
    pub(super) fn insert(&mut self, entry: Active) -> ServiceToken {
        let vs = entry.vs;
        let token = self.active.insert(entry);
        self.record_mut(&vs).insert(ACTIVE, token);
        token
    }

    /// The record of `vs`'s instance, a new one if it has none.
    fn record_mut(&mut self, vs: &ViewerState) -> &mut Carried {
        let (slot, instance) = (vs.slot.raw(), vs.instance);
        if self.record(vs.slot, instance).is_none() {
            let (inline, entry, more) = ([[EMPTY; INLINE]; 2], None, None);
            let record = Carried {
                instance,
                inline,
                entry,
                more,
            };
            self.carried.push(slot, record);
        }
        let mut records = self.carried.get_mut(slot).iter_mut();
        records.find(|r| r.instance == instance).expect("a record")
    }

    /// Applies `change` to the record of `i`, which occupies `slot`, and
    /// takes the record out of its slot's list if that left it empty.
    fn uncarry(&mut self, slot: SlotId, i: ViewerInstance, mut change: impl FnMut(&mut Carried)) {
        self.carried.retain(slot.raw(), |record| {
            if record.instance == i {
                change(record);
            }
            !record.is_empty()
        });
    }

    /// The record of `instance`, which occupies `slot`.
    fn record(&self, slot: SlotId, instance: ViewerInstance) -> Option<&Carried> {
        let records = self.carried.get(slot.raw());
        records.iter().find(|r| r.instance == instance)
    }

    /// Removes a service from the table and its instance's record.
    pub(super) fn remove(&mut self, token: ServiceToken) -> Option<Active> {
        let entry = self.active.remove(token)?;
        self.uncarry(entry.vs.slot, entry.vs.instance, |r| {
            r.remove(ACTIVE, token)
        });
        Some(entry)
    }

    /// Forgets every active service (the process died). The retired log
    /// has its own [`ServiceTable::clear_retired`]: a restripe cut-over
    /// drops it while transmissions in flight finish.
    pub(super) fn clear(&mut self) {
        self.active.clear();
        self.reclaims.clear();
        self.carried.retain_all(|record| record.clear(ACTIVE));
    }

    /// Whether a service for exactly this record (slot, instance, kind
    /// and play sequence) is already in the table: one of the instance's
    /// one or two services, if any.
    pub(super) fn serves(&self, vs: &ViewerState) -> bool {
        self.of_instance(vs.slot, vs.instance, 0)
            .any(|(_, e)| service_key(&e.vs) == service_key(vs))
    }

    pub(super) fn get(&self, token: ServiceToken) -> Option<&Active> {
        self.active.get(token)
    }

    pub(super) fn get_mut(&mut self, token: ServiceToken) -> Option<&mut Active> {
        self.active.get_mut(token)
    }

    /// Every service, by ascending token — the order they were accepted in.
    pub(super) fn iter(&self) -> impl Iterator<Item = (ServiceToken, &Active)> {
        self.active.iter()
    }

    /// A failure cut off the cub the records `cut_off` names were
    /// forwarded to: the next pass forwards them again. Whether it has any.
    pub(super) fn reforward(&mut self, cut_off: impl FnMut(&ViewerState) -> bool) -> bool {
        self.active.reforward(cut_off)
    }

    /// A restripe cut-over ([`Active::cut_over`]) of every service, each
    /// noted for the next reclaim.
    pub(super) fn cut_over(&mut self) {
        self.reclaims
            .extend(self.active.iter().map(|(token, _)| token));
        for e in self.active.slots.iter_mut().flatten() {
            e.cut_over();
        }
    }

    /// Offers each service not yet forwarded, oldest first, to `forward`;
    /// the ones it says it forwarded are noted for the pass's reclaim.
    pub(super) fn forward_due(&mut self, mut forward: impl FnMut(&mut Active) -> bool) {
        let due = self.active.unforwarded_mut();
        self.reclaims
            .extend(due.filter_map(|(token, e)| forward(e).then_some(token)));
    }

    /// Notes a service that finished out of its own events' sight.
    pub(super) fn reclaim_at_pass(&mut self, token: ServiceToken) {
        self.reclaims.push(token);
    }

    /// The noted services, by ascending token — the order their records
    /// enter the retired log. Give the vector back to
    /// [`ServiceTable::recycle`] for its allocation.
    pub(super) fn take_reclaims(&mut self) -> Vec<ServiceToken> {
        self.reclaims.sort_unstable();
        std::mem::take(&mut self.reclaims)
    }

    pub(super) fn recycle(&mut self, mut tokens: Vec<ServiceToken>) {
        tokens.clear();
        tokens.append(&mut self.reclaims);
        self.reclaims = tokens;
    }

    /// `instance`'s services, by ascending token.
    fn of_instance(
        &self,
        slot: SlotId,
        instance: ViewerInstance,
        from: ServiceToken,
    ) -> impl Iterator<Item = (ServiceToken, &Active)> {
        let tokens = self.record(slot, instance).into_iter();
        tokens
            .flat_map(|record| record.half(ACTIVE))
            .filter(move |&token| token >= from)
            .filter_map(|token| Some((token, self.active.get(token)?)))
    }

    /// The first service at or after token `from` that `d` kills: the
    /// cursor a deschedule walks its victims with, reclaiming as it goes.
    pub(super) fn next_match(
        &mut self,
        d: &Deschedule,
        from: ServiceToken,
    ) -> Option<(ServiceToken, &mut Active)> {
        let (token, _) = self
            .of_instance(d.slot, d.instance, from)
            .find(|(_, e)| d.matches(&e.vs))?;
        Some((token, self.active.get_mut(token)?))
    }

    // --- The retired log ------------------------------------------------------

    /// Appends a serviced primary record.
    pub(super) fn retire(&mut self, now: SimTime, record: PrimaryRecord) {
        let seq = record.play_seq().into();
        self.retired_log.push_back((now, record));
        self.record_mut(&record.vs()).insert(RETIRED, seq);
    }

    /// The log, oldest first.
    pub(super) fn retired(&self) -> impl DoubleEndedIterator<Item = (SimTime, ViewerState)> + '_ {
        self.retired_log.iter().map(|&(at, r)| (at, r.vs()))
    }

    /// Drops entries older than `retention` before `now`: a prefix, the
    /// log being in service order, so pruning costs what it drops.
    pub(super) fn prune_retired(&mut self, now: SimTime, retention: SimDuration) {
        let horizon = now.saturating_sub(retention);
        while let Some(&(_, record)) = self.retired_log.front().filter(|(at, _)| *at < horizon) {
            self.retired_log.pop_front();
            let seq = record.play_seq().into();
            self.uncarry(record.slot(), record.instance(), |r| r.remove(RETIRED, seq));
        }
    }

    pub(super) fn clear_retired(&mut self) {
        self.retired_log.clear();
        self.carried.retain_all(|record| record.clear(RETIRED));
    }

    // --- The view's entries ----------------------------------------------------

    /// Merges `vs` into the view, a slot holding one entry a kind:
    /// `tiger_sched::ScheduleView::apply_viewer_state`'s verdicts but
    /// `Blocked`, which the forward machine's holds answer first.
    pub(super) fn view_apply(&mut self, vs: &ViewerState) -> ViewApply {
        let records = self.carried.get_mut(vs.slot.raw()).iter_mut();
        let mut same_kind = records.filter_map(|r| Some((r.instance, r.entry_mut(vs.kind)?)));
        match same_kind.next() {
            Some((instance, _)) if instance != vs.instance => ViewApply::Conflict,
            Some((_, seq)) if *seq >= vs.play_seq => ViewApply::Duplicate,
            Some((_, seq)) => {
                *seq = vs.play_seq;
                ViewApply::Updated
            }
            None => {
                self.entries += 1;
                self.record_mut(vs).add_entry((vs.kind, vs.play_seq));
                ViewApply::Inserted
            }
        }
    }

    /// Drops `vs`'s view entry if it is exactly that, kind and `play_seq`:
    /// on small rings a newer lap's record may have updated it since.
    pub(super) fn view_retire(&mut self, vs: &ViewerState) {
        let key = (vs.kind, vs.play_seq);
        self.view_drop(vs.slot, vs.instance, |e| *e == key);
    }

    /// Drops the view entries `d` kills: every kind of its instance's.
    pub(super) fn view_deschedule(&mut self, d: &Deschedule) {
        self.view_drop(d.slot, d.instance, |_| true);
    }

    fn view_drop(&mut self, slot: SlotId, i: ViewerInstance, doomed: impl Fn(&Entry) -> bool) {
        let mut dropped = 0;
        self.uncarry(slot, i, |r| dropped = r.drop_entries(&doomed));
        self.entries -= dropped;
    }

    /// Forgets the view; the services and the retired log stay.
    pub(super) fn clear_view(&mut self) {
        self.carried.retain_all(|record| {
            record.drop_entries(|_| true);
            !record.is_empty()
        });
        self.entries = 0;
    }

    /// The instance the view believes (only believes) holds `slot`.
    pub(super) fn view_primary(&self, slot: SlotId) -> Option<ViewerInstance> {
        let mut records = self.carried.get(slot.raw()).iter();
        let primary = |r: &&Carried| r.entries().any(|(kind, _)| *kind == StreamKind::Primary);
        records.find(primary).map(|r| r.instance)
    }

    /// The view's entries not yet served here (nor awaiting retirement).
    pub(super) fn unserved_view_entries(
        &self,
    ) -> impl Iterator<Item = (SlotId, ViewerInstance)> + '_ {
        self.carried.iter().flat_map(move |(slot, r)| {
            let progress = self.progress_of(r);
            let last = progress.retired.max(progress.serving);
            let unserved = r.entries().filter(move |(_, seq)| last < Some(*seq));
            unserved.map(move |_| (SlotId(slot), r.instance))
        })
    }

    // --- Questions -------------------------------------------------------------

    /// The view's entries in records with no active service: what a service
    /// that ended without its entry's retirement leaves behind.
    pub(super) fn stray_view_entries(&self) -> usize {
        let records = self.carried.values();
        let stray = records.filter(|r| r.half(ACTIVE).next().is_none());
        stray.map(|r| r.entries().count()).sum()
    }

    /// Active services, retired-log entries and view entries: this
    /// table's share of `Cub::schedule_information_held`.
    pub(super) fn information_held(&self) -> usize {
        self.active.live + self.retired_log.len() + self.entries
    }

    /// Whether an active service, a retired entry or a view entry belongs
    /// to `instance`: the one question that comes without a slot, so a
    /// scan of the per-slot summaries for its record.
    pub(super) fn carries_instance(&self, instance: &ViewerInstance) -> bool {
        let mut records = self.carried.tagged(instance.tag());
        records.any(|r| r.instance == *instance)
    }

    /// How far this cub has served `instance`, which occupies `slot`: the
    /// forward machine's duplicate facts.
    pub(super) fn progress(&self, slot: SlotId, instance: ViewerInstance) -> Progress {
        let record = self.record(slot, instance);
        record.map_or_else(Progress::default, |r| self.progress_of(r))
    }

    /// [`ServiceTable::progress`], of `record`'s instance. The one place
    /// that says which actives count: primaries. A mirror piece or a coded
    /// shard carries its home block's play_seq and says nothing of this
    /// cub's own progression; counting one would refuse the redundancy copy
    /// of the very record it serves, the stream's only survivor once the
    /// home and its covering cub are gone.
    fn progress_of(&self, record: &Carried) -> Progress {
        let serving = record.half(ACTIVE).filter_map(|t| self.active.get(t));
        let primary = serving.filter(|a| a.vs.kind == StreamKind::Primary);
        Progress {
            retired: record.half(RETIRED).last().map(|seq| seq as u32),
            serving: primary.map(|a| a.vs.play_seq).max(),
        }
    }
}

/// The cub's private tables on their own, for `crates/bench`'s `table/*`
/// rows and the `table_bytes` test: the types are private to the cub, and
/// no `Cub` method reaches `get_mut` without a side effect.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct TableBench(ServiceTable, ForwardMachine);

impl TableBench {
    pub fn view_apply(&mut self, vs: &ViewerState) -> ViewApply {
        self.0.view_apply(vs)
    }

    pub fn view_retire(&mut self, vs: &ViewerState) {
        self.0.view_retire(vs);
    }

    pub fn retire(&mut self, record: PrimaryRecord) {
        self.0.retire(SimTime::ZERO, record);
    }

    /// A record for cub 1's disks, shadowed by cub 0.
    pub fn shadow(&mut self, vs: ViewerState, due: SimTime) {
        let mut ring = RingMachine::new(CubId(0), 2);
        let (at, held) = (SimTime::ZERO, Progress::default());
        self.1
            .on_primary(&mut ring, at, vs, Some(CubId(1)), held, || due);
    }

    pub fn insert(&mut self, vs: ViewerState, spec: &super::service::PieceSpec) -> ServiceToken {
        self.0.insert(Active::new(vs, spec, SimTime::ZERO))
    }

    /// What every per-block event opens with: find the entry, read its outcome.
    pub fn touch(&mut self, token: ServiceToken) -> bool {
        let entry = self.0.get_mut(token);
        entry.is_some_and(|e| e.outcome() != Outcome::Dropped)
    }

    pub fn remove(&mut self, token: ServiceToken) -> bool {
        self.0.remove(token).is_some()
    }

    pub fn progress(&self, vs: &ViewerState) -> Progress {
        self.0.progress(vs.slot, vs.instance)
    }
}

#[cfg(test)]
mod tests {
    use super::super::service::PieceSpec;
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use tiger_layout::{BlockNum, DiskId, FileId, ViewerId};
    use tiger_sim::check::{check, check_reaching};
    use tiger_sim::{Bandwidth, SimRng};

    /// The tables as the cub kept them before they were indexed: two
    /// plain collections, every question a scan. Test-only.
    #[derive(Default)]
    struct ScanOracle {
        active: Vec<(ServiceToken, Active)>,
        retired: Vec<(SimTime, ViewerState)>,
    }

    impl ScanOracle {
        fn carries_instance(&self, instance: &ViewerInstance) -> bool {
            self.active.iter().any(|(_, a)| a.vs.instance == *instance)
                || self.retired.iter().any(|(_, vs)| vs.instance == *instance)
        }

        fn progress(&self, vs: &ViewerState) -> Progress {
            let serving = self
                .active
                .iter()
                .map(|(_, a)| a.vs)
                .filter(|a| a.kind == StreamKind::Primary && a.instance == vs.instance);
            let retired = self
                .retired
                .iter()
                .filter(|(_, r)| r.instance == vs.instance);
            Progress {
                retired: retired.map(|(_, r)| r.play_seq).max(),
                serving: serving.map(|a| a.play_seq).max(),
            }
        }

        fn serves(&self, vs: &ViewerState) -> bool {
            self.active
                .iter()
                .any(|(_, a)| service_key(&a.vs) == service_key(vs))
        }

        fn victims(&self, d: &Deschedule) -> Vec<ServiceToken> {
            let mut tokens: Vec<_> = self
                .active
                .iter()
                .filter(|(_, a)| d.matches(&a.vs))
                .map(|&(t, _)| t)
                .collect();
            tokens.sort_unstable();
            tokens
        }
    }

    fn arb_state(rng: &mut SimRng) -> ViewerState {
        let kind = match rng.gen_range(0u32..4) {
            0 => StreamKind::Mirror {
                failed_disk: DiskId(1),
                piece: rng.gen_range(0u32..2),
            },
            1 => StreamKind::Coded {
                home_disk: DiskId(1),
                shard: rng.gen_range(1u32..3),
            },
            _ => StreamKind::Primary,
        };
        let play_seq = rng.gen_range(0u32..6);
        let (viewer, incarnation) = (rng.gen_range(0u64..4), rng.gen_range(0u32..2));
        ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(play_seq),
            // An instance keeps the slot it was inserted at; eight
            // instances share three slots.
            slot: SlotId((viewer as u32 + incarnation) % 3),
            play_seq,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind,
        }
    }

    fn primary(vs: &ViewerState) -> PrimaryRecord {
        PrimaryRecord::new(vs).expect("only a primary record retires")
    }

    /// A retired log entry is a time and a record, 48 bytes against 64.
    const _: () = assert!(std::mem::size_of::<(SimTime, PrimaryRecord)>() == 48);

    fn active(vs: ViewerState) -> Active {
        let spec = PieceSpec {
            kind: vs.kind,
            dating_disk: DiskId(0),
            disk_local: 0,
            offset: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            payload: 1,
            read_leads: 2,
            late_guard: false,
        };
        Active::new(vs, &spec, SimTime::ZERO)
    }

    #[test]
    fn window_matches_the_map_model() {
        check("window_matches_the_map_model", |rng| {
            let mut window = Window::default();
            let mut model: BTreeMap<ServiceToken, Active> = BTreeMap::new();
            let mut next: ServiceToken = 0;
            // Tokens that no longer name anything: reclaimed, or of a life
            // a `clear` ended.
            let mut stale: Vec<ServiceToken> = Vec::new();
            // How many more removals spare the oldest service: a straggler
            // pins the front while the services behind it come and go.
            let mut pinned = 0;
            for _ in 0..rng.gen_range(1usize..400) {
                match rng.gen_range(0u32..20) {
                    0..=6 => {
                        let entry = active(arb_state(rng));
                        assert_eq!(window.insert(entry), next, "tokens never reset");
                        model.insert(next, entry);
                        next += 1;
                    }
                    7..=11 if !model.is_empty() => {
                        let spared = usize::from(pinned > 0 && model.len() > 1);
                        pinned -= spared;
                        let pick = rng.gen_range(spared..model.len());
                        let token = *model.keys().nth(pick).expect("in range");
                        let (got, want) = (window.remove(token), model.remove(&token));
                        assert_eq!(got.map(|e| e.vs), want.map(|e| e.vs));
                        assert!(window.remove(token).is_none(), "removed twice");
                        stale.push(token);
                    }
                    12 | 13 if !model.is_empty() => {
                        let pick = rng.gen_range(0..model.len());
                        let token = *model.keys().nth(pick).expect("in range");
                        window.get_mut(token).expect("live").kill();
                        model.get_mut(&token).expect("live").kill();
                    }
                    14 => pinned = rng.gen_range(0usize..40),
                    15 | 16 => {
                        // A forward pass: offered exactly the unforwarded
                        // services, it forwards some of them.
                        let offered: Vec<_> = window
                            .unforwarded_mut()
                            .map(|(token, e)| {
                                if token % 3 != 0 {
                                    e.forward();
                                }
                                token
                            })
                            .collect();
                        let want =
                            model
                                .iter_mut()
                                .filter(|(_, e)| e.awaits_forward())
                                .map(|(&t, e)| {
                                    if t % 3 != 0 {
                                        e.forward();
                                    }
                                    t
                                });
                        assert_eq!(offered, want.collect::<Vec<_>>(), "the pass's offer");
                    }
                    17 if rng.gen_bool(0.5) => {
                        // A failure declaration un-forwards a few.
                        let back = |vs: &ViewerState| vs.play_seq.is_multiple_of(4);
                        let again = window.reforward(back);
                        let want = model.values_mut().fold(false, |a, m| m.reforward(back) | a);
                        assert_eq!(again, want, "whether any is forwarded again");
                    }
                    18 if rng.gen_bool(0.3) => {
                        window.clear();
                        stale.extend(model.keys());
                        model.clear();
                    }
                    _ => {}
                }
                stale.drain(..stale.len().saturating_sub(32));
                for &token in stale.iter().chain(&[next, next + 7, ServiceToken::MAX]) {
                    assert!(window.get(token).is_none(), "stale token {token} answered");
                }
                let listed: Vec<_> = window
                    .iter()
                    .map(|(t, e)| (t, e.vs, e.outcome(), e.awaits_forward()))
                    .collect();
                let want: Vec<_> = model
                    .iter()
                    .map(|(&t, e)| (t, e.vs, e.outcome(), e.awaits_forward()))
                    .collect();
                assert_eq!(listed, want, "iteration is the live set by ascending token");
                for (&token, e) in &model {
                    assert_eq!(window.get(token).map(|g| g.vs), Some(e.vs));
                }
                assert_eq!(window.live, model.len());
                assert_eq!(window.iter().count(), model.len());
                // The window spans the oldest live token to the newest
                // handed out, and nothing once the table is empty.
                let span = model.keys().next().map_or(0, |oldest| next - oldest);
                assert_eq!(window.slots.len() as ServiceToken, span);
            }
        });
    }

    /// No service outlives its neighbours by much, so the window does not
    /// ratchet open: under continuous stop/start churn its widest span
    /// (oldest live token to newest) around 2,000 s is within twice the
    /// widest around 200 s, on every cub.
    #[test]
    fn window_span_does_not_ratchet_under_churn() {
        use crate::{TigerConfig, TigerSystem};
        let mut cfg = TigerConfig::small_test();
        cfg.disk = cfg.disk.without_blips();
        let mut sys = TigerSystem::new(cfg);
        let file = sys.add_file(
            Bandwidth::from_mbit_per_sec(2),
            SimDuration::from_secs(3_000),
        );
        let fill = u64::from(sys.world().params.capacity()) * 9 / 10;
        let mut live: Vec<ViewerInstance> = (0..fill)
            .map(|i| {
                let client = sys.add_client();
                sys.request_start(SimTime::from_millis(100 + i * 100), client, file)
            })
            .collect();
        let mut rng = tiger_sim::RngTree::new(17).fork("churn", 0);
        // The widest span per cub over the hundred seconds up to `until`,
        // a viewer stopped and another started every other second.
        let mut widest = |sys: &mut TigerSystem, until: u64| {
            let mut spans = vec![0; sys.cubs().len()];
            for t in until - 100..until {
                if t % 2 == 0 {
                    let at = SimTime::from_secs(t);
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    sys.request_stop(at, victim);
                    let client = sys.add_client();
                    live.push(sys.request_start(at + SimDuration::from_millis(50), client, file));
                }
                sys.run_until(SimTime::from_secs(t + 1));
                for (span, cub) in spans.iter_mut().zip(sys.cubs()) {
                    *span = (*span).max(cub.services.active.slots.len());
                }
            }
            spans
        };
        let early = widest(&mut sys, 200);
        for until in (300..2_000).step_by(100) {
            widest(&mut sys, until);
        }
        let late = widest(&mut sys, 2_000);
        assert!(sys.take_violations().is_empty());
        for (cub, (early, late)) in early.iter().zip(&late).enumerate() {
            assert!(*early > 0, "cub {cub} served nothing");
            assert!(
                late <= &(2 * early),
                "cub {cub}: window spans {late} tokens at 2,000 s, {early} at 200 s"
            );
        }
    }

    /// A forward pass as the cub runs it — offered the unforwarded
    /// services from the cursor on, reclaiming from the list of tokens
    /// noted since the last pass, pruning the log from the front — against
    /// the pass it replaced: walk every service, `retain` what is left.
    /// Whatever finishes a service out of its own event's sight must have
    /// noted it, or the two part ways.
    #[test]
    fn pass_gc_matches_the_retain_model() {
        let lead = SimDuration::from_secs(1);
        let retention = SimDuration::from_secs(4);
        let forward = |e: &mut Active, now: SimTime| {
            let due = now + lead >= e.send_at;
            if due {
                e.forward();
            }
            due
        };
        let serviced =
            |e: &Active| e.vs.kind == StreamKind::Primary && e.outcome() != Outcome::Dropped;
        let send = |e: &mut Active| {
            if e.outcome() == Outcome::Pending {
                e.cache_hit();
                e.send_due();
                e.send_done();
            }
        };
        // `Cub::reclaim_finished`, on the table alone.
        let reclaim_noted = |table: &mut ServiceTable, now| {
            let noted = table.take_reclaims();
            assert!(noted.is_sorted(), "reclaims go in token order");
            for &token in &noted {
                if table.get(token).is_some_and(Active::finished) {
                    let e = table.remove(token).expect("live");
                    if serviced(&e) {
                        table.retire(now, primary(&e.vs));
                    }
                }
            }
            table.recycle(noted);
        };
        // The parent's: every finished service, found by walking them all.
        type Log = Vec<(SimTime, ViewerState)>;
        let walk = |model: &mut BTreeMap<ServiceToken, Active>, log: &mut Log, now| {
            model.retain(|_, e| {
                if e.finished() && serviced(e) {
                    log.push((now, e.vs));
                }
                !e.finished()
            });
        };
        check("pass_gc_matches_the_retain_model", |rng| {
            let mut table = ServiceTable::default();
            let mut model: BTreeMap<ServiceToken, Active> = BTreeMap::new();
            let mut log = Log::new();
            let mut now = SimTime::ZERO;
            for _ in 0..rng.gen_range(1usize..300) {
                now += SimDuration::from_millis(rng.gen_range(0u64..400));
                let picked = (!model.is_empty()).then(|| {
                    let at = rng.gen_range(0..model.len());
                    *model.keys().nth(at).expect("in range")
                });
                // An event of the service's own, applied to both sides: if
                // it finishes the service it also reclaims it; if `noted`,
                // it leaves that to the next pass instead.
                let mut own_event = |flip: &dyn Fn(&mut Active), noted: bool| {
                    let token = picked.expect("a live service");
                    flip(table.get_mut(token).expect("live"));
                    let e = model.get_mut(&token).expect("live");
                    flip(e);
                    if noted {
                        table.reclaim_at_pass(token);
                    } else if e.finished() {
                        if serviced(e) {
                            table.retire(now, primary(&e.vs));
                            log.push((now, e.vs));
                        }
                        table.remove(token);
                        model.remove(&token);
                    }
                };
                match rng.gen_range(0u32..20) {
                    0..=5 => {
                        let mut entry = active(arb_state(rng));
                        entry.send_at = now + SimDuration::from_millis(rng.gen_range(0u64..3_000));
                        model.insert(table.insert(entry), entry);
                    }
                    // A block read from the cache and sent.
                    6..=9 if picked.is_some() => own_event(&send, false),
                    // A read that could not be issued.
                    10 if picked.is_some() => own_event(&|e| e.read_lost(), true),
                    11 | 12 if picked.is_some() => own_event(&|e| _ = e.kill(), false),
                    13 if rng.gen_bool(0.3) => {
                        // A failure declaration un-forwards into the gap.
                        let back = |vs: &ViewerState| vs.play_seq.is_multiple_of(2);
                        table.reforward(back);
                        for m in model.values_mut() {
                            m.reforward(back);
                        }
                    }
                    14 if rng.gen_bool(0.2) => {
                        // A cut-over kills what has not gone out and
                        // reclaims on the spot, without a pass.
                        table.cut_over();
                        for m in model.values_mut() {
                            m.cut_over();
                        }
                        reclaim_noted(&mut table, now);
                        walk(&mut model, &mut log, now);
                    }
                    15..=19 => {
                        table.forward_due(|e| forward(e, now));
                        reclaim_noted(&mut table, now);
                        table.prune_retired(now, retention);
                        for e in model.values_mut().filter(|e| e.awaits_forward()) {
                            forward(e, now);
                        }
                        walk(&mut model, &mut log, now);
                        log.retain(|&(at, _)| at >= now.saturating_sub(retention));
                        assert!(table.iter().all(|(_, e)| !e.finished()));
                    }
                    _ => {}
                }
                let flags = |e: &Active| (e.vs, e.outcome(), e.awaits_forward());
                let held: Vec<_> = table.iter().map(|(t, e)| (t, flags(e))).collect();
                let want: Vec<_> = model.iter().map(|(&t, e)| (t, flags(e))).collect();
                assert_eq!(held, want, "the services a whole-table walk would keep");
                let logged: Vec<_> = table.retired().collect();
                assert_eq!(logged, log, "the log `retain` would keep");
                assert_in_step(&table);
            }
        });
    }

    /// The records describe `active` and the retired log exactly: one per
    /// instance either names, in its slot's list, listing its tokens and
    /// its retired `play_seq`s in ascending order, inline before `more`.
    fn assert_in_step(t: &ServiceTable) {
        let mut want: BTreeMap<(SlotId, ViewerInstance), [Vec<u64>; 2]> = BTreeMap::new();
        for (token, e) in t.active.iter() {
            want.entry((e.vs.slot, e.vs.instance)).or_default()[ACTIVE].push(token);
        }
        for (_, vs) in t.retired() {
            let held = want.entry((vs.slot, vs.instance)).or_default();
            held[RETIRED].push(vs.play_seq.into());
        }
        assert_eq!(
            t.carried.len(),
            want.len(),
            "a record leaked or went missing"
        );
        for ((slot, instance), mut halves) in want {
            let record = t.record(slot, instance).expect("a record");
            halves[RETIRED].sort_unstable();
            for (half, want) in halves.iter().enumerate() {
                assert_eq!(&record.half(half).collect::<Vec<_>>(), want);
                let spilled = record.more.as_ref().map_or(0, |more| more.0[half].len());
                assert!(spilled == 0 || record.inline[half][INLINE - 1] != EMPTY);
            }
        }
    }

    #[test]
    fn indexed_table_matches_the_scan_oracle() {
        // What the cases reached between them, asserted after the run:
        // records pushed past their inline capacity and brought back, and
        // each half cleared over the other.
        const REACH: [&str; 6] = [
            "four services of one instance at once",
            "four retired entries of one instance at once",
            "a half back inline after it spilled",
            "one (instance, play_seq) retired twice",
            "clear with retired entries outstanding",
            "clear_retired with services outstanding",
        ];
        let name = "indexed_table_matches_the_scan_oracle";
        check_reaching(name, REACH, |rng, reach| {
            let mut table = ServiceTable::default();
            let mut oracle = ScanOracle::default();
            let mut now = SimTime::ZERO;
            let retention = SimDuration::from_secs(5);
            // Half of what happens, happens to one instance; and in one
            // case of three the clock stands still, so nothing ages out.
            let hot = arb_state(rng);
            let arb_state = |rng: &mut SimRng| {
                let vs = arb_state(rng);
                match rng.gen_bool(0.5) {
                    true => ViewerState {
                        instance: hot.instance,
                        slot: hot.slot,
                        ..vs
                    },
                    false => vs,
                }
            };
            let pace = rng.gen_range(0u64..3) * 250;
            let mut spilled = BTreeSet::new();
            for _ in 0..rng.gen_range(1usize..150) {
                now += SimDuration::from_millis(rng.gen_range(0u64..3) * pace);
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        // Admission: the duplicate test, then insert.
                        let vs = arb_state(rng);
                        let dup = oracle.serves(&vs);
                        assert_eq!(table.serves(&vs), dup);
                        if !dup {
                            let token = table.insert(active(vs));
                            oracle.active.push((token, active(vs)));
                        }
                    }
                    4 | 5 if !oracle.active.is_empty() => {
                        // Reclaim: a finished service retires its record.
                        let pick = rng.gen_range(0..oracle.active.len());
                        let (token, entry) = oracle.active.swap_remove(pick);
                        let removed = table.remove(token).expect("listed");
                        assert_eq!(removed.vs, entry.vs);
                        if entry.vs.kind == StreamKind::Primary && rng.gen_bool(0.8) {
                            table.retire(now, primary(&entry.vs));
                            oracle.retired.push((now, entry.vs));
                        }
                    }
                    6 | 7 => {
                        // Deschedule: the cursor visits exactly the
                        // matching services, also when some are reclaimed
                        // under it.
                        let d = Deschedule::of(&arb_state(rng));
                        let want = oracle.victims(&d);
                        let (mut got, mut from) = (Vec::new(), 0);
                        while let Some((token, entry)) = table.next_match(&d, from) {
                            from = token + 1;
                            entry.kill();
                            got.push(token);
                            if rng.gen_bool(0.5) {
                                table.remove(token);
                                oracle.active.retain(|&(t, _)| t != token);
                            }
                        }
                        assert_eq!(got, want, "victims of {d:?}");
                    }
                    8 => {
                        table.prune_retired(now, retention);
                        oracle
                            .retired
                            .retain(|&(at, _)| at >= now.saturating_sub(retention));
                    }
                    _ => match rng.gen_range(0u32..8) {
                        0 => {
                            reach(4, !oracle.active.is_empty() && !oracle.retired.is_empty());
                            table.clear();
                            oracle.active.clear();
                        }
                        1 => {
                            reach(5, !oracle.active.is_empty() && !oracle.retired.is_empty());
                            table.clear_retired();
                            oracle.retired.clear();
                        }
                        _ => {}
                    },
                }
                assert_in_step(&table);
                spilled.retain(|(instance, half): &(ViewerInstance, usize)| {
                    let mut records = table.carried.values();
                    let record = records.find(|record| record.instance == *instance);
                    record.is_some_and(|record| record.half(*half).next().is_some())
                });
                for record in table.carried.values() {
                    let instance = &record.instance;
                    for half in [ACTIVE, RETIRED] {
                        let held: Vec<_> = record.half(half).collect();
                        reach(half, held.len() > INLINE);
                        reach(3, half == RETIRED && held.windows(2).any(|w| w[0] == w[1]));
                        if held.len() > INLINE {
                            spilled.insert((*instance, half));
                        } else if (1..=INLINE).contains(&held.len()) {
                            reach(2, spilled.remove(&(*instance, half)));
                        }
                    }
                }
                assert_eq!(table.retired().collect::<Vec<_>>(), oracle.retired);
                assert_eq!(
                    table.information_held(),
                    oracle.active.len() + oracle.retired.len(),
                    "index entries are not schedule information"
                );
                let probe = arb_state(rng);
                assert_eq!(
                    table.progress(probe.slot, probe.instance),
                    oracle.progress(&probe),
                    "progress({probe:?})"
                );
                assert_eq!(
                    table.carries_instance(&probe.instance),
                    oracle.carries_instance(&probe.instance),
                );
                assert_eq!(table.serves(&probe), oracle.serves(&probe));
            }
        });
    }

    /// The schedule information a cub holds by slot — the service table's
    /// per-record answers, its view entries and the shadow records —
    /// against `BTreeMap` models and `ScheduleView`, after every step of
    /// random accept, reclaim, retire, prune, deschedule, view apply, view
    /// retire, reset, shadow-insert and pass sequences over three slots. An
    /// instance keeps the slot it was inserted at, as on the ring; ten
    /// instances share the three, and primary, mirror and coded records
    /// of one instance share its slot. Every answer is checked: `serves`,
    /// `progress`, `carries_instance`, the deschedule cursor's
    /// victims in token order, the retired log, the information held, every
    /// view verdict, each slot's believed primary, the view's entries as a
    /// multiset and those not yet served, and the shadows the re-drives
    /// read, in `(slot, instance)` order, at whatever instants the passes
    /// ran.
    #[test]
    fn slot_tables_match_the_btreemap_model() {
        check("slot_tables_match_the_btreemap_model", |rng| {
            let (hold, retention) = (SimDuration::from_secs(1), SimDuration::from_secs(2));
            let mut table = ServiceTable::default();
            let mut shadows = ForwardMachine::default();
            let mut ring = RingMachine::new(CubId(0), 2);
            let mut services: BTreeMap<ServiceToken, ViewerState> = BTreeMap::new();
            let mut retired: Vec<(SimTime, ViewerState)> = Vec::new();
            let mut held: BTreeMap<(SlotId, ViewerInstance), (ViewerState, SimTime)> =
                BTreeMap::new();
            // The view: the table's entries and, as the cub's forward
            // machine keeps them, held deschedules, against the view that
            // kept both.
            let mut holds = tiger_sched::HeldDeschedules::default();
            let mut view = tiger_sched::ScheduleView::new();
            let mut now = SimTime::ZERO;
            let instance = |viewer: u64, incarnation: u32| ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation,
            };
            let record = |rng: &mut SimRng| {
                let (viewer, incarnation) = (rng.gen_range(0u64..5), rng.gen_range(0u32..2));
                let slot = SlotId((viewer as u32 + 2 * incarnation) % 3);
                ViewerState {
                    instance: instance(viewer, incarnation),
                    slot,
                    ..arb_state(rng)
                }
            };
            for _ in 0..rng.gen_range(1usize..200) {
                now += SimDuration::from_millis(rng.gen_range(0u64..3) * 250);
                match rng.gen_range(0u32..16) {
                    0..=2 => {
                        // Acceptance: the duplicate test, then insert.
                        let vs = record(rng);
                        let dup = services
                            .values()
                            .any(|a| service_key(a) == service_key(&vs));
                        assert_eq!(table.serves(&vs), dup, "serves({vs:?})");
                        if !dup {
                            services.insert(table.insert(active(vs)), vs);
                        }
                    }
                    3 | 4 if !services.is_empty() => {
                        // Reclaim: a served primary enters the retired log.
                        let pick = rng.gen_range(0..services.len());
                        let token = *services.keys().nth(pick).expect("in range");
                        let vs = services.remove(&token).expect("listed");
                        assert_eq!(table.remove(token).map(|e| e.vs), Some(vs));
                        if vs.kind == StreamKind::Primary && rng.gen_bool(0.8) {
                            table.retire(now, primary(&vs));
                            retired.push((now, vs));
                        }
                    }
                    5 => {
                        // A deschedule: its victims, reclaimed under the
                        // cursor now and then, and its shadow.
                        let d = Deschedule::of(&record(rng));
                        let want: Vec<_> = services
                            .iter()
                            .filter(|(_, vs)| d.matches(vs))
                            .map(|(&token, _)| token)
                            .collect();
                        let (mut got, mut from) = (Vec::new(), 0);
                        while let Some((token, _)) = table.next_match(&d, from) {
                            from = token + 1;
                            got.push(token);
                            if rng.gen_bool(0.5) {
                                table.remove(token);
                                services.remove(&token);
                            }
                        }
                        assert_eq!(got, want, "victims of {d:?}");
                        held.remove(&(d.slot, d.instance));
                        let until = now + SimDuration::from_millis(rng.gen_range(0u64..8) * 250);
                        shadows.on_deschedule(d, now, until);
                        holds.hold(d, now, until);
                        table.view_deschedule(&d);
                        view.apply_deschedule(d, now, until);
                    }
                    6..=8 => {
                        // A redundancy copy, due up to two seconds out.
                        let vs = ViewerState {
                            kind: StreamKind::Primary,
                            ..record(rng)
                        };
                        let due = now + SimDuration::from_millis(rng.gen_range(0u64..8) * 250);
                        let fresh = Progress::default();
                        shadows.on_primary(&mut ring, now, vs, Some(CubId(1)), fresh, || due);
                        let entry = held.entry((vs.slot, vs.instance)).or_insert((vs, due));
                        if vs.play_seq >= entry.0.play_seq {
                            *entry = (vs, due);
                        }
                    }
                    9 | 10 => {
                        // A forward pass.
                        shadows.on_pass(now, hold, retention, |_| {});
                        held.retain(|_, &mut (_, due)| due >= now.saturating_sub(hold));
                        table.prune_retired(now, retention);
                        retired.retain(|&(at, _)| at >= now.saturating_sub(retention));
                    }
                    12 | 13 => {
                        // A record into the view: every verdict.
                        let vs = record(rng);
                        let got = match holds.blocks(&vs, now) {
                            true => ViewApply::Blocked,
                            false => table.view_apply(&vs),
                        };
                        assert_eq!(got, view.apply_viewer_state(vs, now), "apply {vs:?}");
                    }
                    14 => {
                        // A send retires its entry; now and then the entry
                        // has moved on a lap, or was never there.
                        let entries: Vec<_> = view.iter().map(|(_, e)| *e).collect();
                        let vs = match entries.len() {
                            n if n > 0 && rng.gen_bool(0.8) => entries[rng.gen_range(0..n)],
                            _ => record(rng),
                        };
                        table.view_retire(&vs);
                        view.retire(vs.slot, &vs);
                    }
                    _ => match rng.gen_range(0u32..8) {
                        0 => {
                            table.clear();
                            services.clear();
                        }
                        1 => {
                            table.clear_retired();
                            retired.clear();
                        }
                        2 => {
                            shadows.reset(false);
                            held.clear();
                        }
                        3 => {
                            table.clear_view();
                            holds = tiger_sched::HeldDeschedules::default();
                            view = tiger_sched::ScheduleView::new();
                        }
                        _ => {}
                    },
                }
                assert_eq!(table.retired().collect::<Vec<_>>(), retired);
                let information = services.len() + retired.len() + view.len();
                assert_eq!(table.information_held(), information);
                for viewer in 0..5 {
                    for incarnation in 0..2 {
                        let i = instance(viewer, incarnation);
                        let carried = services.values().any(|vs| vs.instance == i)
                            || retired.iter().any(|(_, vs)| vs.instance == i)
                            || view.holds_instance(&i);
                        assert_eq!(table.carries_instance(&i), carried, "carries {i:?}");
                    }
                }
                for slot in (0..3).map(SlotId) {
                    let primary = view.primary_entry(slot).map(|e| e.instance);
                    assert_eq!(table.view_primary(slot), primary, "{slot:?}'s primary");
                }
                // The view's entries as a multiset, and those not yet
                // served by slot, as `TigerSystem::check_view_lead` reads them.
                let sorted = |mut v: Vec<(SlotId, ViewerInstance, StreamKind, u32)>| {
                    v.sort_by_key(|&(slot, i, kind, seq)| (slot, i, seq, format!("{kind:?}")));
                    v
                };
                let listed = table.carried.iter().flat_map(|(slot, r)| {
                    r.entries()
                        .map(move |&(kind, seq)| (SlotId(slot), r.instance, kind, seq))
                });
                let want = view
                    .iter()
                    .map(|(slot, e)| (slot, e.instance, e.kind, e.play_seq));
                let want = sorted(want.collect());
                assert_eq!(sorted(listed.collect()), want, "the view's entries");
                let progress = |i: ViewerInstance| {
                    let of = |vs: &&ViewerState| vs.instance == i;
                    let serving = services.values().filter(of);
                    let counted = serving.filter(|vs| vs.kind == StreamKind::Primary);
                    Progress {
                        retired: retired
                            .iter()
                            .map(|(_, vs)| vs)
                            .filter(of)
                            .map(|vs| vs.play_seq)
                            .max(),
                        serving: counted.map(|vs| vs.play_seq).max(),
                    }
                };
                let served = |i: ViewerInstance, seq| {
                    let held = progress(i);
                    [held.retired, held.serving]
                        .iter()
                        .any(|s| s.is_some_and(|s| s >= seq))
                };
                let want = want
                    .iter()
                    .filter(|e| !served(e.1, e.3))
                    .map(|e| (e.0, e.1));
                let mut unserved: Vec<_> = table.unserved_view_entries().collect();
                assert!(unserved.is_sorted_by_key(|e| e.0), "by slot");
                unserved.sort();
                assert_eq!(
                    unserved,
                    want.collect::<Vec<_>>(),
                    "the entries not yet served"
                );
                for _ in 0..4 {
                    let probe = record(rng);
                    let held = table.progress(probe.slot, probe.instance);
                    assert_eq!(held, progress(probe.instance), "{probe:?}");
                    let dup = services
                        .values()
                        .any(|a| service_key(a) == service_key(&probe));
                    assert_eq!(table.serves(&probe), dup);
                }
                // The shadows, as the three re-drives read them: the
                // hand-back grant only those still due, the takeover and
                // the re-send to a rejoiner every one.
                let listed: Vec<_> = shadows.shadows().map(|s| (s.vs, s.due)).collect();
                let want: Vec<_> = held.values().copied().collect();
                assert_eq!(listed, want, "the shadows, by slot and instance");
                let fresh = shadows.shadows().filter(|s| s.due > now).map(|s| s.vs);
                let want_fresh = held
                    .values()
                    .filter(|(_, due)| *due > now)
                    .map(|(vs, _)| *vs);
                assert!(fresh.eq(want_fresh), "the shadows still due");
                assert_eq!(shadows.shadows().count(), held.len());
                assert_eq!(shadows.shadows_held(), held.len());
            }
        });
    }
}
