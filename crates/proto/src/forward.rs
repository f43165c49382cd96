//! §4.1.1–§4.1.2 in one machine ([`ForwardMachine`]): a received primary
//! record ends its stream, is a stale duplicate, is served, is covered for
//! a dead owner, or is shadowed as the second successor's copy, tried in
//! that order and answered with one [`Verdict`]. Its four memories: the
//! shadows, the blocks covered, the instances reported finished and the
//! deschedules held. A shadow is kept as a [`PrimaryRecord`] beside its
//! due time, rebuilt into a [`ViewerState`] when read. The §2.3 functions
//! of the retired log follow, and then [`ForwardDriver`], the sequence
//! around the machine written once: the DES cub (`tiger_core::Cub`) and
//! the crash-path search implement its hooks (where a block lies, how far
//! the cub served its stream as [`Progress`], the admission, which asks
//! [`ForwardMachine::blocks`] first, and a deschedule's kill), and its
//! provided methods turn each verdict into admission, the cover drive,
//! sends and trace records.

use std::collections::HashSet;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, FileId};
use tiger_sched::{Deschedule, HeldDeschedules, PrimaryRecord, SlotId, ViewerState};
use tiger_sim::{DenseLists, DetHashMap, SimDuration, SimTime, Tagged};
use tiger_trace::TraceEvent;

use crate::msg::Message;
use crate::ring::{RingDriver, RingMachine};

/// What a cub does with a received primary record, in the order
/// [`ForwardMachine::on_primary`] decides it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Past the end of the file: the viewer leaves the schedule (§4.1.2).
    /// `first` when the controller has not yet been told.
    Eof { first: bool },
    /// This cub already served this block or a later one of the stream:
    /// a wrapped, re-driven or double-forwarded stale copy. Accepting it
    /// would put a second, lagging copy of the stream into circulation.
    Duplicate,
    /// The block is on this cub's disks.
    Serve,
    /// The block is on a cub this one covers: drive its redundant copies
    /// (`first` when not yet driven) and carry the record one block on.
    Cover { first: bool },
    /// The block is on another living cub: held as a shadow. `relay` when
    /// an open hand-back window sends it on to that cub, a rejoiner, while
    /// its own lead pipeline warms up (receipt idempotence makes the extra
    /// copy safe).
    Shadow { relay: bool },
}

/// How far a cub served one stream: the facts a duplicate is decided from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// The highest `play_seq` this cub retired (sent or missed).
    pub retired: Option<u32>,
    /// The highest `play_seq` it is serving, of the kinds the driver counts.
    pub serving: Option<u32>,
}

/// §4.1.2's idempotent receipt: whether a record of `play_seq` is stale. A
/// cub `covering` the record's owner asks only what it retired: it may serve
/// the dead cub's next block already, and must still cover this one.
fn duplicate(play_seq: u32, progress: Progress, covering: bool) -> bool {
    let reached = |seq: Option<u32>| seq.is_some_and(|s| s >= play_seq);
    reached(progress.retired) || !covering && reached(progress.serving)
}

/// One cub's side of §4.1.1 and §4.1.2. The shadows are kept at most one
/// per slot and instance, each slot's by instance. A shadow expires once
/// its due time falls behind the last forward pass's horizon: every reader
/// passes over it and an insert overwrites it, so expired shadows are
/// dropped for good only once a hold, and a pass costs nothing per record.
#[derive(Clone, Debug, Default)]
pub struct ForwardMachine {
    shadows: DenseLists<Held>,
    /// The last pass's horizon: shadows due before it have expired.
    horizon: SimTime,
    /// When a pass next drops the expired shadows.
    sweep_at: SimTime,
    /// Blocks covered, by due time: `(slot, instance, position)`.
    covered: DetHashMap<(SlotId, ViewerInstance, u32), SimTime>,
    /// Instances reported finished, and when.
    finished: DetHashMap<ViewerInstance, SimTime>,
    /// The deschedules held against late records (§4.1.2).
    held: HeldDeschedules,
}

impl ForwardMachine {
    /// Input: a received primary record, never another kind (a shadow
    /// keeps a [`PrimaryRecord`]). `owner` is the cub whose disks hold its
    /// block (`None` past the end of the file), `progress` how far this cub has
    /// served the stream, and `due` the block's due time, asked only when
    /// the verdict keeps a memory.
    pub fn on_primary(
        &mut self,
        ring: &mut RingMachine,
        now: SimTime,
        vs: ViewerState,
        owner: Option<CubId>,
        progress: Progress,
        due: impl FnOnce() -> SimTime,
    ) -> Verdict {
        let Some(owner) = owner else {
            let first = self.finish(now, vs.instance);
            return Verdict::Eof { first };
        };
        if duplicate(vs.play_seq, progress, ring.covers(owner)) {
            return Verdict::Duplicate;
        }
        if owner == ring.id() {
            return Verdict::Serve;
        }
        if ring.covers(owner) {
            let key = (vs.slot, vs.instance, vs.position.raw());
            let first =
                !self.covered.contains_key(&key) && self.covered.insert(key, due()).is_none();
            return Verdict::Cover { first };
        }
        self.shadow(vs, due());
        let relay = ring.handback_relay(owner, now);
        Verdict::Shadow { relay }
    }

    /// Input: `instance` played to its end. Whether the controller has
    /// not been told yet.
    pub fn finish(&mut self, now: SimTime, instance: ViewerInstance) -> bool {
        !self.finished.contains_key(&instance) && self.finished.insert(instance, now).is_none()
    }

    /// Timer input: a forward pass at `now`. Shadows due more than `hold`
    /// ago expire; covered blocks and notices older than `retention` are
    /// forgotten. Whatever re-delivers a record (double forwarding, the gap
    /// re-drive, a shadow takeover) does so within the retention. Holds
    /// lapsed by `now` go to `lapsed`, in first-application order.
    pub fn on_pass(
        &mut self,
        now: SimTime,
        hold: SimDuration,
        retention: SimDuration,
        lapsed: impl FnMut(Deschedule),
    ) {
        let horizon = now.saturating_sub(hold);
        self.horizon = horizon;
        if now >= self.sweep_at {
            self.shadows.retain_all(|s| s.due >= horizon);
            self.sweep_at = now + hold;
        }
        let horizon = now.saturating_sub(retention);
        self.covered.retain(|_, due| *due >= horizon);
        self.finished.retain(|_, sent| *sent >= horizon);
        self.held.gc_report(now, lapsed);
    }

    /// Input: a deschedule is held to `hold_until` (or a later expiry) and
    /// drops its shadow. Whether it is a first sighting, which is forwarded.
    pub fn on_deschedule(&mut self, d: Deschedule, now: SimTime, hold_until: SimTime) -> bool {
        let first = !self.held.holds(&d);
        self.held.hold(d, now, hold_until);
        self.drop_shadow(d.slot, d.instance);
        first
    }

    /// Whether a deschedule held at `now` blocks `vs`, asked before any
    /// record is admitted.
    pub fn blocks(&mut self, vs: &ViewerState, now: SimTime) -> bool {
        self.held.blocks(vs, now)
    }

    /// Input: a declare. The shadows on cubs this one now covers leave the
    /// table, in order, to be re-driven through
    /// [`ForwardMachine::on_primary`]: when the dead cub was itself
    /// covering, the records it advanced died with it (§4.1.1's argument
    /// for forwarding twice). The re-drive passes each record on from a
    /// covered cub to the next until it reaches this cub, so it shadows
    /// nothing. Second, for each shadow on a living cub inside its rejoin
    /// horizon (the dead cub may have been its covering partner), the
    /// first position reachable past the shadow's due time, and its owner.
    pub fn on_declare(
        &mut self,
        ring: &RingMachine,
        now: SimTime,
        block_play_time: SimDuration,
        locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
    ) -> (Vec<ViewerState>, Vec<(ViewerState, CubId)>) {
        let owner = |s: &Shadow| locate(s.vs.file, s.vs.position);
        let covered = |s: &Shadow| owner(s).is_some_and(|c| ring.covers(c));
        let taken: Vec<_> = self.shadows().filter(covered).map(|s| s.vs).collect();
        for vs in &taken {
            self.drop_shadow(vs.slot, vs.instance);
        }
        let rejoined =
            |c: CubId| c != ring.id() && !ring.believes_failed(c) && ring.recently_rejoined(c, now);
        let owed = self.shadows().filter(|s| owner(s).is_some_and(rejoined));
        let resends = owed.filter_map(|s| {
            let behind = now.saturating_since(s.due);
            let k = match behind {
                SimDuration::ZERO => 0,
                _ => (behind.as_nanos() / block_play_time.as_nanos()) as u32 + 1,
            };
            first_reachable(s.vs, k, ring, &locate)
        });
        (taken, resends.collect())
    }

    /// Input: a power cut, restart or cut-over forgets the shadows, covered
    /// blocks and holds, and a cut-over (`forget_finished`) the notices too.
    pub fn reset(&mut self, forget_finished: bool) {
        self.shadows.clear();
        self.covered.clear();
        self.held = HeldDeschedules::default();
        if forget_finished {
            self.finished.clear();
        }
    }

    /// The shadows held, by slot and then instance.
    pub fn shadows(&self) -> impl Iterator<Item = Shadow> + '_ {
        let held = self.shadows.iter().filter(|(_, s)| s.due >= self.horizon);
        held.map(|(_, s)| Shadow {
            vs: s.record.vs(),
            due: s.due,
        })
    }

    /// How many shadows are held: [`ForwardMachine::shadows`]'s count,
    /// read from the due times alone.
    pub fn shadows_held(&self) -> usize {
        let held = self.shadows.values();
        held.filter(|s| s.due >= self.horizon).count()
    }

    /// How many instances this cub remembers reporting finished.
    pub fn finished_held(&self) -> usize {
        self.finished.len()
    }

    /// Holds `vs`, due at `due` (no earlier than the last pass), unless a
    /// later record of its stream is already held.
    fn shadow(&mut self, vs: ViewerState, due: SimTime) {
        let (slot, horizon) = (vs.slot.raw(), self.horizon);
        debug_assert!(due >= horizon, "a record due before the last pass");
        let record = PrimaryRecord::new(&vs).expect("on_primary takes primary records");
        let held = self.shadows.get_mut(slot);
        let at = held.partition_point(|s| s.record.instance() < vs.instance);
        match held.get_mut(at) {
            Some(s) if s.record.instance() == vs.instance => {
                if s.due < horizon || vs.play_seq >= s.record.play_seq() {
                    *s = Held { record, due };
                }
            }
            _ => self.shadows.insert(slot, at, Held { record, due }),
        }
    }

    fn drop_shadow(&mut self, slot: SlotId, instance: ViewerInstance) {
        self.shadows
            .retain(slot.raw(), |s| s.record.instance() != instance);
    }
}

/// A shadow as [`ForwardMachine`] keeps it.
#[derive(Clone, Copy, Debug)]
struct Held {
    record: PrimaryRecord,
    due: SimTime,
}

const _: () = assert!(std::mem::size_of::<Held>() == 48);

impl Tagged for Held {
    fn tag(&self) -> u32 {
        self.record.instance().tag()
    }
}

/// A shadow: a record held for redundancy (a second successor's copy),
/// and when its block is due.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shadow {
    /// The record.
    pub vs: ViewerState,
    /// When its block is due.
    pub due: SimTime,
}

/// The batch a ring predecessor replays to a rejoining cub from its
/// retired log (oldest first): each viewer's latest sighting, skipped to
/// the first position past `now + clear_horizon` and then past owners
/// believed failed ([`first_reachable`]), kept if that position is the
/// rejoiner's. `clear_horizon` is the mirror-commitment frontier: the
/// acting successor took over each of the rejoiner's positions up to a
/// lead before it came due, and a replayed record inside that frontier
/// would have the rejoiner serve a block the mirrors also serve. Receipt
/// is idempotent, so the filter only bounds the message size.
pub fn replay_batch(
    retired: impl IntoIterator<Item = (SimTime, ViewerState), IntoIter: DoubleEndedIterator>,
    now: SimTime,
    block_play_time: SimDuration,
    clear_horizon: SimDuration,
    ring: &RingMachine,
    locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
    rejoiner: CubId,
) -> Vec<ViewerState> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    // Latest sighting per viewer wins: walk newest-first, emit the first
    // entry seen for each (slot, instance), then restore service order.
    for (at, vs) in retired.into_iter().rev() {
        if !seen.insert((vs.slot, vs.instance)) {
            continue;
        }
        // The entry's block was serviced around `at`; the stream has
        // since advanced one position per block play time. The first
        // claimable position is the one past the commitment frontier.
        let behind = now.saturating_since(at) + clear_horizon;
        let k = (behind.as_nanos() / block_play_time.as_nanos()) as u32 + 1;
        match first_reachable(vs, k, ring, &locate) {
            Some((cand, owner)) if owner == rejoiner => out.push(cand),
            _ => {}
        }
    }
    out.reverse();
    out
}

/// The §2.3 gap bridge at a declare ("the preceding living cub will send
/// scheduling information to the succeeding living cub"): each retired
/// record whose next position lies in a dead span right after this cub,
/// advanced to it, with each cub it goes to, the span's successor pair
/// short of this cub. Receipt is idempotent, so extra copies are safe.
pub fn gap_bridge(
    retired: impl IntoIterator<Item = ViewerState>,
    ring: &RingMachine,
    locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
) -> Vec<(ViewerState, CubId)> {
    let (me, mut out) = (ring.id(), Vec::new());
    for next in retired.into_iter().map(|vs| vs.advanced(1)) {
        let dead = locate(next.file, next.position).filter(|&c| ring.believes_failed(c));
        if let Some(dead) = dead.filter(|&c| ring.prev_living(c) == Some(me)) {
            let pair = ring.successor_pair(dead).take_while(|&dst| dst != me);
            out.extend(pair.map(|dst| (next, dst)));
        }
    }
    out
}

/// Whether a forwarded record went into a dead span (its next position's
/// owner is believed failed), to be forwarded again past it.
pub fn into_gap(
    vs: &ViewerState,
    ring: &RingMachine,
    locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
) -> bool {
    let next = vs.advanced(1);
    locate(next.file, next.position).is_some_and(|c| ring.believes_failed(c))
}

/// The §2.3 gap bridge's skip-to-reachable search: `vs` advanced `k`
/// positions, then on past each position whose owner is believed failed
/// (its block is lost), for at most one lap. Yields the record at the
/// first living owner's position, with that owner; `None` past end-of-file.
pub fn first_reachable(
    vs: ViewerState,
    k: u32,
    ring: &RingMachine,
    locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
) -> Option<(ViewerState, CubId)> {
    for k in k..k + ring.num_cubs() {
        let cand = vs.advanced(k);
        let owner = locate(cand.file, cand.position)?;
        if !ring.believes_failed(owner) {
            return Some((cand, owner));
        }
    }
    None
}

/// A driver of one cub's [`ForwardMachine`]: §4.1's sequence around it
/// (a record's verdict, the forward pass, a deschedule, the gap bridge and
/// the shadow re-drive), sending and recording through its [`RingDriver`].
/// The hooks run at the driver's own instant, given to the provided
/// methods as `now`; the order those call the hooks in, pinned by this
/// module's tests, is what keeps the drivers bit-exact.
pub trait ForwardDriver: RingDriver {
    /// Where a block lies, as [`ForwardDriver::locate`] found it: kept for
    /// the block's admission and due time, so no record is located twice.
    type Place;
    /// What blocks are located in and dated by.
    type Layout;

    /// This cub's forward and ring machines, and the layout.
    fn machines(&mut self) -> (&mut ForwardMachine, &mut RingMachine, &Self::Layout);
    /// The cub whose disks hold block `pos` of `file` (`None` past the end
    /// of the file), and where; `None` for a file the layout lacks.
    fn locate(
        layout: &Self::Layout,
        file: FileId,
        pos: BlockNum,
    ) -> Option<(Option<CubId>, Self::Place)>;
    /// When `vs`'s block, at `place`, is next due at or after `now`.
    fn due(layout: &Self::Layout, now: SimTime, vs: &ViewerState, place: &Self::Place) -> SimTime;
    /// How far this cub served `vs`'s stream.
    fn progress(&self, vs: &ViewerState) -> Progress;
    /// How many successors a record goes to: two under double forwarding.
    fn hops(&self) -> usize;
    /// Admits `vs`, whose block is at `place` on this cub's disks.
    fn serve(&mut self, vs: ViewerState, place: Self::Place);
    /// Drives the redundant copies of `vs`'s block, on a cub it covers.
    fn cover(&mut self, vs: ViewerState, place: Self::Place);
    /// Kills what this cub would still do of `d`'s instance: blocks killed.
    fn kill(&mut self, d: &Deschedule) -> u32;
    /// Marks for the next pass each record already forwarded that `gap`,
    /// given this cub's ring machine and the layout, finds in a dead span.
    fn reforward(&mut self, gap: impl Fn(&ViewerState, &RingMachine, &Self::Layout) -> bool);
    /// The records this cub retired, oldest first.
    fn retired(&self) -> impl Iterator<Item = ViewerState>;

    /// The cub whose disks hold `position` of `file`, if it lies in it.
    fn owner(layout: &Self::Layout, file: FileId, position: BlockNum) -> Option<CubId> {
        Self::locate(layout, file, position).and_then(|(owner, _)| owner)
    }

    /// A received primary record's [`Verdict`]: the controller's
    /// end-of-file notice, a duplicate's record, service, a cover (the
    /// redundant copies on a first, then the record carried one block on,
    /// to the next disk's cub) or a shadow's record and hand-back relay.
    fn on_record(&mut self, now: SimTime, vs: ViewerState) {
        let Some((owner, place)) = Self::locate(self.machines().2, vs.file, vs.position) else {
            return;
        };
        let progress = self.progress(&vs);
        let (fwd, ring, layout) = self.machines();
        let due = || Self::due(layout, now, &vs, &place);
        let verdict = fwd.on_primary(ring, now, vs, owner, progress, due);
        match verdict {
            Verdict::Eof { first: true } => {
                let instance = vs.instance;
                self.to_controller(Message::ViewerFinished { instance });
            }
            Verdict::Eof { .. } => {}
            Verdict::Duplicate => self.duplicate(&vs),
            Verdict::Serve => self.serve(vs, place),
            Verdict::Cover { first } => {
                if first {
                    self.cover(vs, place);
                }
                self.on_record(now, vs.advanced(1));
            }
            Verdict::Shadow { relay } => {
                let (slot, viewer, inc) = vs.trace_key();
                self.record(TraceEvent::VsShadow { slot, viewer, inc });
                if let Some(owner) = owner.filter(|_| relay) {
                    self.send(owner, Message::ViewerState(vs));
                }
            }
        }
    }

    /// Records the refusal of `vs`, a stale or double-forwarded copy.
    fn duplicate(&mut self, vs: &ViewerState) {
        let ((slot, viewer, inc), play_seq) = (vs.trace_key(), vs.play_seq);
        let duplicate = TraceEvent::VsDuplicate {
            slot,
            viewer,
            inc,
            play_seq,
        };
        self.record(duplicate);
    }

    /// A forward pass's sends: each instance in `finished` (played to its
    /// end) the controller has not been told of, then `batch`, the records
    /// whose lead has come due, to the successor pair.
    fn pass(&mut self, now: SimTime, finished: &[ViewerInstance], batch: &[ViewerState]) {
        for &instance in finished {
            if self.machines().0.finish(now, instance) {
                self.to_controller(Message::ViewerFinished { instance });
            }
        }
        if !batch.is_empty() {
            self.forward_pair(batch.len() as u32, Message::ViewerStates(batch.into()));
        }
    }

    /// Sends `msg`, carrying `count` records, to this cub's successor and,
    /// under double forwarding, its second successor, recording each hop.
    fn forward_pair(&mut self, count: u32, msg: Message) {
        let (hops, ring) = (self.hops(), self.ring());
        for (hop, dst) in ring.successor_pair(ring.id()).take(hops).enumerate() {
            let (dst, second) = (dst.raw(), hop == 1);
            self.record(TraceEvent::VsForward { dst, count, second });
            self.send(CubId(dst), msg.clone());
        }
    }

    /// A deschedule: held to `until` (§4.1.2), its victims killed, recorded,
    /// and on a first sighting with hops left forwarded to the successor
    /// pair at once (not batched: it must outrun the viewer states).
    fn on_deschedule(&mut self, now: SimTime, d: Deschedule, hops_left: u32, until: SimTime) {
        let first = self.machines().0.on_deschedule(d, now, until);
        let killed = self.kill(&d);
        let (slot, viewer, inc) = (
            d.slot.raw(),
            d.instance.viewer.raw(),
            d.instance.incarnation,
        );
        let applied = TraceEvent::DeschedApply {
            slot,
            viewer,
            inc,
            first,
            killed,
            hops_left,
        };
        self.record(applied);
        if first && hops_left > 0 {
            let (request, hops_left) = (d, hops_left - 1);
            let msg = Message::Deschedule { request, hops_left };
            let ring = self.ring();
            for dst in ring.successor_pair(ring.id()) {
                self.send(dst, msg.clone());
            }
        }
    }

    /// §2.3's gap bridge once a belief flipped: the records already
    /// forwarded into the dead span go again with the next pass
    /// ([`into_gap`]), then the retired records whose next hop lies in it
    /// are sent across ([`gap_bridge`]).
    fn bridge(&mut self) {
        self.reforward(|vs, ring, layout| into_gap(vs, ring, |f, p| Self::owner(layout, f, p)));
        let retired: Vec<ViewerState> = self.retired().collect();
        let (_, ring, layout) = self.machines();
        for (next, dst) in gap_bridge(retired, ring, |f, p| Self::owner(layout, f, p)) {
            self.send(dst, Message::ViewerState(next));
        }
    }

    /// The takeover's shadow half ([`ForwardMachine::on_declare`]): the
    /// shadows on cubs this one now covers are received again, then those
    /// owed a recent rejoiner are re-sent (received here if this cub's).
    fn re_drive(&mut self, now: SimTime, block_play_time: SimDuration) {
        let (fwd, ring, layout) = self.machines();
        let (me, locate) = (ring.id(), |f, p| Self::owner(layout, f, p));
        let (redrive, resends) = fwd.on_declare(ring, now, block_play_time, locate);
        for vs in redrive {
            self.on_record(now, vs);
        }
        for (vs, owner) in resends {
            if owner == me {
                self.on_record(now, vs);
            } else {
                self.send(owner, Message::ViewerState(vs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use tiger_sched::StreamKind;
    use tiger_sim::Bandwidth;

    fn vs(slot: u32, viewer: u64, position: u32) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: tiger_layout::ViewerId(viewer),
                incarnation: 0,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(position),
            slot: SlotId(slot),
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        }
    }

    /// A 4-cub ring that believes `failed` dead.
    fn ring(failed: &[u32]) -> RingMachine {
        let mut ring = RingMachine::new(CubId(0), 4);
        for &c in failed {
            ring.mark_believed_failed(CubId(c));
        }
        ring
    }

    /// 4-cub round-robin ownership over a 100-block file.
    fn owner(_file: FileId, pos: BlockNum) -> Option<CubId> {
        (pos.raw() < 100).then(|| CubId(pos.raw() % 4))
    }

    const NO_HORIZON: SimDuration = SimDuration::ZERO;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn a_deschedule_is_held_and_forwarded_on_its_first_sighting_only() {
        let mut fwd = ForwardMachine::default();
        let record = vs(3, 1, 5);
        // A record for cub 1's disks, shadowed here.
        fwd.on_primary(
            &mut ring(&[]),
            secs(0),
            record,
            Some(CubId(1)),
            Progress::default(),
            || secs(2),
        );
        assert_eq!(fwd.shadows().count(), 1);
        let d = Deschedule::of(&record);
        assert!(fwd.on_deschedule(d, secs(0), secs(4)), "a first sighting");
        assert_eq!(fwd.shadows().count(), 0, "the shadow goes with it");
        assert!(!fwd.on_deschedule(d, secs(1), secs(5)), "a repeat");
        // Another instance in the same slot is a deschedule of its own.
        assert!(fwd.on_deschedule(Deschedule::of(&vs(3, 2, 5)), secs(1), secs(5)));
    }

    #[test]
    fn a_hold_blocks_until_its_expiry_and_not_at_it() {
        let mut fwd = ForwardMachine::default();
        let (record, until) = (vs(0, 1, 5), secs(4));
        assert!(!fwd.blocks(&record, secs(0)));
        fwd.on_deschedule(Deschedule::of(&record), secs(0), until);
        assert!(fwd.blocks(&record, secs(0)));
        assert!(!fwd.blocks(&vs(1, 1, 5), secs(0)), "another slot");
        assert!(!fwd.blocks(&vs(0, 2, 5), secs(0)), "another instance");
        let just_before = until.saturating_sub(SimDuration::from_nanos(1));
        assert!(fwd.blocks(&record, just_before));
        assert!(!fwd.blocks(&record, until), "lapsed at its expiry");
        // Once lapsed and dropped, the next sighting is a first one.
        assert!(fwd.on_deschedule(Deschedule::of(&record), until, secs(8)));
    }

    #[test]
    fn a_pass_reports_lapsed_holds_in_first_application_order() {
        let mut fwd = ForwardMachine::default();
        let d = |viewer| Deschedule::of(&vs(0, viewer, 5));
        fwd.on_deschedule(d(1), secs(0), secs(6));
        fwd.on_deschedule(d(2), secs(0), secs(3));
        fwd.on_deschedule(d(3), secs(1), secs(5));
        // Re-applied: later expiry, first-application order kept.
        fwd.on_deschedule(d(2), secs(2), secs(4));
        let pass = |fwd: &mut ForwardMachine, now| {
            let mut lapsed = Vec::new();
            fwd.on_pass(now, SimDuration::from_secs(1), NO_HORIZON, |d| {
                lapsed.push(d)
            });
            lapsed
        };
        assert_eq!(pass(&mut fwd, secs(3)), []);
        assert_eq!(pass(&mut fwd, secs(6)), [d(1), d(2), d(3)]);
        assert_eq!(pass(&mut fwd, secs(7)), []);
    }

    #[test]
    fn a_reset_forgets_every_hold_and_a_fence_after_it_holds() {
        for forget_finished in [false, true] {
            let mut fwd = ForwardMachine::default();
            let (a, b) = (vs(0, 1, 5), vs(1, 2, 5));
            fwd.on_deschedule(Deschedule::of(&a), secs(0), secs(9));
            fwd.on_deschedule(Deschedule::of(&b), secs(0), secs(9));
            fwd.reset(forget_finished);
            assert!(!fwd.blocks(&a, secs(1)) && !fwd.blocks(&b, secs(1)));
            // A cut-over's fence, applied after its reset.
            assert!(fwd.on_deschedule(Deschedule::of(&a), secs(1), secs(3)));
            assert!(fwd.blocks(&a, secs(2)) && !fwd.blocks(&b, secs(2)));
            let mut lapsed = Vec::new();
            fwd.on_pass(secs(9), SimDuration::from_secs(1), NO_HORIZON, |d| {
                lapsed.push(d)
            });
            assert_eq!(lapsed, [Deschedule::of(&a)], "only the fence was held");
        }
    }

    /// §4.1.2's duplicate rule, by role and fact: a record of play_seq 5
    /// for a block this cub serves (on its own disks), covers (cub 3's,
    /// believed dead) or shadows (cub 1's), with either fact absent, below,
    /// at or above 5. A block at or past 5 makes it a duplicate, except
    /// that the covering cub asks only what it retired.
    #[test]
    fn the_duplicate_rule_by_role_and_fact() {
        let roles = [(0, "serve"), (3, "cover"), (1, "shadow")];
        for (owner, role) in roles {
            for seq in [None, Some(4), Some(5), Some(6)] {
                let retired = Progress {
                    retired: seq,
                    serving: None,
                };
                let serving = Progress {
                    retired: None,
                    serving: seq,
                };
                for (held, counts) in [(retired, true), (serving, role != "cover")] {
                    let record = ViewerState {
                        play_seq: 5,
                        ..vs(0, 1, 5)
                    };
                    let mut fwd = ForwardMachine::default();
                    let owner = Some(CubId(owner));
                    let v =
                        fwd.on_primary(&mut ring(&[3]), secs(0), record, owner, held, || secs(1));
                    let stale = counts && seq.is_some_and(|s| s >= 5);
                    assert_eq!(v == Verdict::Duplicate, stale, "{role}, {held:?}");
                }
            }
        }
    }

    /// Cub 0 of 4, whose dead span begins right after it: a record whose
    /// next block is cub 1's goes to cub 1's acting successor pair.
    #[test]
    fn the_gap_bridge_sends_a_dead_span_right_after_to_its_successor_pair() {
        let (retired, next) = (vs(0, 1, 4), vs(0, 1, 4).advanced(1));
        let sent = gap_bridge([retired], &ring(&[1]), owner);
        assert_eq!(sent, [(next, CubId(2)), (next, CubId(3))]);
        // A span of two: cub 3's successor would be this cub.
        let sent = gap_bridge([retired], &ring(&[1, 2]), owner);
        assert_eq!(sent, [(next, CubId(3))]);
    }

    #[test]
    fn the_gap_bridge_sends_nothing_for_a_span_elsewhere_or_on_two_cubs() {
        // Cub 2's dead span follows cub 1, not this cub.
        assert_eq!(gap_bridge([vs(0, 1, 5)], &ring(&[2]), owner), []);
        // Nothing dead, and past the end of the file.
        assert_eq!(
            gap_bridge([vs(0, 1, 4), vs(0, 1, 99)], &ring(&[]), owner),
            []
        );
        // On two cubs the dead one's successor is this cub.
        let mut two = RingMachine::new(CubId(0), 2);
        two.mark_believed_failed(CubId(1));
        let halves = |_: FileId, pos: BlockNum| Some(CubId(pos.raw() % 2));
        assert_eq!(gap_bridge([vs(0, 1, 4)], &two, halves), []);
    }

    #[test]
    fn a_record_forwarded_to_a_believed_failed_owner_went_into_the_gap() {
        let forwarded = vs(0, 1, 4);
        assert!(into_gap(&forwarded, &ring(&[1]), owner));
        assert!(!into_gap(&forwarded, &ring(&[]), owner));
        assert!(
            !into_gap(&forwarded, &ring(&[2]), owner),
            "a later block's owner"
        );
        assert!(
            !into_gap(&vs(0, 1, 99), &ring(&[0, 1, 2, 3]), owner),
            "past the end"
        );
    }

    #[test]
    fn keeps_only_rejoiner_owned_candidates_advanced_past_now() {
        let bpt = SimDuration::from_secs(1);
        // Serviced at t=10s, position 5 (owner 1). At t=12.5s the stream
        // is 2.5s along: k = 2 + 1 = 3 → position 8, owner 0.
        let retired = [(SimTime::from_secs(10), vs(0, 1, 5))];
        let now = SimTime::from_millis(12_500);
        let batch = replay_batch(retired, now, bpt, NO_HORIZON, &ring(&[]), owner, CubId(0));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(8));
        // The same entry aimed at a different rejoiner produces nothing:
        // position 8 is not cub 1's.
        let other = replay_batch(retired, now, bpt, NO_HORIZON, &ring(&[]), owner, CubId(1));
        assert!(other.is_empty());
    }

    #[test]
    fn skips_believed_failed_owners_to_the_next_living_position() {
        let bpt = SimDuration::from_secs(1);
        let retired = [(SimTime::from_secs(10), vs(0, 1, 5))];
        let now = SimTime::from_millis(12_500);
        // Position 8's owner (cub 0) is believed failed; the bridge skips
        // to position 9 (owner 1).
        let batch = replay_batch(retired, now, bpt, NO_HORIZON, &ring(&[0]), owner, CubId(1));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(9));
    }

    #[test]
    fn latest_sighting_per_viewer_wins_and_eof_entries_drop() {
        let bpt = SimDuration::from_secs(1);
        let retired = [
            (SimTime::from_secs(8), vs(0, 1, 3)),
            (SimTime::from_secs(10), vs(0, 1, 5)), // newer sighting of viewer 1
            (SimTime::from_secs(10), vs(1, 2, 98)), // advances past EOF (100)
        ];
        let now = SimTime::from_millis(12_500);
        let batch = replay_batch(retired, now, bpt, NO_HORIZON, &ring(&[]), owner, CubId(0));
        // Viewer 1 contributes exactly one record, from its newer entry;
        // viewer 2's candidate (98 + 3 = 101) is past end-of-file.
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(8));
    }

    /// SplitMix64 — a hand-rolled generator so the property test needs
    /// no external dependency and stays deterministic per seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn retention_prunes_exactly_under_random_interleavings() {
        // Property: under any interleaving of services (appends) and
        // prune passes, the replay batch built from the log pruned to the
        // retention window matches the full history's batch for every
        // viewer sighted inside the window (pruning is invisible to a
        // rejoin that happens within detection time).
        let retention = SimDuration::from_secs(5);
        let bpt = SimDuration::from_secs(1);
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut pruned: VecDeque<(SimTime, ViewerState)> = VecDeque::new();
            let mut full: Vec<(SimTime, ViewerState)> = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                now += SimDuration::from_millis(rng.below(700));
                if rng.below(4) < 3 {
                    // Service: viewers advance one position per block
                    // play time, so the sighting's position tracks time.
                    let viewer = rng.below(6);
                    let pos = (now.as_nanos() / bpt.as_nanos()) as u32 % 60;
                    let entry = (now, vs(viewer as u32, viewer, pos));
                    pruned.push_back(entry);
                    full.push(entry);
                } else {
                    let horizon = now.saturating_sub(retention);
                    pruned.retain(|&(at, _)| at >= horizon);
                }
                let sighted: HashSet<u64> =
                    pruned.iter().map(|(_, v)| v.instance.viewer.0).collect();
                for rejoiner in 0..4 {
                    let got = replay_batch(
                        pruned.iter().copied(),
                        now,
                        bpt,
                        NO_HORIZON,
                        &ring(&[]),
                        owner,
                        CubId(rejoiner),
                    );
                    let want: Vec<_> = replay_batch(
                        full.iter().copied(),
                        now,
                        bpt,
                        NO_HORIZON,
                        &ring(&[]),
                        owner,
                        CubId(rejoiner),
                    )
                    .into_iter()
                    .filter(|v| sighted.contains(&v.instance.viewer.0))
                    .collect();
                    assert_eq!(got, want, "seed {seed}: pruning changed the replay batch");
                }
            }
        }
    }

    #[test]
    fn clear_horizon_skips_mirror_committed_positions() {
        let bpt = SimDuration::from_secs(1);
        // Same entry as the first test, but with a 1.5s commitment
        // frontier: positions 8 and 9 (due 13s, 14s ≤ now + horizon)
        // may already be mirror-committed, so the first claimable
        // position is 10 — not cub 0's, so cub 0 gets nothing...
        let retired = [(SimTime::from_secs(10), vs(0, 1, 5))];
        let now = SimTime::from_millis(12_500);
        let horizon = SimDuration::from_millis(1_500);
        let batch = replay_batch(retired, now, bpt, horizon, &ring(&[]), owner, CubId(0));
        assert!(batch.is_empty());
        // ...and cub 2 (position 10's owner) gets the claim instead.
        let batch = replay_batch(retired, now, bpt, horizon, &ring(&[]), owner, CubId(2));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(10));
    }

    /// A driver that logs every hook call in one list, in call order: cub
    /// 0 of four, whose blocks lie round-robin (`owner`), each due at its
    /// position in seconds.
    struct Log {
        fwd: ForwardMachine,
        ring: RingMachine,
        hops: usize,
        /// What `progress` answers, and the records `reforward` and
        /// `retired` hold.
        progress: Progress,
        forwarded: Vec<ViewerState>,
        retired: Vec<ViewerState>,
        calls: Vec<String>,
    }

    impl Log {
        /// Cub 0 under double forwarding, believing `failed` dead.
        fn new(failed: &[u32]) -> Self {
            Log {
                fwd: ForwardMachine::default(),
                ring: ring(failed),
                hops: 2,
                progress: Progress::default(),
                forwarded: Vec::new(),
                retired: Vec::new(),
                calls: Vec::new(),
            }
        }

        /// The calls logged since the last take.
        fn take(&mut self) -> Vec<String> {
            std::mem::take(&mut self.calls)
        }
    }

    impl RingDriver for Log {
        fn ring(&mut self) -> &mut RingMachine {
            &mut self.ring
        }
        fn send(&mut self, to: CubId, msg: Message) {
            let line = crate::wire::encode(&msg);
            self.calls.push(format!("send c{} {line}", to.raw()));
        }
        fn record(&mut self, event: TraceEvent) {
            let fields = event.fields().into_iter().map(|(k, v)| format!(" {k}={v}"));
            let line = format!("record {}{}", event.name(), fields.collect::<String>());
            self.calls.push(line);
        }
        fn fence(&mut self) {
            unreachable!("no notice reaches the log")
        }
        fn replay(&mut self, _to: CubId) {}
        fn to_controller(&mut self, msg: Message) {
            let line = crate::wire::encode(&msg);
            self.calls.push(format!("controller {line}"));
        }
    }

    impl ForwardDriver for Log {
        type Place = BlockNum;
        type Layout = ();

        fn machines(&mut self) -> (&mut ForwardMachine, &mut RingMachine, &()) {
            (&mut self.fwd, &mut self.ring, &())
        }
        fn locate(_: &(), file: FileId, pos: BlockNum) -> Option<(Option<CubId>, BlockNum)> {
            Some((owner(file, pos), pos))
        }
        fn due(_: &(), _: SimTime, _: &ViewerState, pos: &BlockNum) -> SimTime {
            secs(u64::from(pos.raw()))
        }
        fn progress(&self, _: &ViewerState) -> Progress {
            self.progress
        }
        fn hops(&self) -> usize {
            self.hops
        }
        fn serve(&mut self, vs: ViewerState, pos: BlockNum) {
            let slot = vs.slot.raw();
            self.calls
                .push(format!("serve slot={slot} at={}", pos.raw()));
        }
        fn cover(&mut self, vs: ViewerState, pos: BlockNum) {
            let slot = vs.slot.raw();
            self.calls
                .push(format!("cover slot={slot} at={}", pos.raw()));
        }
        fn kill(&mut self, d: &Deschedule) -> u32 {
            self.calls.push(format!("kill slot={}", d.slot.raw()));
            2
        }
        fn reforward(&mut self, gap: impl Fn(&ViewerState, &RingMachine, &()) -> bool) {
            for vs in self.forwarded.iter().filter(|vs| gap(vs, &self.ring, &())) {
                self.calls
                    .push(format!("reforward at={}", vs.position.raw()));
            }
        }
        fn retired(&self) -> impl Iterator<Item = ViewerState> {
            self.retired.iter().copied()
        }
    }

    // The order the provided methods call the hooks in is what keeps the
    // drivers bit-exact with one another.
    #[test]
    fn a_record_is_served_covered_shadowed_refused_or_ends_its_stream() {
        // Cub 3 is dead, and this cub, its successor, covers it.
        let mut d = Log::new(&[3]);
        d.on_record(secs(0), vs(0, 1, 4));
        assert_eq!(d.take(), ["serve slot=0 at=4"]);
        // A covered block, then the record one block on, this cub's.
        d.on_record(secs(0), vs(0, 1, 3));
        assert_eq!(d.take(), ["cover slot=0 at=3", "serve slot=0 at=4"]);
        d.on_record(secs(0), vs(0, 1, 3));
        assert_eq!(d.take(), ["serve slot=0 at=4"], "covered once");
        // Another living cub's block is shadowed, and relayed to it only
        // while a hand-back window toward it is open.
        d.on_record(secs(0), vs(1, 2, 5));
        assert_eq!(d.take(), ["record vs-shadow slot=1 viewer=2 inc=0"]);
        let cfg = crate::RingConfig {
            deadman_timeout: SimDuration::from_secs(1),
            deadman_interval: SimDuration::from_millis(500),
            min_vstate_lead: SimDuration::from_secs(1),
        };
        d.ring.open_handback(CubId(1), secs(0), &cfg);
        d.on_record(secs(0), vs(1, 2, 5));
        assert_eq!(
            d.take(),
            [
                "record vs-shadow slot=1 viewer=2 inc=0",
                "send c1 VS 2,0,0,0,5,1,0,2000000,P",
            ]
        );
        // A block at or below one the cub retired is a duplicate.
        d.progress.retired = Some(7);
        let stale = ViewerState {
            play_seq: 7,
            ..vs(0, 1, 4)
        };
        d.on_record(secs(0), stale);
        let duplicate = "record vs-duplicate slot=0 viewer=1 inc=0 play_seq=7";
        assert_eq!(d.take(), [duplicate]);
        // Past the end of the file, the controller is told once.
        d.on_record(secs(0), vs(0, 1, 100));
        assert_eq!(d.take(), ["controller FIN 1,0"]);
        d.on_record(secs(0), vs(0, 1, 100));
        assert!(d.take().is_empty(), "told once");
    }

    #[test]
    fn a_pass_tells_the_controller_first_then_forwards_the_batch() {
        let (mut d, batch) = (Log::new(&[]), [vs(0, 1, 4), vs(1, 2, 5)]);
        let done = vs(2, 3, 9).instance;
        d.pass(secs(0), &[done], &batch);
        let line = "VSB 1,0,0,0,4,0,0,2000000,P 2,0,0,0,5,1,0,2000000,P";
        assert_eq!(
            d.take(),
            [
                "controller FIN 3,0".to_string(),
                "record vs-forward dst=1 count=2 second=0".to_string(),
                format!("send c1 {line}"),
                "record vs-forward dst=2 count=2 second=1".to_string(),
                format!("send c2 {line}"),
            ]
        );
        // Single forwarding takes one hop; an instance is reported once.
        d.hops = 1;
        d.pass(secs(1), &[done], &batch[..1]);
        assert_eq!(
            d.take(),
            [
                "record vs-forward dst=1 count=1 second=0",
                "send c1 VSB 1,0,0,0,4,0,0,2000000,P",
            ]
        );
        d.pass(secs(1), &[], &[]);
        assert!(d.take().is_empty());
    }

    #[test]
    fn a_deschedule_kills_records_then_forwards_a_first_sighting_with_hops_left() {
        let mut d = Log::new(&[]);
        let stop = Deschedule::of(&vs(3, 1, 5));
        d.on_deschedule(secs(0), stop, 2, secs(4));
        assert_eq!(
            d.take(),
            [
                "kill slot=3",
                "record desched-apply slot=3 viewer=1 inc=0 first=1 killed=2 hops_left=2",
                "send c1 DESCH 1,0 3 1",
                "send c2 DESCH 1,0 3 1",
            ]
        );
        d.on_deschedule(secs(1), stop, 2, secs(5));
        assert_eq!(
            d.take(),
            [
                "kill slot=3",
                "record desched-apply slot=3 viewer=1 inc=0 first=0 killed=2 hops_left=2",
            ],
            "a repeat goes no further"
        );
        d.on_deschedule(secs(1), Deschedule::of(&vs(4, 2, 5)), 0, secs(5));
        assert_eq!(
            d.take(),
            [
                "kill slot=4",
                "record desched-apply slot=4 viewer=2 inc=0 first=1 killed=2 hops_left=0",
            ],
            "no hops left"
        );
    }

    #[test]
    fn a_bridge_reforwards_into_the_gap_then_sends_across_it() {
        // Cub 1, right after this one, is dead: its blocks go to 2 and 3.
        let mut d = Log::new(&[1]);
        d.forwarded = vec![vs(0, 1, 4), vs(1, 2, 5)];
        d.retired = vec![vs(2, 3, 8), vs(3, 4, 6)];
        ForwardDriver::bridge(&mut d);
        assert_eq!(
            d.take(),
            [
                "reforward at=4",
                "send c2 VS 3,0,0,0,9,2,1,2000000,P",
                "send c3 VS 3,0,0,0,9,2,1,2000000,P",
            ]
        );
    }

    #[test]
    fn a_takeover_re_drives_then_re_sends_a_rejoiners_shadows() {
        let mut d = Log::new(&[]);
        // Cub 3's block (slot 1), and two of rejoining cub 2's (slots 2
        // and 3), shadowed here.
        for record in [vs(1, 1, 3), vs(2, 2, 2), vs(3, 3, 6)] {
            d.on_record(secs(0), record);
        }
        d.take();
        let cfg = crate::RingConfig {
            deadman_timeout: SimDuration::from_secs(1),
            deadman_interval: SimDuration::from_millis(500),
            min_vstate_lead: SimDuration::from_secs(1),
        };
        let now = SimTime::from_millis(3_500);
        d.ring.on_rejoin_request(CubId(2), now, &cfg);
        assert!(d.ring.declare_failed(CubId(3), now) && d.ring.covers(CubId(3)));
        d.re_drive(now, SimDuration::from_secs(1));
        // Slot 2's block fell due 1.5 s ago: its first reachable position,
        // two on, is this cub's, and taken here.
        assert_eq!(
            d.take(),
            [
                "cover slot=1 at=3",
                "serve slot=1 at=4",
                "serve slot=2 at=4",
                "send c2 VS 3,0,0,0,6,3,0,2000000,P",
            ]
        );
    }

    /// An exhaustive search over §4.1's crash and rejoin paths, driving
    /// one [`ForwardMachine`] and one [`RingMachine`] a cub without a
    /// simulator. The test is the driver: it keeps what each cub serves
    /// (fed by the `Serve` and `Cover` verdicts), its retired log, the
    /// forwarding of what it serves, the hand-back relay, FIFO channels
    /// between cubs and a client that records receipts. The declare, its
    /// notices, the rejoin request and its acks run through
    /// [`RingDriver`]'s sequence, the one every driver ships, with the
    /// search's own §2.3 gap re-drive and takeover as its hooks.
    ///
    /// Time is in block play times. Block `p` of a stream is due at tick
    /// `p` on cub `first + p`, one disk a cub. A served record's next
    /// block is forwarded between `LEAD` and one tick before it is due (to
    /// the successor, and under double forwarding to the second
    /// successor), and a block is sent at its due tick. A record that
    /// reaches its cub at or after the block's tick is refused as late.
    /// Messages sent in a tick are delivered in it (the block play time
    /// exceeds the worst latency, §4.1.3), in any order across channels.
    /// Each stream starts under way: its block 0 went out and its record
    /// for block 1 is in flight. A cub may crash at any point while more
    /// than two live, at most `crashes` times in all, and its monitor
    /// declares it in the tick `DETECT` after. The clock runs `DETECT`
    /// ticks past the last block, so every crash is declared. Once
    /// declared, a dead cub may restart (at most `restarts` times): its
    /// machines reset, its life goes up by one, and it sends every other
    /// cub a rejoin request naming it. The
    /// retired replay is left out: its commitment frontier (`legit_lead`
    /// plus a forward interval, seven ticks) lies past these files. A
    /// covered block is delivered by its two mirror holders, so only while
    /// both live. A stream may be stopped (at most `stops` times in all):
    /// the controller, one more FIFO sender, routes a deschedule to the cub
    /// whose disk next serves the slot and to that cub's successor, as
    /// `Controller::route_deschedule` does, per its beliefs (a cub is
    /// believed failed once a living cub declared it). A cub applies it
    /// through [`ForwardMachine::on_deschedule`], held `HOLD + LEAD` ticks:
    /// it kills its unsent blocks of the stream, drops the stream's
    /// unforwarded records and, on a first sighting with hops left,
    /// forwards it to its successor pair. A record is admitted (a `Serve`,
    /// or the mirror piece a first `Cover` drives) only if
    /// [`ForwardMachine::blocks`] lets it. The state is keyed exactly, the
    /// machines through their held records in order (the holds through
    /// their lapse ticks, in first-application order).
    mod search {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};

        use tiger_layout::ViewerId;
        use tiger_sim::DetHashSet;

        use super::*;
        use crate::ring::{Membership, RingConfig, RingDriver};
        use crate::Message;
        use tiger_trace::TraceEvent;

        /// `maxVStateLead`, in ticks.
        const LEAD: u32 = 3;
        /// How long a crash goes undetected, in ticks: its monitor
        /// declares it in the tick this many after the crash.
        const DETECT: u32 = 1;
        /// `deschedule_hold`, in ticks: a deschedule is held `HOLD + LEAD`
        /// (`deschedule_reach`) past its application.
        const HOLD: u32 = 2;
        /// The ring's timing: a hand-back window lasts one tick.
        const RING: RingConfig = RingConfig {
            deadman_timeout: SimDuration::from_secs(DETECT as u64),
            deadman_interval: SimDuration::from_millis(500),
            min_vstate_lead: SimDuration::from_secs(1),
        };

        #[derive(Clone, Copy, Debug, Default)]
        struct Model {
            cubs: u32,
            streams: u32,
            /// Blocks a file.
            len: u32,
            double: bool,
            crashes: u32,
            restarts: u32,
            stops: u32,
            /// The cubs that crash, in order, when given: no other does,
            /// and each waits for every message in flight to land, so no
            /// failure falls inside another's rejoin.
            victims: &'static [u32],
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        enum Step {
            Tick,
            Crash(u32),
            Restart(u32),
            /// `(monitor, failed)`.
            Declare(u32, u32),
            /// `(cub, stream, position)`: the next block's record goes out.
            Forward(u32, u32, u32),
            /// `(cub, stream, position)`.
            Send(u32, u32, u32),
            /// The head of the `(src, dst)` channel; `src == cubs` is the
            /// controller.
            Deliver(u32, u32),
            /// The controller routes a deschedule for the stream.
            Stop(u32),
        }

        #[derive(Clone)]
        struct Node {
            ring: RingMachine,
            fwd: ForwardMachine,
            crashed_at: Option<u32>,
            /// Blocks to send: `(stream, position)`, and whether covered.
            sends: BTreeMap<(u32, u32), bool>,
            /// Served records whose next block's record is still to go,
            /// and those already gone but not yet sent.
            unforwarded: BTreeSet<(u32, u32)>,
            forwarded: BTreeSet<(u32, u32)>,
            /// Primaries sent.
            retired: BTreeSet<(u32, u32)>,
            /// The streams whose deschedule this life applied, and the
            /// tick §4.1.2 holds it to: the driver's own account, against
            /// which admissions are checked.
            held: BTreeMap<u32, u32>,
        }

        /// A node as the key sees it: the machines through what they hold.
        type NodeKey = (
            Option<u32>,
            Vec<bool>,
            Vec<u32>,
            Vec<(u32, u32, SimTime)>,
            Vec<(u32, u64, u32)>,
            Vec<u64>,
            Vec<((u32, u32), bool)>,
            Vec<(u32, u32)>,
            Vec<(u32, u32)>,
            Vec<(u32, u32)>,
            Vec<(u32, u32, u64)>,
            Vec<(u32, u32)>,
        );

        /// The whole state: the clock, the nodes, the channels, the
        /// receipts, and the streams finished, refused as late, stopped and
        /// silenced.
        type Key = (
            (u32, u32, u32),
            Vec<NodeKey>,
            Vec<Vec<MessageKey>>,
            Vec<u8>,
            [Vec<u32>; 4],
        );

        #[derive(Clone, Default)]
        struct World {
            m: Model,
            t: u32,
            nodes: Vec<Node>,
            /// What each `(src, dst)` channel holds, oldest first; `src ==
            /// cubs` is the controller. A batch travels as its records.
            channels: Vec<VecDeque<Message>>,
            receipts: Vec<u8>,
            finished: BTreeSet<u32>,
            /// Streams a record of which was refused as late.
            late: BTreeSet<u32>,
            /// Streams stopped, and those every living cub has since
            /// applied the deschedule of.
            stopped: BTreeSet<u32>,
            silenced: BTreeSet<u32>,
            /// Crashes and restarts so far.
            crashed: u32,
            restarted: u32,
            path: Vec<Step>,
        }

        /// What one step showed, for the properties and the timeline.
        #[derive(Default)]
        struct Seen {
            /// (c): `(declaring cub, stream, position)` refused.
            refused: Vec<(u32, u32, u32)>,
            doubled: bool,
            /// A record admitted while its cub held its deschedule.
            held_admit: bool,
            /// A declare naming an older life than its cub's.
            stale: bool,
            /// A block of a silenced stream delivered.
            after_stop: bool,
            /// A record turned away by a hold.
            blocked: bool,
            /// The shadows a takeover re-drives, `(stream, position)`.
            redriven: Vec<(u32, u32)>,
            /// The timeline's lines, kept only when a path is replayed.
            log: Option<Vec<String>>,
        }

        impl Seen {
            fn note(&mut self, line: std::fmt::Arguments) {
                if let Some(log) = &mut self.log {
                    log.push(line.to_string());
                }
            }
        }

        /// A queued message as the key sees it: its kind and the fields
        /// that vary here (a record's slot, position and play sequence; a
        /// deschedule's slot and hops; a cub and a life, or a rejoin ack's
        /// beliefs as a bit set). Every other field is fixed by the slot.
        type MessageKey = (u8, u32, u32, u32);

        fn message_key(msg: &Message) -> MessageKey {
            match msg {
                Message::ViewerState(vs) => (0, vs.slot.raw(), vs.position.raw(), vs.play_seq),
                Message::Deschedule { request, hops_left } => {
                    (1, request.slot.raw(), *hops_left, 0)
                }
                Message::FailureNotice { failed, life } => (2, failed.raw(), *life, 0),
                Message::RejoinRequest { from, life } => (3, from.raw(), *life, 0),
                Message::RejoinAck { from, failed } => {
                    (4, from.raw(), failed.iter().map(|&c| 1 << c).sum(), 0)
                }
                other => unreachable!("the search sends no {other:?}"),
            }
        }

        fn record(stream: u32, position: u32) -> ViewerState {
            ViewerState {
                instance: ViewerInstance {
                    viewer: ViewerId(u64::from(stream)),
                    incarnation: 0,
                },
                client: 0,
                file: FileId(stream),
                position: BlockNum(position),
                slot: SlotId(stream),
                play_seq: position,
                bitrate: tiger_sim::Bandwidth::from_mbit_per_sec(2),
                kind: StreamKind::Primary,
            }
        }

        /// Stream `i` starts on cub `2i`.
        fn owner(cubs: u32, i: u32, position: u32) -> CubId {
            CubId((2 * i + position) % cubs)
        }

        fn at(tick: u32) -> SimTime {
            SimTime::from_secs(u64::from(tick))
        }

        fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
            let mut v: Vec<T> = items.collect();
            v.sort();
            v
        }

        impl World {
            fn new(m: Model) -> Self {
                let node = |c| Node {
                    ring: RingMachine::new(CubId(c), m.cubs),
                    fwd: ForwardMachine::default(),
                    crashed_at: None,
                    sends: BTreeMap::new(),
                    unforwarded: BTreeSet::new(),
                    forwarded: BTreeSet::new(),
                    retired: BTreeSet::new(),
                    held: BTreeMap::new(),
                };
                let mut w = World {
                    m,
                    nodes: (0..m.cubs).map(node).collect(),
                    channels: vec![VecDeque::new(); ((m.cubs + 1) * m.cubs) as usize],
                    receipts: vec![0; (m.streams * m.len) as usize],
                    ..World::default()
                };
                // Each stream is under way: block 0 went out, and its cub
                // forwarded the record for block 1.
                for i in 0..m.streams {
                    let c = owner(m.cubs, i, 0).raw();
                    w.nodes[c as usize].retired.insert((i, 0));
                    w.receipts[(i * m.len) as usize] = 1;
                    let mut seen = Seen::default();
                    w.cub(c, &mut seen).pass(at(0), &[], &[record(i, 1)]);
                }
                w
            }

            fn alive(&self, c: u32) -> bool {
                self.nodes[c as usize].crashed_at.is_none()
            }

            fn key(&self) -> Key {
                let node = |n: &Node| -> NodeKey {
                    let shadows = n
                        .fwd
                        .shadows()
                        .map(|s| (s.vs.slot.0, s.vs.position.0, s.due));
                    let beliefs = (0..self.m.cubs).map(|c| n.ring.believes_failed(CubId(c)));
                    let lives = (0..self.m.cubs).map(|c| n.ring.life(CubId(c)));
                    let covered = n.fwd.covered.keys();
                    let covered = sorted(covered.map(|(s, i, p)| (s.raw(), i.viewer.raw(), *p)));
                    let finished = sorted(n.fwd.finished.keys().map(|i| i.viewer.raw()));
                    // Every hold lapses within a reach of now: the tick each
                    // lapses at (now for one lapsed but not yet dropped).
                    let (mut held, mut holds) = (n.fwd.held.clone(), Vec::new());
                    for k in self.t..=self.t + HOLD + LEAD {
                        let lapsed = |d: Deschedule| (k, d.slot.raw(), d.instance.viewer.raw());
                        held.gc_report(at(k), |d| holds.push(lapsed(d)));
                    }
                    (
                        n.crashed_at,
                        beliefs.collect(),
                        lives.collect(),
                        shadows.collect(),
                        covered,
                        finished,
                        n.sends.iter().map(|(&k, &v)| (k, v)).collect(),
                        n.unforwarded.iter().copied().collect(),
                        n.forwarded.iter().copied().collect(),
                        n.retired.iter().copied().collect(),
                        holds,
                        n.held.iter().map(|(&i, &until)| (i, until)).collect(),
                    )
                };
                let set = |s: &BTreeSet<u32>| s.iter().copied().collect();
                (
                    (self.t, self.crashed, self.restarted),
                    self.nodes.iter().map(node).collect(),
                    (self.channels.iter())
                        .map(|ch| ch.iter().map(message_key).collect())
                        .collect(),
                    self.receipts.clone(),
                    [&self.finished, &self.late, &self.stopped, &self.silenced].map(set),
                )
            }

            /// The living cub that monitors dead `c`, if it has yet to
            /// declare it.
            fn monitor(&self, c: u32) -> Option<u32> {
                (0..self.m.cubs).find(|&s| {
                    let ring = &self.nodes[s as usize].ring;
                    self.alive(s)
                        && !ring.believes_failed(CubId(c))
                        && ring.prev_living(CubId(s)) == Some(CubId(c))
                })
            }

            fn enabled(&self) -> Vec<Step> {
                let mut out = Vec::new();
                let cubs = 0..self.m.cubs;
                let living = cubs.clone().filter(|&c| self.alive(c)).count() as u32;
                let quiet = self.channels.iter().all(VecDeque::is_empty);
                // Work that must happen by this tick holds the clock.
                let mut held = false;
                for c in cubs.clone().filter(|&c| self.alive(c)) {
                    let n = &self.nodes[c as usize];
                    for &(i, p) in &n.unforwarded {
                        if self.t + LEAD > p {
                            out.push(Step::Forward(c, i, p));
                            held |= self.t >= p;
                        }
                    }
                    for &(i, p) in n.sends.keys() {
                        if p == self.t {
                            out.push(Step::Send(c, i, p));
                            held = true;
                        }
                    }
                }
                for c in cubs.clone() {
                    match self.nodes[c as usize].crashed_at {
                        None if self.crashed < self.m.crashes
                            && living > 2
                            && (self.m.victims.get(self.crashed as usize))
                                .is_none_or(|&v| v == c && quiet) =>
                        {
                            out.push(Step::Crash(c));
                        }
                        Some(t) if self.t >= t + DETECT => {
                            if let Some(s) = self.monitor(c) {
                                out.push(Step::Declare(s, c));
                                held = true;
                            } else if self.restarted < self.m.restarts && self.t + 2 < self.m.len {
                                out.push(Step::Restart(c));
                            }
                        }
                        _ => {}
                    }
                }
                let streams = 0..self.m.streams;
                for i in streams.filter(|i| !self.finished.contains(i) && !self.stopped.contains(i))
                {
                    if (self.stopped.len() as u32) < self.m.stops && self.t < self.m.len {
                        out.push(Step::Stop(i));
                    }
                }
                for ch in 0..(self.m.cubs + 1) * self.m.cubs {
                    if !self.channels[ch as usize].is_empty() {
                        out.push(Step::Deliver(ch / self.m.cubs, ch % self.m.cubs));
                        held = true;
                    }
                }
                if !held && self.t < self.m.len + DETECT {
                    out.push(Step::Tick);
                }
                out
            }

            fn post(&mut self, src: u32, dst: u32, msg: Message) {
                if self.alive(dst) {
                    self.channels[(src * self.m.cubs + dst) as usize].push_back(msg);
                }
            }

            fn fire(&mut self, step: Step, seen: &mut Seen) {
                self.act(step, seen);
                // Latch the streams every living cub has now descheduled.
                let cubs = 0..self.m.cubs;
                let applied = |i: &u32| {
                    cubs.clone().all(|c| {
                        let n = &self.nodes[c as usize];
                        n.crashed_at.is_some() || n.held.contains_key(i)
                    })
                };
                let silenced: Vec<u32> = self.stopped.iter().copied().filter(applied).collect();
                self.silenced.extend(silenced);
            }

            fn act(&mut self, step: Step, seen: &mut Seen) {
                self.path.push(step);
                let t = self.t;
                match step {
                    Step::Tick => self.t += 1,
                    Step::Crash(c) => {
                        seen.note(format_args!("t{t} ctrl power-cut cub={c}"));
                        self.crashed += 1;
                        let n = &mut self.nodes[c as usize];
                        n.crashed_at = Some(t);
                        n.sends.clear();
                        n.unforwarded.clear();
                        n.forwarded.clear();
                        n.retired.clear();
                        n.held.clear();
                        n.fwd.reset(false);
                        for src in 0..=self.m.cubs {
                            self.channels[(src * self.m.cubs + c) as usize].clear();
                        }
                    }
                    Step::Restart(c) => {
                        seen.note(format_args!("t{t} ctrl cub-restart cub={c}"));
                        self.restarted += 1;
                        self.nodes[c as usize].crashed_at = None;
                        let cubs = self.m.cubs;
                        self.cub(c, seen).rejoin(at(t), cubs);
                    }
                    Step::Declare(s, c) => {
                        seen.note(format_args!("t{t} cub{s} deadman-declare failed={c}"));
                        let life = |n: u32| self.nodes[n as usize].ring.life(CubId(c));
                        seen.stale |= life(s) < life(c);
                        let mut ring = self.cub(s, seen);
                        ring.declare(at(t), CubId(c));
                        ring.announce(CubId(c));
                    }
                    Step::Stop(i) => {
                        self.stopped.insert(i);
                        // `Controller::route_deschedule`'s hops: the reach in
                        // block play times, plus two, at most the ring.
                        let (cubs, hops_left) = (self.m.cubs, (HOLD + LEAD + 2).min(self.m.cubs));
                        // The controller believes a cub failed once a living cub
                        // declared it: its notice reached the controller at once.
                        let believed = |s, c| self.nodes[s as usize].ring.believes_failed(c);
                        let declared = |c| (0..cubs).any(|s| self.alive(s) && believed(s, c));
                        let mut ctrl = Membership::all_living(cubs as usize);
                        for c in (0..cubs).filter(|&c| !self.alive(c) && declared(CubId(c))) {
                            ctrl.set_failed(CubId(c), true);
                        }
                        let target = ctrl.first_living_at(owner(cubs, i, t), cubs);
                        let succ = ctrl.next_living_within(target, cubs);
                        let (dst, request) = (target.raw(), Deschedule::of(&record(i, 0)));
                        let route = format_args!("route-desched viewer{i}#0 slot={i} target={dst}");
                        seen.note(format_args!("t{t} ctrl {route}"));
                        for dst in [Some(target), succ].into_iter().flatten() {
                            self.post(cubs, dst.raw(), Message::Deschedule { request, hops_left });
                        }
                    }
                    Step::Forward(c, i, p) => {
                        let n = &mut self.nodes[c as usize];
                        n.unforwarded.remove(&(i, p));
                        if n.sends.contains_key(&(i, p)) {
                            n.forwarded.insert((i, p));
                        }
                        let next = record(i, p + 1);
                        let (end, batch) = match p + 1 == self.m.len {
                            true => (Some(next.instance), None),
                            false => (None, Some(next)),
                        };
                        self.cub(c, seen)
                            .pass(at(t), end.as_slice(), batch.as_slice());
                    }
                    Step::Send(c, i, p) => {
                        let n = &mut self.nodes[c as usize];
                        let covered = n.sends.remove(&(i, p)) == Some(true);
                        let silenced = self.silenced.contains(&i);
                        n.forwarded.remove(&(i, p));
                        if !covered {
                            n.retired.insert((i, p));
                        }
                        // A covered block's two mirror pieces come from the
                        // dead owner's next two cubs.
                        let dead = owner(self.m.cubs, i, p).raw();
                        let holders = [1, 2].map(|k| (dead + k) % self.m.cubs);
                        if !covered || holders.iter().all(|&h| self.alive(h)) {
                            seen.note(format_args!(
                                "t{t} cub{c} send-due slot={i} viewer{i}#0 ok=1 position={p}"
                            ));
                            let r = &mut self.receipts[(i * self.m.len + p) as usize];
                            *r += 1;
                            seen.doubled |= *r > 1;
                            seen.after_stop |= silenced;
                        }
                    }
                    Step::Deliver(src, dst) => {
                        let ch = (src * self.m.cubs + dst) as usize;
                        let msg = self.channels[ch].pop_front().expect("an enabled channel");
                        let (mut cub, until) = (self.cub(dst, seen), at(t + HOLD + LEAD));
                        match msg {
                            Message::ViewerState(vs) => cub.on_record(at(t), vs),
                            Message::Deschedule { request, hops_left } => {
                                cub.on_deschedule(at(t), request, hops_left, until);
                            }
                            msg => {
                                let unhandled = cub.on_ring_message(at(t), &RING, msg);
                                assert!(unhandled.is_none(), "a ring message");
                            }
                        }
                    }
                }
            }

            /// Cub `me` as the driver of its machines.
            fn cub<'a>(&'a mut self, me: u32, seen: &'a mut Seen) -> At<'a> {
                At { w: self, me, seen }
            }
        }

        /// Cub `me` of the world as a [`RingDriver`] and a
        /// [`ForwardDriver`]: a send posts the message, a record
        /// logs its timeline line, the controller takes end-of-file
        /// notices, and the admission and the kill are the search's own
        /// account of what the cub sends.
        struct At<'a> {
            w: &'a mut World,
            me: u32,
            seen: &'a mut Seen,
        }

        impl At<'_> {
            /// Logs `what` as this cub's, at this tick.
            fn log(&mut self, what: std::fmt::Arguments) {
                let (t, me) = (self.w.t, self.me);
                self.seen.note(format_args!("t{t} cub{me} {what}"));
            }

            /// Whether a hold turns `vs` away, asked before it is admitted.
            fn blocked(&mut self, vs: &ViewerState) -> bool {
                let (i, p) = (vs.slot.raw(), vs.play_seq);
                let blocked = self.w.nodes[self.me as usize].fwd.blocks(vs, at(self.w.t));
                self.seen.blocked |= blocked;
                if blocked {
                    self.log(format_args!("vs-blocked slot={i} viewer{i}#0 play_seq={p}"));
                }
                blocked
            }

            /// Commits to send `vs`'s block; the first property is checked
            /// against the driver's own holds.
            fn admit(&mut self, vs: &ViewerState, covered: bool) {
                let (i, p, t) = (vs.slot.raw(), vs.position.raw(), self.w.t);
                let n = &mut self.w.nodes[self.me as usize];
                self.seen.held_admit |= n.held.get(&i).is_some_and(|&until| t < until);
                n.sends.insert((i, p), covered);
                if !covered {
                    n.unforwarded.insert((i, p));
                }
            }
        }

        impl RingDriver for At<'_> {
            fn ring(&mut self) -> &mut RingMachine {
                &mut self.w.nodes[self.me as usize].ring
            }

            fn send(&mut self, to: CubId, msg: Message) {
                if let Message::ViewerStates(batch) = msg {
                    for &vs in batch.iter() {
                        self.send(to, Message::ViewerState(vs));
                    }
                } else {
                    self.w.post(self.me, to.raw(), msg);
                }
            }

            /// Logs the line, and checks (c) on a re-driven shadow refused
            /// as a duplicate: its block still due, no living cub serving or
            /// covering it, and the client without it.
            fn record(&mut self, event: TraceEvent) {
                let (w, me) = (&*self.w, self.me);
                if let TraceEvent::VsDuplicate { slot, play_seq, .. } = event {
                    let (i, p) = (slot, play_seq);
                    let pending = (0..w.m.cubs)
                        .any(|c| w.alive(c) && w.nodes[c as usize].sends.contains_key(&(i, p)));
                    let received = w.receipts[(i * w.m.len + p) as usize] > 0;
                    if self.seen.redriven.contains(&(i, p)) && w.t < p && !pending && !received {
                        self.seen.refused.push((me, i, p));
                    }
                }
                if self.seen.log.is_some() {
                    let mut line = event.name().to_string();
                    for (k, v) in event.fields() {
                        line.push_str(&format!(" {k}={v}"));
                    }
                    self.log(format_args!("{line}"));
                }
            }

            fn fence(&mut self) {
                unreachable!("a notice goes only to cubs believed living, never the cub it names")
            }

            /// The retired replay is left out: its commitment frontier lies
            /// past these files.
            fn replay(&mut self, _to: CubId) {}

            fn to_controller(&mut self, msg: Message) {
                if let Message::ViewerFinished { instance } = msg {
                    self.w.finished.insert(instance.viewer.raw() as u32);
                }
            }

            fn bridge(&mut self) {
                ForwardDriver::bridge(self);
            }

            fn take_over(&mut self, _failed: CubId) {
                let (n, m) = (&self.w.nodes[self.me as usize], self.w.m);
                let covered =
                    |&(i, p): &(u32, u32)| p < m.len && n.ring.covers(owner(m.cubs, i, p));
                let shadows = n
                    .fwd
                    .shadows()
                    .map(|s| (s.vs.slot.raw(), s.vs.position.raw()));
                self.seen.redriven = shadows.filter(covered).collect();
                self.re_drive(at(self.w.t), SimDuration::from_secs(1));
                self.seen.redriven.clear();
            }
        }

        impl ForwardDriver for At<'_> {
            type Place = ();
            type Layout = Model;

            fn machines(&mut self) -> (&mut ForwardMachine, &mut RingMachine, &Model) {
                let n = &mut self.w.nodes[self.me as usize];
                (&mut n.fwd, &mut n.ring, &self.w.m)
            }

            fn locate(m: &Model, file: FileId, position: BlockNum) -> Option<(Option<CubId>, ())> {
                let p = position.raw();
                Some(((p < m.len).then(|| owner(m.cubs, file.0, p)), ()))
            }

            fn due(_: &Model, _: SimTime, vs: &ViewerState, _: &()) -> SimTime {
                at(vs.position.raw())
            }

            fn progress(&self, vs: &ViewerState) -> Progress {
                let (n, i) = (&self.w.nodes[self.me as usize], vs.slot.raw());
                let last = |set: &mut dyn Iterator<Item = &(u32, u32)>| {
                    set.filter(|&&(j, _)| j == i).map(|&(_, q)| q).max()
                };
                Progress {
                    retired: last(&mut n.retired.iter()),
                    serving: last(&mut n.sends.keys()),
                }
            }

            fn hops(&self) -> usize {
                1 + usize::from(self.w.m.double)
            }

            /// Refused under a hold, or as late at or after its tick.
            fn serve(&mut self, vs: ViewerState, _: ()) {
                let (i, p) = (vs.slot.raw(), vs.position.raw());
                if self.blocked(&vs) {
                    return;
                }
                if self.w.t >= p {
                    self.w.late.insert(i);
                    return self.log(format_args!("vs-late slot={i} viewer{i}#0 play_seq={p}"));
                }
                self.log(format_args!(
                    "vs-accept slot={i} viewer{i}#0 play_seq={p} position={p}"
                ));
                self.admit(&vs, false);
            }

            /// The first mirror piece, sent unless held or late.
            fn cover(&mut self, vs: ViewerState, _: ()) {
                let (i, p) = (vs.slot.raw(), vs.position.raw());
                let blocked = self.blocked(&vs);
                let dead = owner(self.w.m.cubs, i, p).raw();
                self.log(format_args!(
                    "mirror-create slot={i} viewer{i}#0 failed_disk={dead}"
                ));
                if self.w.t < p && !blocked {
                    self.admit(&vs, true);
                }
            }

            /// Unsent blocks and unforwarded records of the stream, and
            /// the driver's own hold, `HOLD + LEAD` ticks.
            fn kill(&mut self, d: &Deschedule) -> u32 {
                let (i, until) = (d.slot.raw(), self.w.t + HOLD + LEAD);
                let n = &mut self.w.nodes[self.me as usize];
                let held = n.held.entry(i).or_insert(until);
                *held = until.max(*held);
                let before = n.sends.len();
                n.sends.retain(|&(j, _), _| j != i);
                n.forwarded.retain(|&(j, _)| j != i);
                n.unforwarded.retain(|&(j, _)| j != i);
                (before - n.sends.len()) as u32
            }

            fn reforward(&mut self, gap: impl Fn(&ViewerState, &RingMachine, &Model) -> bool) {
                let (n, m) = (&mut self.w.nodes[self.me as usize], &self.w.m);
                let into_gap = |&(i, p): &(u32, u32)| gap(&record(i, p), &n.ring, m);
                let again: Vec<_> = n.forwarded.iter().copied().filter(into_gap).collect();
                for r in again {
                    n.forwarded.remove(&r);
                    n.unforwarded.insert(r);
                }
            }

            fn retired(&self) -> impl Iterator<Item = ViewerState> {
                let n = &self.w.nodes[self.me as usize];
                n.retired.iter().map(|&(i, p)| record(i, p))
            }
        }

        /// What a search over one model found.
        #[derive(Default)]
        struct Found {
            states: usize,
            depth: usize,
            /// (c)'s distinct refusals, and the first one's path.
            refused: DetHashSet<(u32, u32, u32)>,
            first_refusal: Option<Vec<Step>>,
            doubled: usize,
            first_double: Option<Vec<Step>>,
            /// End states where a stream stopped silently.
            stalled: usize,
            first_stall: Option<Vec<Step>>,
            /// Steps that admit a record under its cub's hold, and that
            /// deliver a block of a silenced stream.
            held_admits: usize,
            first_held_admit: Option<Vec<Step>>,
            /// Steps that declare a cub naming a life older than its own,
            /// a notice its peers that saw the rejoin drop.
            stale: usize,
            first_stale: Option<Vec<Step>>,
            after_stop: usize,
            first_after_stop: Option<Vec<Step>>,
            /// Steps that turn a record away under a hold, and states with a
            /// silenced stream: what makes the two stop properties more
            /// than vacuous.
            blocked: usize,
            silenced: usize,
        }

        /// Searches `m`, failing once it has kept more than `cap` states:
        /// a defect that lets a message circulate without end grows a
        /// model by orders of magnitude, and the cap fails it in seconds
        /// instead of gigabytes.
        fn explore(m: Model, cap: usize) -> Found {
            let start = World::new(m);
            let mut seen_keys = DetHashSet::default();
            seen_keys.insert(start.key());
            let mut frontier = VecDeque::from([start]);
            let mut found = Found::default();
            while let Some(w) = frontier.pop_front() {
                found.depth = found.depth.max(w.path.len());
                let enabled = w.enabled();
                if enabled.is_empty() {
                    let ended = |i: &u32| {
                        [&w.finished, &w.late, &w.stopped]
                            .iter()
                            .any(|s| s.contains(i))
                    };
                    let silent = (0..m.streams).filter(|i| !ended(i)).count();
                    if silent > 0 && found.first_stall.is_none() {
                        found.first_stall = Some(w.path.clone());
                    }
                    found.stalled += usize::from(silent > 0);
                    continue;
                }
                for step in enabled {
                    let mut next = w.clone();
                    let mut seen = Seen::default();
                    next.fire(step, &mut seen);
                    if !seen.refused.is_empty() && found.first_refusal.is_none() {
                        found.first_refusal = Some(next.path.clone());
                    }
                    found.refused.extend(seen.refused);
                    let firsts = [
                        (seen.doubled, &mut found.first_double),
                        (seen.held_admit, &mut found.first_held_admit),
                        (seen.stale, &mut found.first_stale),
                        (seen.after_stop, &mut found.first_after_stop),
                    ];
                    for (shown, first) in firsts {
                        if shown && first.is_none() {
                            *first = Some(next.path.clone());
                        }
                    }
                    found.held_admits += usize::from(seen.held_admit);
                    found.stale += usize::from(seen.stale);
                    found.after_stop += usize::from(seen.after_stop);
                    found.blocked += usize::from(seen.blocked);
                    if seen_keys.insert(next.key()) {
                        found.doubled += usize::from(seen.doubled);
                        found.silenced += usize::from(!next.silenced.is_empty());
                        assert!(
                            seen_keys.len() <= cap,
                            "{m:?} passed {cap} states, ten times what it reaches: \
                             does a message circulate without end?"
                        );
                        frontier.push_back(next);
                    }
                }
            }
            found.states = seen_keys.len();
            found
        }

        /// The timeline of `path`, replayed.
        fn timeline(m: Model, path: &[Step]) -> Vec<String> {
            let mut w = World::new(m);
            let mut seen = Seen {
                log: Some(Vec::new()),
                ..Seen::default()
            };
            for &step in path {
                w.fire(step, &mut seen);
            }
            seen.log.unwrap_or_default()
        }

        /// Every interleaving of the crash path, on four cubs with one
        /// stream and on three cubs with two, under single and double
        /// forwarding, up to two crashes; of a crash and a restart on
        /// three cubs with one stream; of a stop on three cubs with one
        /// stream under double forwarding, without and with a crash; and
        /// of cub 1, then its declarer cub 2, crashing and restarting, and
        /// cub 1 crashing again, each crash once the ring is quiet. Six
        /// properties:
        ///
        /// - no block is delivered twice;
        /// - (c): no shadow re-driven at a declare is refused as a
        ///   duplicate for a block still due that no living cub serves or
        ///   covers and the client has not received;
        /// - every stream reaches its end of file, unless a record of it
        ///   was refused as late (§4.1.2: "spontaneously descheduled") or
        ///   it was stopped;
        /// - no declare names a life of its cub older than the cub's own;
        /// - no cub admits a record of an instance while it holds that
        ///   instance's deschedule;
        /// - once every living cub has applied a stopped stream's
        ///   deschedule, no further block of the stream is delivered.
        ///
        /// (c) holds in every model: a cub covering the record's owner
        /// refuses it only for a block it retired, not for the dead cub's
        /// next block it already serves (ROADMAP item 1(c)). The third holds
        /// in the one-restart model: the declare's failure notice may reach
        /// a cub after the rejoin request does, and it names the rejoiner's
        /// life before the restart, so that cub drops it instead of
        /// believing the rejoiner dead again and stalling its stream
        /// (ROADMAP item 1(f), 36 silent stalls before). The fourth holds
        /// because a restart keeps the lives its cub saw: a declarer that
        /// forgot them named life 0 of a cub its peers knew in life 1, and
        /// they kept it living (126 stale declares and 16 stalls in the
        /// two-restart model). The search breaks the first at a rejoin, and
        /// pins it as a count the fix flips: a double delivery, item 1(a)'s
        /// shape, where a record forwarded to the rejoiner by a cub that
        /// has its rejoin request also reaches the covering cub before its
        /// own copy of the request, so both serve the block. The
        /// two-restart model's four stalls are item 1(a)'s too: the
        /// covering cub dies before the rejoiner holds its stream again.
        ///
        /// A model that keeps ten times the states it reaches today fails
        /// at once, so a defect that swells the search is a failure in
        /// seconds rather than a run of gigabytes.
        #[test]
        fn every_interleaving_of_the_crash_path() {
            let model = |cubs, streams, len, double, crashes, restarts, stops| Model {
                cubs,
                streams,
                len,
                double,
                crashes,
                restarts,
                stops,
                victims: &[],
            };
            // Each model beside seven to ten times the states it reaches
            // (10,199; 47,782; 2,451; 26,765; 3,826; 82,204; 21,514; 56,271;
            // 22,875).
            let models = [
                (model(4, 1, 5, true, 1, 0, 0), 84_000),
                (model(4, 1, 5, true, 2, 0, 0), 400_000),
                (model(4, 1, 5, false, 1, 0, 0), 25_000),
                (model(3, 2, 4, true, 1, 0, 0), 230_000),
                (model(3, 2, 4, false, 1, 0, 0), 41_000),
                (model(3, 1, 6, true, 1, 1, 0), 820_000),
                (model(3, 1, 6, true, 0, 0, 1), 215_000),
                (model(3, 1, 6, true, 1, 0, 1), 540_000),
                (
                    Model {
                        victims: &[1, 2, 1],
                        ..model(3, 1, 5, true, 3, 2, 0)
                    },
                    230_000,
                ),
            ];
            let (mut found, mut states, mut shown) = (Vec::new(), 0, [false; 6]);
            let mut unreached = Vec::new();
            for (m, cap) in models {
                let f = explore(m, cap);
                println!(
                    "{m:?}: {} states, depth {}, {} refused, {} doubled, {} stalled, \
                     {} stale; {} blocked, {} silenced, {} admitted under a hold, \
                     {} delivered after",
                    f.states,
                    f.depth,
                    f.refused.len(),
                    f.doubled,
                    f.stalled,
                    f.stale,
                    f.blocked,
                    f.silenced,
                    f.held_admits,
                    f.after_stop
                );
                if m.stops > 0 && (f.blocked == 0 || f.silenced == 0) {
                    unreached.push(m);
                }
                let firsts = [
                    ("(c) counterexample", &f.first_refusal),
                    ("double delivery", &f.first_double),
                    ("silent stall", &f.first_stall),
                    ("stale declare", &f.first_stale),
                    ("admission under a hold", &f.first_held_admit),
                    ("delivery after a stop", &f.first_after_stop),
                ];
                for (k, (what, path)) in firsts.into_iter().enumerate() {
                    let Some(path) = path.as_ref().filter(|_| !shown[k]) else {
                        continue;
                    };
                    shown[k] = true;
                    println!("first {what}, {} steps:", path.len());
                    for line in timeline(m, path) {
                        println!("  {line}");
                    }
                }
                let stops = (f.held_admits, f.after_stop);
                found.push((f.refused.len(), f.doubled, f.stalled, f.stale, stops));
                states += f.states;
            }
            println!("{states} states in all");
            assert_eq!(
                found,
                [
                    (0, 0, 0, 0, (0, 0)),
                    (0, 0, 0, 0, (0, 0)),
                    (0, 0, 0, 0, (0, 0)),
                    (0, 0, 0, 0, (0, 0)),
                    (0, 0, 0, 0, (0, 0)),
                    (0, 126, 0, 0, (0, 0)),
                    (0, 0, 0, 0, (0, 0)),
                    (0, 0, 0, 0, (0, 0)),
                    (0, 16, 4, 0, (0, 0)),
                ],
                "(distinct (c) refusals, double-delivering states, silently stalled ends, \
                 stale declares, (steps admitting under a hold, delivering after a stop)) \
                 a model"
            );
            assert!(
                unreached.is_empty(),
                "no hold blocked or silenced in {unreached:?}"
            );
        }
    }
}
