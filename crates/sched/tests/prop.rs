//! Property tests on the schedule structures: the view's merge rules and
//! the network schedule's capacity invariant under arbitrary operation
//! sequences.
//!
//! Ported from `proptest` to the in-tree `tiger_sim::check` harness: each
//! property runs over many deterministically seeded cases, and failures
//! report a replayable case seed.

use std::collections::BTreeMap;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, DiskId, FileId, ViewerId};
use tiger_sched::view::ViewApply;
use tiger_sched::{
    Deschedule, NetScheduleError, NetworkSchedule, PrimaryRecord, ScheduleView, SlotId, StreamKind,
    ViewerState,
};
use tiger_sim::check::{check, vec_of};
use tiger_sim::{Bandwidth, SimDuration, SimRng, SimTime};

fn vs(slot: u32, viewer: u64, incarnation: u32, play_seq: u32) -> ViewerState {
    ViewerState {
        instance: ViewerInstance {
            viewer: ViewerId(viewer),
            incarnation,
        },
        client: 0,
        file: FileId(0),
        position: BlockNum(play_seq),
        slot: SlotId(slot),
        play_seq,
        bitrate: Bandwidth::from_mbit_per_sec(2),
        kind: StreamKind::Primary,
    }
}

/// One random operation against a view.
#[derive(Clone, Debug)]
enum Op {
    Apply {
        slot: u32,
        viewer: u64,
        incarnation: u32,
        play_seq: u32,
        at_ms: u64,
    },
    Deschedule {
        slot: u32,
        viewer: u64,
        incarnation: u32,
        at_ms: u64,
        hold_ms: u64,
    },
    Gc {
        at_ms: u64,
    },
}

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0u32..3) {
        0 => Op::Apply {
            slot: rng.gen_range(0u32..6),
            viewer: rng.gen_range(0u64..4),
            incarnation: rng.gen_range(0u32..2),
            play_seq: rng.gen_range(0u32..30),
            at_ms: rng.gen_range(0u64..10_000),
        },
        1 => Op::Deschedule {
            slot: rng.gen_range(0u32..6),
            viewer: rng.gen_range(0u64..4),
            incarnation: rng.gen_range(0u32..2),
            at_ms: rng.gen_range(0u64..10_000),
            hold_ms: rng.gen_range(0u64..5_000),
        },
        _ => Op::Gc {
            at_ms: rng.gen_range(0u64..10_000),
        },
    }
}

/// Under any operation sequence: a slot never holds two distinct
/// primary instances, duplicates are ignored, and a held deschedule
/// blocks its target.
#[test]
fn view_invariants_hold_under_random_ops() {
    check("view_invariants_hold_under_random_ops", |rng| {
        let mut ops = vec_of(rng, 1..80, arb_op);
        let mut view = ScheduleView::new();
        // Monotonic clock: operations are applied in time order.
        ops.sort_by_key(|op| match op {
            Op::Apply { at_ms, .. } | Op::Deschedule { at_ms, .. } | Op::Gc { at_ms } => *at_ms,
        });
        for op in &ops {
            match *op {
                Op::Apply {
                    slot,
                    viewer,
                    incarnation,
                    play_seq,
                    at_ms,
                } => {
                    let record = vs(slot, viewer, incarnation, play_seq);
                    let now = SimTime::from_millis(at_ms);
                    let before = view.primary_entry(SlotId(slot)).copied();
                    let result = view.apply_viewer_state(record, now);
                    match result {
                        ViewApply::Inserted => {
                            assert!(before.is_none(), "insert into occupied slot");
                        }
                        ViewApply::Updated => {
                            let b = before.expect("update requires an entry");
                            assert_eq!(b.instance, record.instance);
                            assert!(record.play_seq > b.play_seq);
                        }
                        ViewApply::Duplicate => {
                            let b = before.expect("duplicate requires an entry");
                            assert!(b.play_seq >= record.play_seq);
                        }
                        ViewApply::Conflict => {
                            let b = before.expect("conflict requires an entry");
                            assert!(b.instance != record.instance);
                            // The existing entry is untouched.
                            assert_eq!(view.primary_entry(SlotId(slot)), Some(&b));
                        }
                        ViewApply::Blocked => {
                            let d = Deschedule {
                                instance: record.instance,
                                slot: record.slot,
                            };
                            assert!(view.holds_deschedule(&d));
                        }
                    }
                }
                Op::Deschedule {
                    slot,
                    viewer,
                    incarnation,
                    at_ms,
                    hold_ms,
                } => {
                    let d = Deschedule {
                        instance: ViewerInstance {
                            viewer: ViewerId(viewer),
                            incarnation,
                        },
                        slot: SlotId(slot),
                    };
                    let now = SimTime::from_millis(at_ms);
                    view.apply_deschedule(d, now, now + SimDuration::from_millis(hold_ms));
                    // Post: no matching entry survives.
                    for e in view.slot_entries(SlotId(slot)) {
                        assert!(!d.matches(e), "descheduled entry still present");
                    }
                }
                Op::Gc { at_ms } => view.gc(SimTime::from_millis(at_ms)),
            }
        }
        // Global invariant: one primary instance per slot.
        for slot in 0..6u32 {
            let primaries: Vec<_> = view
                .slot_entries(SlotId(slot))
                .iter()
                .filter(|e| e.kind == StreamKind::Primary)
                .collect();
            assert!(
                primaries.len() <= 1,
                "slot {} has {} primaries",
                slot,
                primaries.len()
            );
        }
    });
}

/// The held-deschedule set as `ScheduleView` kept it before it was
/// indexed: a `Vec` in first-application order, every question a scan.
/// Test-only; the oracle for the map-plus-expiry-queue that replaced it.
#[derive(Default)]
struct HeldModel(Vec<(Deschedule, SimTime)>);

impl HeldModel {
    fn gc_report(&mut self, now: SimTime, mut expired: impl FnMut(Deschedule)) {
        self.0.retain(|&(d, expiry)| {
            let live = expiry > now;
            if !live {
                expired(d);
            }
            live
        });
    }

    fn apply(&mut self, d: Deschedule, now: SimTime, hold_until: SimTime) {
        self.gc_report(now, |_| {});
        match self.0.iter_mut().find(|(held, _)| *held == d) {
            Some((_, expiry)) => *expiry = (*expiry).max(hold_until),
            None => self.0.push((d, hold_until)),
        }
    }

    fn blocks(&mut self, vs: &ViewerState, now: SimTime) -> bool {
        self.gc_report(now, |_| {});
        self.0.iter().any(|(d, _)| d.matches(vs))
    }

    fn holds(&self, d: &Deschedule) -> bool {
        self.0.iter().any(|(held, _)| held == d)
    }
}

/// The indexed held-deschedule set answers exactly as the linear model
/// does — which viewer states are blocked, what is held and how many,
/// and which holds `gc_report` names in which order — over random
/// interleavings that re-apply held deschedules with later *and*
/// earlier `hold_until`s and pile expiries onto the same instant.
#[test]
fn held_deschedules_match_the_linear_model() {
    check("held_deschedules_match_the_linear_model", |rng| {
        let mut view = ScheduleView::new();
        let mut model = HeldModel::default();
        let mut now_ms = 0u64;
        // A coarse time grid makes equal-instant expiries common.
        let grid = |rng: &mut SimRng, steps: u64| rng.gen_range(0..steps) * 250;
        let universe = |rng: &mut SimRng| Deschedule {
            instance: ViewerInstance {
                viewer: ViewerId(rng.gen_range(0u64..5)),
                incarnation: rng.gen_range(0u32..2),
            },
            slot: SlotId(rng.gen_range(0u32..4)),
        };
        for _ in 0..rng.gen_range(1usize..200) {
            now_ms += grid(rng, 4);
            let now = SimTime::from_millis(now_ms);
            match rng.gen_range(0u32..6) {
                0 | 1 => {
                    // Shorter than a hold already in place as often as longer.
                    let d = universe(rng);
                    let hold_until = now + SimDuration::from_millis(grid(rng, 12));
                    view.apply_deschedule(d, now, hold_until);
                    model.apply(d, now, hold_until);
                }
                2 | 3 => {
                    let d = universe(rng);
                    let record = vs(
                        d.slot.raw(),
                        d.instance.viewer.raw(),
                        d.instance.incarnation,
                        rng.gen_range(0u32..30),
                    );
                    let blocked = view.apply_viewer_state(record, now) == ViewApply::Blocked;
                    assert_eq!(
                        blocked,
                        model.blocks(&record, now),
                        "at {now:?}: {record:?}"
                    );
                }
                4 => {
                    view.gc(now);
                    model.gc_report(now, |_| {});
                }
                _ => {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    view.gc_report(now, |d| got.push(d));
                    model.gc_report(now, |d| want.push(d));
                    assert_eq!(got, want, "gc_report order at {now:?}");
                }
            }
            assert_eq!(view.held_deschedules(), model.0.len(), "at {now:?}");
            for (d, _) in &model.0 {
                assert!(view.holds_deschedule(d), "lost {d:?} at {now:?}");
            }
            let probe = universe(rng);
            assert_eq!(view.holds_deschedule(&probe), model.holds(&probe));
        }
    });
}

/// The view's entries as `ScheduleView` kept them before a slot's single
/// entry moved into the map: one `Vec` a slot, `len` a walk. Test-only;
/// the oracle for the inline-entry representation that replaced it.
#[derive(Default)]
struct VecModel {
    entries: BTreeMap<SlotId, Vec<ViewerState>>,
    held: HeldModel,
}

impl VecModel {
    fn apply_viewer_state(&mut self, vs: ViewerState, now: SimTime) -> ViewApply {
        if self.held.blocks(&vs, now) {
            return ViewApply::Blocked;
        }
        let slot_entries = self.entries.entry(vs.slot).or_default();
        if let Some(existing) = slot_entries.iter_mut().find(|e| e.kind == vs.kind) {
            if existing.instance != vs.instance {
                return ViewApply::Conflict;
            }
            if existing.play_seq >= vs.play_seq {
                return ViewApply::Duplicate;
            }
            *existing = vs;
            return ViewApply::Updated;
        }
        slot_entries.push(vs);
        ViewApply::Inserted
    }

    fn apply_deschedule(&mut self, d: Deschedule, now: SimTime, hold_until: SimTime) -> bool {
        self.held.apply(d, now, hold_until);
        let Some(slot_entries) = self.entries.get_mut(&d.slot) else {
            return false;
        };
        let before = slot_entries.len();
        slot_entries.retain(|e| !d.matches(e));
        let removed = slot_entries.len() != before;
        if slot_entries.is_empty() {
            self.entries.remove(&d.slot);
        }
        removed
    }

    fn retire(&mut self, slot: SlotId, entry: &ViewerState) -> Option<ViewerState> {
        let slot_entries = self.entries.get_mut(&slot)?;
        let idx = slot_entries.iter().position(|e| {
            e.instance == entry.instance && e.kind == entry.kind && e.play_seq == entry.play_seq
        })?;
        let removed = slot_entries.swap_remove(idx);
        if slot_entries.is_empty() {
            self.entries.remove(&slot);
        }
        Some(removed)
    }
}

/// The view with a slot's usual single entry inline answers exactly as
/// the `Vec`-a-slot model does: every verdict of apply / duplicate /
/// update / conflict, a deschedule over a slot that spilled, the record
/// `retire` returns (and the order its swap leaves behind), `slot_entries`
/// in order, `primary_entry`, `len`, `iter` as a multiset, and
/// `holds_instance` for every instance, both incarnations of a viewer
/// sharing the per-slot summary.
#[test]
fn view_matches_the_vec_model() {
    const SLOTS: u32 = 3;
    check("view_matches_the_vec_model", |rng| {
        let mut view = ScheduleView::new();
        let mut model = VecModel::default();
        let mut now_ms = 0u64;
        // Few slots, few instances and four kinds: slots spill to a second
        // and third entry, collide, and come back to one.
        let record = |rng: &mut SimRng| {
            let mut record = vs(
                rng.gen_range(0..SLOTS),
                rng.gen_range(0u64..3),
                rng.gen_range(0u32..2),
                rng.gen_range(0u32..8),
            );
            let piece = rng.gen_range(0u32..6);
            if piece < 3 {
                let failed_disk = DiskId(7);
                record.kind = StreamKind::Mirror { failed_disk, piece };
            }
            record
        };
        for _ in 0..rng.gen_range(1usize..250) {
            now_ms += rng.gen_range(0u64..3) * 250;
            let now = SimTime::from_millis(now_ms);
            match rng.gen_range(0u32..10) {
                0..=4 => {
                    let vs = record(rng);
                    let want = model.apply_viewer_state(vs, now);
                    assert_eq!(view.apply_viewer_state(vs, now), want, "{vs:?}");
                }
                5 | 6 => {
                    // As the cub retires: a record the slot holds, or, now
                    // and then, one it may not.
                    let held: Vec<_> = model.entries.values().flatten().copied().collect();
                    let entry = match held.len() {
                        0 => record(rng),
                        n if rng.gen_bool(0.8) => held[rng.gen_range(0..n)],
                        _ => record(rng),
                    };
                    let want = model.retire(entry.slot, &entry);
                    assert_eq!(view.retire(entry.slot, &entry), want, "{entry:?}");
                }
                _ => {
                    let d = Deschedule::of(&record(rng));
                    let hold_until = now + SimDuration::from_millis(rng.gen_range(0u64..8) * 250);
                    let want = model.apply_deschedule(d, now, hold_until);
                    assert_eq!(view.apply_deschedule(d, now, hold_until), want, "{d:?}");
                }
            }
            for slot in (0..SLOTS).map(SlotId) {
                let want = model.entries.get(&slot).map_or(&[][..], Vec::as_slice);
                assert_eq!(view.slot_entries(slot), want, "{slot:?}, in order");
                let primary = want.iter().find(|e| e.kind == StreamKind::Primary);
                assert_eq!(view.primary_entry(slot), primary);
                assert_eq!(view.believes_slot_free(slot), primary.is_none());
            }
            let key = |(slot, e): (SlotId, &ViewerState)| (slot, e.instance, format!("{e:?}"));
            let mut listed: Vec<_> = view.iter().map(key).collect();
            let by_slot = model.entries.iter();
            let mut want: Vec<_> = by_slot
                .flat_map(|(slot, held)| held.iter().map(|e| key((*slot, e))))
                .collect();
            listed.sort();
            want.sort();
            assert_eq!(listed, want, "iter, as a multiset");
            assert_eq!(view.len(), want.len());
            assert_eq!(view.is_empty(), want.is_empty());
            for (viewer, incarnation) in (0..3).flat_map(|v| (0..2).map(move |i| (v, i))) {
                let instance = vs(0, viewer, incarnation, 0).instance;
                let held = model
                    .entries
                    .values()
                    .flatten()
                    .any(|e| e.instance == instance);
                assert_eq!(view.holds_instance(&instance), held, "{instance:?}");
            }
        }
    });
}

/// Every primary record, over the whole range of each field, comes back
/// from a [`PrimaryRecord`] unchanged; no other kind makes one.
#[test]
fn a_primary_record_round_trips_through_its_kindless_form() {
    check(
        "a_primary_record_round_trips_through_its_kindless_form",
        |rng| {
            let word = |rng: &mut SimRng| rng.next_u64() as u32;
            let vs = ViewerState {
                instance: ViewerInstance {
                    viewer: ViewerId(rng.next_u64()),
                    incarnation: word(rng),
                },
                client: word(rng),
                file: FileId(word(rng)),
                position: BlockNum(word(rng)),
                slot: SlotId(word(rng)),
                play_seq: word(rng),
                bitrate: Bandwidth::from_bits_per_sec(rng.next_u64()),
                kind: StreamKind::Primary,
            };
            let record = PrimaryRecord::new(&vs).expect("a primary record");
            assert_eq!(record.vs(), vs);
            assert_eq!(record.instance(), vs.instance);
            assert_eq!((record.slot(), record.play_seq()), (vs.slot, vs.play_seq));
            let (disk, piece) = (DiskId(word(rng)), word(rng));
            for kind in [
                StreamKind::Mirror {
                    failed_disk: disk,
                    piece,
                },
                StreamKind::Coded {
                    home_disk: disk,
                    shard: piece,
                },
            ] {
                assert_eq!(PrimaryRecord::new(&ViewerState { kind, ..vs }), None);
            }
        },
    );
}

/// The network schedule never exceeds capacity at any ring position,
/// no matter what sequence of inserts/aborts/commits/removals runs.
#[test]
fn net_schedule_never_overcommits() {
    check("net_schedule_never_overcommits", |rng| {
        let ops = vec_of(rng, 1..120, |r| {
            (
                r.gen_range(0u64..14_000),
                r.gen_range(1u64..8),
                r.gen_range(0u8..4),
                r.gen_range(0u64..20),
            )
        });
        let capacity = Bandwidth::from_mbit_per_sec(20);
        let mut sched = NetworkSchedule::new(
            14,
            SimDuration::from_secs(1),
            capacity,
            Some(SimDuration::from_millis(250)),
        );
        let mut ids = Vec::new();
        for (start_ms, mbit, action, pick) in ops {
            match action {
                0 | 1 => {
                    let start = SimDuration::from_millis(start_ms / 250 * 250);
                    let inst = ViewerInstance {
                        viewer: ViewerId(start_ms ^ mbit),
                        incarnation: 0,
                    };
                    if let Ok(id) =
                        sched.insert(inst, start, Bandwidth::from_mbit_per_sec(mbit), action == 1)
                    {
                        ids.push(id);
                    }
                }
                2 => {
                    if !ids.is_empty() {
                        let id = ids[(pick as usize) % ids.len()];
                        let _ = sched.commit(id);
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let idx = (pick as usize) % ids.len();
                        let id = ids.swap_remove(idx);
                        let _ = sched.abort(id);
                    }
                }
            }
            // Invariant: load never exceeds capacity anywhere.
            let mut pos = SimDuration::ZERO;
            while pos < sched.len_duration() {
                assert!(sched.load_at(pos) <= capacity, "overcommitted at {:?}", pos);
                pos += SimDuration::from_millis(125);
            }
        }
    });
}

/// The pre-cache network schedule: a naive model that rescans every
/// entry on every query. This is exactly the semantics the cached
/// implementation must reproduce — the differential test below drives
/// both through the same operation sequences and demands identical
/// answers to every query at every step.
#[derive(Clone, Copy, Debug)]
struct RefEntry {
    instance: ViewerInstance,
    start: u64,
    rate: u64,
    tentative: bool,
    expires_at: Option<u64>,
}

struct RescanSchedule {
    len: u64,
    bpt: u64,
    capacity: u64,
    quantum: Option<u64>,
    entries: Vec<(u64, RefEntry)>,
    next_id: u64,
}

impl RescanSchedule {
    fn new(num_cubs: u64, bpt: u64, capacity: u64, quantum: Option<u64>) -> Self {
        RescanSchedule {
            len: bpt * num_cubs,
            bpt,
            capacity,
            quantum,
            entries: Vec::new(),
            next_id: 0,
        }
    }

    fn ring_dist(&self, from: u64, to: u64) -> u64 {
        (to + self.len - from) % self.len
    }

    fn load_at(&self, pos: u64) -> u64 {
        let pos = pos % self.len;
        self.entries
            .iter()
            .filter(|(_, e)| self.ring_dist(e.start, pos) < self.bpt)
            .fold(0u64, |a, (_, e)| a.saturating_add(e.rate))
    }

    fn max_load_in_entry_window(&self, start: u64) -> u64 {
        let start = start % self.len;
        let mut max = self.load_at(start);
        for (_, e) in &self.entries {
            if self.ring_dist(start, e.start) < self.bpt {
                max = max.max(self.load_at(e.start));
            }
        }
        max
    }

    fn fits(&self, start: u64, rate: u64) -> bool {
        self.max_load_in_entry_window(start).saturating_add(rate) <= self.capacity
    }

    fn insert(
        &mut self,
        instance: ViewerInstance,
        start: u64,
        rate: u64,
        tentative: bool,
        expires_at: Option<u64>,
    ) -> Result<u64, NetScheduleError> {
        if let Some(q) = self.quantum {
            if !start.is_multiple_of(q) {
                return Err(NetScheduleError::UnalignedStart);
            }
        }
        if !self.fits(start, rate) {
            return Err(NetScheduleError::Overflow);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push((
            id,
            RefEntry {
                instance,
                start: start % self.len,
                rate,
                tentative,
                expires_at: if tentative { expires_at } else { None },
            },
        ));
        Ok(id)
    }

    fn commit(&mut self, id: u64) -> bool {
        for (i, e) in self.entries.iter_mut() {
            if *i == id {
                e.tentative = false;
                e.expires_at = None;
                return true;
            }
        }
        false
    }

    fn abort(&mut self, id: u64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(i, _)| *i != id);
        self.entries.len() != before
    }

    fn remove_instance(&mut self, instance: ViewerInstance) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, e)| e.instance != instance);
        before - self.entries.len()
    }

    fn has_instance(&self, instance: ViewerInstance) -> bool {
        self.entries.iter().any(|(_, e)| e.instance == instance)
    }

    fn expire(&mut self, now: u64) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|(_, e)| !(e.tentative && e.expires_at.is_some_and(|t| t <= now)));
        before - self.entries.len()
    }

    fn admissible_starts(&self, rate: u64, probe: u64) -> Vec<u64> {
        let step = self.quantum.unwrap_or(probe);
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < self.len {
            if self.fits(pos, rate) {
                out.push(pos);
            }
            pos += step;
        }
        out
    }

    fn mean_free_bandwidth(&self, probe: u64) -> u64 {
        let mut total: u128 = 0;
        let mut samples: u64 = 0;
        let mut pos = 0;
        while pos < self.len {
            total += u128::from(self.capacity.saturating_sub(self.load_at(pos)));
            samples += 1;
            pos += probe;
        }
        (total / u128::from(samples.max(1))) as u64
    }
}

/// Asserts that every observable query agrees between the cached
/// schedule and the rescan model, at randomly sampled positions plus
/// every entry boundary.
fn assert_schedules_agree(
    sched: &NetworkSchedule,
    model: &RescanSchedule,
    probe: u64,
    rng: &mut SimRng,
) {
    assert_eq!(sched.len(), model.entries.len(), "entry counts diverged");
    let mut positions = vec![0u64];
    for _ in 0..6 {
        positions.push(rng.gen_range(0..model.len));
    }
    for (_, e) in &model.entries {
        positions.push(e.start);
        positions.push((e.start + model.bpt) % model.len);
    }
    for &p in &positions {
        let pos = SimDuration::from_nanos(p);
        assert_eq!(
            sched.load_at(pos).bits_per_sec(),
            model.load_at(p),
            "load_at({p}) diverged"
        );
        assert_eq!(
            sched.max_load_in_entry_window(pos).bits_per_sec(),
            model.max_load_in_entry_window(p),
            "max_load_in_entry_window({p}) diverged"
        );
    }
    for rate_mbit in [2u64, 5, 19, 21] {
        let rate = Bandwidth::from_mbit_per_sec(rate_mbit);
        for &p in &positions {
            assert_eq!(
                sched.fits(SimDuration::from_nanos(p), rate),
                model.fits(p, rate.bits_per_sec()),
                "fits({p}, {rate_mbit} Mbit) diverged"
            );
        }
        let fast: Vec<u64> = sched
            .admissible_starts(rate, SimDuration::from_nanos(probe))
            .map(|d| d.as_nanos())
            .collect();
        assert_eq!(
            fast,
            model.admissible_starts(rate.bits_per_sec(), probe),
            "admissible_starts({rate_mbit} Mbit) diverged"
        );
    }
    assert_eq!(
        sched
            .mean_free_bandwidth(SimDuration::from_nanos(probe))
            .bits_per_sec(),
        model.mean_free_bandwidth(probe),
        "mean_free_bandwidth diverged"
    );
}

/// Drives the cached schedule and the rescan reference model through
/// one random operation sequence in the given configuration. With
/// `seam` set, a quarter of the fresh inserts start within one block
/// play time before a multiple of `seam` (the ring's end among them),
/// so their windows straddle it.
fn run_differential_case(rng: &mut SimRng, quantum: Option<u64>, num_cubs: u32, seam: Option<u64>) {
    let bpt = SimDuration::from_secs(1).as_nanos();
    let capacity = Bandwidth::from_mbit_per_sec(20);
    let mut sched = NetworkSchedule::new(
        num_cubs,
        SimDuration::from_nanos(bpt),
        capacity,
        quantum.map(SimDuration::from_nanos),
    );
    let mut model = RescanSchedule::new(u64::from(num_cubs), bpt, capacity.bits_per_sec(), quantum);
    let len = model.len;
    let probe = quantum.unwrap_or(bpt / 8);
    let mut ids: Vec<(u64, tiger_sched::NetEntryId)> = Vec::new();
    let mut used_starts = vec![0u64];
    let mut now = 0u64;
    let steps = rng.gen_range(10usize..50);
    for _ in 0..steps {
        now += rng.gen_range(0u64..500_000_000);
        match rng.gen_range(0u32..8) {
            // Insert (committed, tentative, or tentative-with-expiry);
            // sometimes at an already-used start, sometimes unaligned.
            0..=3 => {
                let start = if rng.gen_range(0u32..4) == 0 {
                    used_starts[rng.gen_range(0usize..used_starts.len())]
                } else {
                    let raw = match seam {
                        Some(w) if rng.gen_range(0u32..4) == 0 => {
                            let at = rng.gen_range(1..=len / w) * w;
                            (at - rng.gen_range(1..=bpt)) % len
                        }
                        _ => rng.gen_range(0..len),
                    };
                    match quantum {
                        // Mostly aligned, occasionally deliberately not.
                        Some(q) if rng.gen_range(0u32..8) > 0 => raw / q * q,
                        _ => raw,
                    }
                };
                let rate = Bandwidth::from_mbit_per_sec(rng.gen_range(1u64..9));
                let tentative = rng.gen_range(0u32..2) == 0;
                let expires = if tentative && rng.gen_range(0u32..2) == 0 {
                    Some(now + rng.gen_range(0u64..2_000_000_000))
                } else {
                    None
                };
                let inst = ViewerInstance {
                    viewer: ViewerId(rng.gen_range(0u64..6)),
                    incarnation: 0,
                };
                let got = sched.insert_with_expiry(
                    inst,
                    SimDuration::from_nanos(start),
                    rate,
                    tentative,
                    expires.map(SimTime::from_nanos),
                );
                let want = model.insert(inst, start, rate.bits_per_sec(), tentative, expires);
                assert_eq!(got.is_ok(), want.is_ok(), "insert outcome diverged");
                match (got, want) {
                    (Ok(id), Ok(ref_id)) => {
                        ids.push((ref_id, id));
                        used_starts.push(start % len);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "insert error diverged"),
                    _ => unreachable!(),
                }
            }
            4 => {
                if !ids.is_empty() {
                    let (ref_id, id) = ids[rng.gen_range(0usize..ids.len())];
                    assert_eq!(
                        sched.commit(id).is_ok(),
                        model.commit(ref_id),
                        "commit outcome diverged"
                    );
                }
            }
            5 => {
                if !ids.is_empty() {
                    let (ref_id, id) = ids.swap_remove(rng.gen_range(0usize..ids.len()));
                    assert_eq!(
                        sched.abort(id).is_ok(),
                        model.abort(ref_id),
                        "abort outcome diverged"
                    );
                }
            }
            6 => {
                let inst = ViewerInstance {
                    viewer: ViewerId(rng.gen_range(0u64..6)),
                    incarnation: 0,
                };
                assert_eq!(sched.has_instance(inst), model.has_instance(inst));
                assert_eq!(
                    sched.remove_instance(inst),
                    model.remove_instance(inst),
                    "remove_instance count diverged"
                );
            }
            _ => {
                assert_eq!(
                    sched.expire_reservations(SimTime::from_nanos(now)),
                    model.expire(now),
                    "expiry count diverged"
                );
            }
        }
        assert_schedules_agree(&sched, &model, probe, rng);
    }
}

/// The cached network schedule is observationally identical to a naive
/// full-rescan model under random insert/commit/abort/remove/expiry
/// sequences — quantized starts on a 14-cub ring.
#[test]
fn cached_net_schedule_matches_rescan_model_quantized() {
    check(
        "cached_net_schedule_matches_rescan_model_quantized",
        |rng| {
            let quantum = SimDuration::from_millis(250).as_nanos();
            run_differential_case(rng, Some(quantum), 14, None);
        },
    );
}

/// The quantized differential property on a wide ring: 40 cubs at a
/// 125 ms quantum is 320 start slots, and inserts pile up across every
/// 8 s boundary and across the ring's wrap.
#[test]
fn cached_net_schedule_matches_rescan_model_quantized_wide() {
    check(
        "cached_net_schedule_matches_rescan_model_quantized_wide",
        |rng| {
            let quantum = SimDuration::from_millis(125).as_nanos();
            run_differential_case(rng, Some(quantum), 40, Some(64 * quantum));
        },
    );
}

/// Same differential property for arbitrary (unquantized) starts, the
/// fragmentation ablation's case.
#[test]
fn cached_net_schedule_matches_rescan_model_unquantized() {
    check(
        "cached_net_schedule_matches_rescan_model_unquantized",
        |rng| {
            run_differential_case(rng, None, 5, None);
        },
    );
}

/// Deschedule + viewer-state interleavings: after a deschedule is
/// applied, no interleaving of late viewer states for that instance
/// (any play_seq) can resurrect it while the deschedule is held.
#[test]
fn no_spontaneous_reschedule() {
    check("no_spontaneous_reschedule", |rng| {
        let play_seqs = vec_of(rng, 1..20, |r| r.gen_range(0u32..50));
        let hold_ms = rng.gen_range(1_000u64..10_000);
        let mut view = ScheduleView::new();
        let record = vs(3, 7, 0, 0);
        view.apply_viewer_state(record, SimTime::ZERO);
        let d = Deschedule {
            instance: record.instance,
            slot: record.slot,
        };
        let now = SimTime::from_millis(100);
        view.apply_deschedule(d, now, now + SimDuration::from_millis(hold_ms));
        for (i, seq) in play_seqs.iter().enumerate() {
            let t = SimTime::from_millis(101 + i as u64);
            let late = vs(3, 7, 0, *seq);
            let r = view.apply_viewer_state(late, t);
            assert_eq!(r, ViewApply::Blocked, "late state resurrected the viewer");
        }
        assert!(view.believes_slot_free(SlotId(3)));
    });
}

#[test]
fn det_hasher_spreads_the_schedule_keys() {
    use tiger_sim::check::assert_hash_spreads;
    let instance = |viewer: u64| ViewerInstance {
        viewer: ViewerId(viewer),
        incarnation: (viewer % 3) as u32,
    };
    // The shadow table's key: every slot of the SOSP schedule against a
    // block of consecutive viewers.
    assert_hash_spreads(
        "(SlotId, ViewerInstance) grid",
        (0u32..602).flat_map(|s| (0u64..109).map(move |v| (SlotId(s), instance(v)))),
    );
    // The held-deschedule map's: consecutive viewers, each in its slot.
    assert_hash_spreads(
        "Deschedule",
        (0u64..65_536).map(|v| Deschedule {
            instance: instance(v),
            slot: SlotId((v % 602) as u32),
        }),
    );
}
