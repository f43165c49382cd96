//! The two-dimensional network schedule of the multiple-bitrate system
//! (§3.2, §4.2).
//!
//! "The x-axis is time and the y-axis bandwidth. The overall length of the
//! schedule is the block play time times the number of cubs, while the
//! height is the bandwidth of a cub's network interface cards. The length
//! of an entry in the network schedule is one block play time, and the
//! height is determined by the bitrate of the stream being serviced."
//!
//! Entries may be *tentative* (two-phase insertion, §4.2): a reservation
//! blocks capacity but does no work until committed; an abort releases it.
//! A reservation may carry an expiry deadline — [`NetworkSchedule::expire_reservations`]
//! sweeps overdue ones, so a lost release message cannot leak capacity
//! forever.
//!
//! Fragmentation (§3.2): free bandwidth can become unusable when gaps in
//! the time axis are shorter than one block play time. The paper's fix —
//! "viewers are forced to start at times that are integral multiples of
//! the block play time divided by the decluster factor" — is modelled by
//! the quantized-starts insertion mode, and
//! [`NetworkSchedule::fragmentation`] measures the waste either way.
//!
//! Load is not recomputed per query: a breakpoint index (see
//! `load_index.rs` and docs/ADMISSION.md) is updated at one key on
//! every reservation change and answers `fits` from the entries near the
//! probed window. The index is a pure cache — every query returns exactly
//! what a full rescan of the entries would.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use tiger_layout::ids::ViewerInstance;
use tiger_sim::{Bandwidth, SimDuration, SimTime};

use crate::load_index::LoadIndex;

/// Identifier of a network-schedule entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NetEntryId(pub u64);

/// Errors from network-schedule operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetScheduleError {
    /// Admitting the entry would exceed NIC capacity somewhere in its span.
    Overflow,
    /// The start position is not on the required quantization grid.
    UnalignedStart,
    /// Unknown entry id.
    UnknownEntry(NetEntryId),
}

impl std::fmt::Display for NetScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetScheduleError::Overflow => write!(f, "insertion would exceed NIC capacity"),
            NetScheduleError::UnalignedStart => {
                write!(f, "start position not on the quantization grid")
            }
            NetScheduleError::UnknownEntry(id) => write!(f, "unknown entry {id:?}"),
        }
    }
}

impl std::error::Error for NetScheduleError {}

#[derive(Clone, Copy, Debug)]
struct NetEntry {
    instance: ViewerInstance,
    /// Ring position where the entry's block play time span begins.
    start: SimDuration,
    rate: Bandwidth,
    tentative: bool,
    /// Reservation deadline; tentative entries past it are removed by
    /// [`NetworkSchedule::expire_reservations`]. Cleared on commit.
    expires_at: Option<SimTime>,
}

/// One cub's picture of the network schedule ring.
#[derive(Clone, Debug)]
pub struct NetworkSchedule {
    /// Ring length: block play time × number of cubs.
    len: SimDuration,
    /// Entry duration: one block play time.
    bpt: SimDuration,
    /// NIC capacity (the schedule's height).
    capacity: Bandwidth,
    /// Start-position quantum; `None` allows arbitrary starts.
    quantum: Option<SimDuration>,
    entries: HashMap<NetEntryId, NetEntry>,
    /// Entry ids per viewer instance, for O(own entries) deschedule.
    by_instance: HashMap<ViewerInstance, Vec<NetEntryId>>,
    /// The incrementally maintained load profile.
    index: LoadIndex,
    /// Pending reservation deadlines (lazily pruned min-heap; entries that
    /// were committed or aborted first are skipped on pop).
    expiring: BinaryHeap<Reverse<(SimTime, NetEntryId)>>,
    next_id: u64,
}

impl NetworkSchedule {
    /// Creates an empty schedule ring.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `bpt` does not divide `len`.
    pub fn new(
        num_cubs: u32,
        bpt: SimDuration,
        capacity: Bandwidth,
        quantum: Option<SimDuration>,
    ) -> Self {
        assert!(num_cubs > 0 && !bpt.is_zero() && !capacity.is_zero());
        if let Some(q) = quantum {
            assert!(
                !q.is_zero() && bpt.as_nanos().is_multiple_of(q.as_nanos()),
                "quantum must divide the block play time"
            );
        }
        let len = bpt.mul_u64(u64::from(num_cubs));
        NetworkSchedule {
            len,
            bpt,
            capacity,
            quantum,
            entries: HashMap::new(),
            by_instance: HashMap::new(),
            index: LoadIndex::new(len.as_nanos(), bpt.as_nanos()),
            expiring: BinaryHeap::new(),
            next_id: 0,
        }
    }

    /// Ring length.
    pub fn len_duration(&self) -> SimDuration {
        self.len
    }

    /// Entry duration: one block play time.
    pub fn block_play_time(&self) -> SimDuration {
        self.bpt
    }

    /// Start-position quantum, if starts are quantized.
    pub fn quantum(&self) -> Option<SimDuration> {
        self.quantum
    }

    /// NIC capacity (schedule height).
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Instantaneous load at ring position `pos`, counting tentative
    /// entries (a reservation blocks capacity).
    pub fn load_at(&self, pos: SimDuration) -> Bandwidth {
        Bandwidth::from_bits_per_sec(self.index.load_at(pos.as_nanos()))
    }

    /// The maximum instantaneous load in the window `[start, start+bpt)`.
    pub fn max_load_in_entry_window(&self, start: SimDuration) -> Bandwidth {
        Bandwidth::from_bits_per_sec(self.index.max_in_entry_window(start.as_nanos()))
    }

    /// Whether an entry of `rate` starting at `start` fits under capacity.
    pub fn fits(&self, start: SimDuration, rate: Bandwidth) -> bool {
        let Some(headroom) = self.capacity.checked_sub(rate) else {
            return false;
        };
        self.index.max_in_entry_window(start.as_nanos()) <= headroom.bits_per_sec()
    }

    /// Validates a start against the quantization grid.
    fn check_alignment(&self, start: SimDuration) -> Result<(), NetScheduleError> {
        if let Some(q) = self.quantum {
            if !start.as_nanos().is_multiple_of(q.as_nanos()) {
                return Err(NetScheduleError::UnalignedStart);
            }
        }
        Ok(())
    }

    /// Inserts an entry; `tentative` marks a two-phase reservation.
    pub fn insert(
        &mut self,
        instance: ViewerInstance,
        start: SimDuration,
        rate: Bandwidth,
        tentative: bool,
    ) -> Result<NetEntryId, NetScheduleError> {
        self.insert_with_expiry(instance, start, rate, tentative, None)
    }

    /// Inserts an entry; a tentative entry with `expires_at` set is
    /// removed by [`Self::expire_reservations`] once that instant is
    /// reached, unless committed or aborted first.
    pub fn insert_with_expiry(
        &mut self,
        instance: ViewerInstance,
        start: SimDuration,
        rate: Bandwidth,
        tentative: bool,
        expires_at: Option<SimTime>,
    ) -> Result<NetEntryId, NetScheduleError> {
        debug_assert!(start < self.len);
        self.check_alignment(start)?;
        if !self.fits(start, rate) {
            return Err(NetScheduleError::Overflow);
        }
        let start = SimDuration::from_nanos(start.as_nanos() % self.len.as_nanos());
        let expires_at = if tentative { expires_at } else { None };
        let id = NetEntryId(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            NetEntry {
                instance,
                start,
                rate,
                tentative,
                expires_at,
            },
        );
        self.by_instance.entry(instance).or_default().push(id);
        self.index.add(start.as_nanos(), rate.bits_per_sec());
        if let Some(at) = expires_at {
            self.expiring.push(Reverse((at, id)));
        }
        Ok(id)
    }

    /// Removes `id` from every structure. The lazily pruned expiry heap is
    /// left alone: a stale deadline is skipped when popped.
    fn remove_entry(&mut self, id: NetEntryId) -> Option<NetEntry> {
        let e = self.entries.remove(&id)?;
        self.index.sub(e.start.as_nanos(), e.rate.bits_per_sec());
        if let Some(ids) = self.by_instance.get_mut(&e.instance) {
            if let Some(pos) = ids.iter().position(|i| *i == id) {
                ids.swap_remove(pos);
            }
            if ids.is_empty() {
                self.by_instance.remove(&e.instance);
            }
        }
        Some(e)
    }

    /// Commits a tentative entry ("replace the reservation with a real
    /// schedule entry"). Committed entries never expire.
    pub fn commit(&mut self, id: NetEntryId) -> Result<(), NetScheduleError> {
        let e = self
            .entries
            .get_mut(&id)
            .ok_or(NetScheduleError::UnknownEntry(id))?;
        e.tentative = false;
        e.expires_at = None;
        Ok(())
    }

    /// Commits every entry of `instance` (see [`Self::commit`]). Returns
    /// whether there was one.
    pub fn commit_instance(&mut self, instance: ViewerInstance) -> bool {
        for id in self.by_instance.get(&instance).into_iter().flatten() {
            let e = self.entries.get_mut(id).expect("indexed entry exists");
            (e.tentative, e.expires_at) = (false, None);
        }
        self.by_instance.contains_key(&instance)
    }

    /// Aborts (removes) a tentative or committed entry.
    pub fn abort(&mut self, id: NetEntryId) -> Result<(), NetScheduleError> {
        self.remove_entry(id)
            .map(|_| ())
            .ok_or(NetScheduleError::UnknownEntry(id))
    }

    /// Removes every tentative entry whose expiry deadline has been
    /// reached (`expires_at <= now`). Returns how many were removed.
    ///
    /// A reservation that was committed at exactly its deadline stays (the
    /// commit cleared the deadline); one swept at exactly its deadline is
    /// gone, and a late commit gets [`NetScheduleError::UnknownEntry`].
    pub fn expire_reservations(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        while let Some(&Reverse((at, id))) = self.expiring.peek() {
            if at > now {
                break;
            }
            self.expiring.pop();
            // Skip stale heap entries: committed (deadline cleared) or
            // already aborted reservations.
            let live = self
                .entries
                .get(&id)
                .is_some_and(|e| e.tentative && e.expires_at == Some(at));
            if live {
                self.remove_entry(id);
                removed += 1;
            }
        }
        removed
    }

    /// Whether any entry (committed or tentative) exists for `instance`.
    pub fn has_instance(&self, instance: ViewerInstance) -> bool {
        self.by_instance.contains_key(&instance)
    }

    /// Removes all entries for `instance` (deschedule). Returns how many
    /// were removed.
    pub fn remove_instance(&mut self, instance: ViewerInstance) -> usize {
        let Some(ids) = self.by_instance.remove(&instance) else {
            return 0;
        };
        let removed = ids.len();
        for id in ids {
            let e = self.entries.remove(&id).expect("indexed entry exists");
            self.index.sub(e.start.as_nanos(), e.rate.bits_per_sec());
        }
        removed
    }

    /// Number of entries (committed + tentative).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the schedule holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All candidate start positions on the quantization grid (or on a
    /// `probe` grid when starts are unquantized) at which an entry of
    /// `rate` currently fits, as an allocation-free iterator in ring
    /// order.
    pub fn admissible_starts(&self, rate: Bandwidth, probe: SimDuration) -> AdmissibleStarts<'_> {
        let step = self.quantum.unwrap_or(probe);
        assert!(!step.is_zero());
        AdmissibleStarts {
            sched: self,
            rate,
            step,
            pos: SimDuration::ZERO,
        }
    }

    /// Mean free bandwidth over the ring, sampled at `probe` resolution.
    pub fn mean_free_bandwidth(&self, probe: SimDuration) -> Bandwidth {
        assert!(!probe.is_zero());
        let mut total: u128 = 0;
        let mut samples: u64 = 0;
        let mut pos = SimDuration::ZERO;
        while pos < self.len {
            let load = self.load_at(pos);
            total += u128::from(
                self.capacity
                    .checked_sub(load)
                    .unwrap_or(Bandwidth::ZERO)
                    .bits_per_sec(),
            );
            samples += 1;
            pos += probe;
        }
        Bandwidth::from_bits_per_sec((total / u128::from(samples.max(1))) as u64)
    }

    /// The §3.2 fragmentation metric: the fraction of mean free bandwidth
    /// that cannot be used by streams of `rate`, because no admissible
    /// start window can carry them.
    ///
    /// 0.0 = all free bandwidth is reachable (or there is none); 1.0 = free
    /// bandwidth exists but no stream of `rate` can start at all.
    pub fn fragmentation(&self, rate: Bandwidth, probe: SimDuration) -> f64 {
        let free = self.mean_free_bandwidth(probe).bits_per_sec() as f64;
        if free == 0.0 {
            return 0.0; // Genuinely full, not fragmented.
        }
        // Greedily pack as many rate-streams as currently fit (each
        // admission changes the landscape, so simulate the packing). An
        // entry holds `rate` for one `bpt` of the `len`-long ring, so it
        // takes `rate * bpt / len` of the ring-mean free bandwidth.
        let mut trial = self.clone();
        let share = self.bpt.as_nanos() as f64 / self.len.as_nanos() as f64;
        let mut packed_bits = 0f64;
        while let Some(s) = trial.admissible_starts(rate, probe).next() {
            let inst = ViewerInstance::default();
            if trial.insert(inst, s, rate, false).is_err() {
                break;
            }
            packed_bits += rate.bits_per_sec() as f64 * share;
            if packed_bits >= free {
                break;
            }
        }
        (1.0 - packed_bits / free).clamp(0.0, 1.0)
    }
}

/// Iterator over admissible start positions; see
/// [`NetworkSchedule::admissible_starts`].
pub struct AdmissibleStarts<'a> {
    sched: &'a NetworkSchedule,
    rate: Bandwidth,
    step: SimDuration,
    pos: SimDuration,
}

impl Iterator for AdmissibleStarts<'_> {
    type Item = SimDuration;

    fn next(&mut self) -> Option<SimDuration> {
        while self.pos < self.sched.len {
            let p = self.pos;
            self.pos += self.step;
            if self.sched.fits(p, self.rate) {
                return Some(p);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ViewerId;

    fn inst(v: u64) -> ViewerInstance {
        ViewerInstance {
            viewer: ViewerId(v),
            incarnation: 0,
        }
    }

    fn mbit(n: u64) -> Bandwidth {
        Bandwidth::from_mbit_per_sec(n)
    }

    fn sec(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// A 3-cub ring (3 s long), 6 Mbit/s NIC — the Figure 4 setting.
    fn fig4() -> NetworkSchedule {
        NetworkSchedule::new(3, sec(1), mbit(6), None)
    }

    #[test]
    fn load_accumulates_and_wraps() {
        let mut s = fig4();
        s.insert(inst(0), ms(0), mbit(2), false).expect("fits");
        s.insert(inst(1), ms(500), mbit(3), false).expect("fits");
        // Entry spanning the ring end.
        s.insert(inst(2), ms(2500), mbit(1), false).expect("fits");
        assert_eq!(s.load_at(ms(0)), mbit(3)); // viewer 0 + wrap of viewer 2
        assert_eq!(s.load_at(ms(600)), mbit(5));
        assert_eq!(s.load_at(ms(1200)), mbit(3));
        assert_eq!(s.load_at(ms(2600)), mbit(1));
    }

    #[test]
    fn capacity_is_enforced_across_the_window() {
        let mut s = fig4();
        s.insert(inst(0), ms(0), mbit(4), false).expect("fits");
        // A 3 Mbit/s entry at 500 would overlap the 4 Mbit/s one: 7 > 6.
        assert_eq!(
            s.insert(inst(1), ms(500), mbit(3), false),
            Err(NetScheduleError::Overflow)
        );
        // At 1000 (no overlap) it fits.
        s.insert(inst(1), ms(1000), mbit(3), false).expect("fits");
        // 2 Mbit/s overlapping the 4 fits exactly (6 = capacity).
        s.insert(inst(2), ms(500), mbit(2), false)
            .expect("fits at capacity");
    }

    #[test]
    fn fig4_fragmentation_example() {
        // §3.2: "The free bandwidth below the 6 Mbit/s level between when
        // viewer 4 finishes sending and when viewer 2 starts is unusable,
        // because any new entry would be one block play time long, and the
        // gap in the schedule is slightly too short."
        let mut s = fig4();
        // viewer 4: 2 Mbit/s at [0, 1); viewer 2 starts at 1.875 with the
        // rest of the band busy enough that the 2 Mbit/s lane is only free
        // in [1, 1.875).
        s.insert(inst(4), ms(0), mbit(2), false).expect("fits");
        s.insert(inst(2), ms(1875), mbit(2), false).expect("fits");
        // Fill the remaining 4 Mbit/s everywhere.
        s.insert(inst(10), ms(0), mbit(4), false).expect("fits");
        s.insert(inst(11), ms(1000), mbit(4), false).expect("fits");
        s.insert(inst(12), ms(2000), mbit(4), false).expect("fits");
        // The 2 Mbit/s lane gap [1.0, 1.875) is < 1 s: nothing fits there.
        for start_ms in [1000u64, 1100, 1500, 1800] {
            assert!(
                !s.fits(ms(start_ms), mbit(2)),
                "gap too short at {start_ms}"
            );
        }
        assert!(s.fragmentation(mbit(2), ms(125)) > 0.0);
    }

    #[test]
    fn quantized_starts_reject_unaligned() {
        // decluster 4 → quantum = bpt/4 = 250 ms.
        let mut s = NetworkSchedule::new(3, sec(1), mbit(6), Some(ms(250)));
        assert_eq!(
            s.insert(inst(0), ms(100), mbit(2), false),
            Err(NetScheduleError::UnalignedStart)
        );
        s.insert(inst(0), ms(250), mbit(2), false)
            .expect("aligned start fits");
    }

    #[test]
    fn tentative_entries_block_capacity_until_aborted() {
        let mut s = fig4();
        let id = s.insert(inst(0), ms(0), mbit(4), true).expect("fits");
        assert_eq!(
            s.insert(inst(1), ms(0), mbit(4), false),
            Err(NetScheduleError::Overflow),
            "reservation blocks capacity"
        );
        s.abort(id).expect("known id");
        s.insert(inst(1), ms(0), mbit(4), false)
            .expect("fits after abort");
    }

    #[test]
    fn commit_makes_reservation_permanent() {
        let mut s = fig4();
        let id = s.insert(inst(0), ms(0), mbit(4), true).expect("fits");
        s.commit(id).expect("known id");
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.commit(NetEntryId(99)),
            Err(NetScheduleError::UnknownEntry(NetEntryId(99)))
        );
    }

    #[test]
    fn remove_instance_clears_all_entries() {
        let mut s = fig4();
        s.insert(inst(7), ms(0), mbit(1), false).expect("fits");
        s.insert(inst(7), ms(1000), mbit(1), false).expect("fits");
        s.insert(inst(8), ms(0), mbit(1), false).expect("fits");
        assert_eq!(s.remove_instance(inst(7)), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn quantization_reduces_fragmentation_under_churn() {
        // Start/stop churn with arbitrary starts leaves odd-sized gaps;
        // with quantized starts the landscape stays packable. This is the
        // §3.2 claim in miniature.
        let run = |quantum: Option<SimDuration>| -> f64 {
            let mut s = NetworkSchedule::new(8, sec(1), mbit(6), quantum);
            // Deterministic churn pattern with awkward offsets.
            let offsets: &[u64] = &[
                0, 217, 733, 1250, 1901, 2500, 3333, 4250, 5111, 6000, 6777, 7500,
            ];
            let mut ids = Vec::new();
            for (i, &off) in offsets.iter().enumerate() {
                let start = match quantum {
                    Some(q) => ms(off).as_nanos() / q.as_nanos() * q.as_nanos(),
                    None => ms(off).as_nanos(),
                };
                if let Ok(id) = s.insert(
                    inst(i as u64),
                    SimDuration::from_nanos(start),
                    mbit(2),
                    false,
                ) {
                    ids.push(id);
                }
            }
            // Stop every other stream, leaving fragmented gaps.
            for id in ids.iter().step_by(2) {
                let _ = s.abort(*id);
            }
            s.fragmentation(mbit(2), ms(50))
        };
        let arbitrary = run(None);
        let quantized = run(Some(ms(250)));
        assert!(arbitrary > 0.0, "churn left no fragmentation to reduce");
        assert!(
            quantized <= arbitrary,
            "quantized {quantized} should not fragment more than arbitrary {arbitrary}"
        );
    }

    #[test]
    fn abort_after_commit_removes_the_entry() {
        // A commit makes the reservation permanent, but a later abort (a
        // deschedule addressed by entry id) still removes it and frees
        // the bandwidth.
        let mut s = fig4();
        let id = s.insert(inst(0), ms(0), mbit(6), true).expect("fits");
        s.commit(id).expect("known id");
        assert!(!s.fits(ms(0), mbit(1)), "committed entry holds capacity");
        s.abort(id).expect("committed entries can be aborted");
        assert_eq!(s.len(), 0);
        assert!(s.fits(ms(0), mbit(6)), "capacity freed");
        // A second abort of the same id is an error, not a double-free.
        assert_eq!(s.abort(id), Err(NetScheduleError::UnknownEntry(id)));
        assert!(!s.has_instance(inst(0)));
    }

    #[test]
    fn double_remove_of_instance_is_a_noop() {
        let mut s = fig4();
        s.insert(inst(3), ms(0), mbit(2), false).expect("fits");
        s.insert(inst(3), ms(1000), mbit(2), true).expect("fits");
        assert_eq!(s.remove_instance(inst(3)), 2);
        assert_eq!(s.remove_instance(inst(3)), 0, "second remove finds nothing");
        assert!(!s.has_instance(inst(3)));
        assert_eq!(s.load_at(ms(0)), Bandwidth::ZERO);
        assert_eq!(s.load_at(ms(1000)), Bandwidth::ZERO);
    }

    #[test]
    fn reservation_expiry_frees_capacity() {
        let mut s = fig4();
        s.insert_with_expiry(
            inst(0),
            ms(0),
            mbit(6),
            true,
            Some(SimTime::from_millis(700)),
        )
        .expect("fits");
        // Before the deadline the reservation blocks capacity.
        assert_eq!(s.expire_reservations(SimTime::from_millis(699)), 0);
        assert!(!s.fits(ms(0), mbit(1)));
        // At the deadline it is swept and the bandwidth is free again.
        assert_eq!(s.expire_reservations(SimTime::from_millis(700)), 1);
        assert!(!s.has_instance(inst(0)));
        assert!(s.fits(ms(0), mbit(6)));
    }

    #[test]
    fn expiry_racing_commit() {
        // Commit first: the reservation becomes permanent and the sweep
        // at (and past) the deadline leaves it alone.
        let deadline = SimTime::from_millis(500);
        let mut s = fig4();
        let id = s
            .insert_with_expiry(inst(0), ms(0), mbit(4), true, Some(deadline))
            .expect("fits");
        s.commit(id).expect("known id");
        assert_eq!(s.expire_reservations(deadline), 0);
        assert_eq!(s.expire_reservations(SimTime::from_secs(10)), 0);
        assert!(s.has_instance(inst(0)));
        // Sweep first: a commit arriving at the same instant but after
        // the sweep ran has lost the race.
        let mut s2 = fig4();
        let id2 = s2
            .insert_with_expiry(inst(1), ms(0), mbit(4), true, Some(deadline))
            .expect("fits");
        assert_eq!(s2.expire_reservations(deadline), 1);
        assert_eq!(s2.commit(id2), Err(NetScheduleError::UnknownEntry(id2)));
        assert!(
            !s2.commit_instance(inst(1)),
            "nor can it commit by instance"
        );
    }

    #[test]
    fn committed_entries_never_expire() {
        // Non-tentative inserts ignore the expiry argument entirely.
        let mut s = fig4();
        s.insert_with_expiry(
            inst(0),
            ms(0),
            mbit(2),
            false,
            Some(SimTime::from_millis(1)),
        )
        .expect("fits");
        assert_eq!(s.expire_reservations(SimTime::from_secs(100)), 0);
        assert!(s.has_instance(inst(0)));
    }

    #[test]
    fn probes_at_exact_quantum_boundaries() {
        // decluster 4 on a 3 s ring: 12 slots of 250 ms. An entry's window
        // is [start, start + bpt) — half-open — so a probe at start + bpt
        // exactly does not see it, while start + bpt - 1ns does.
        let mut s = NetworkSchedule::new(3, sec(1), mbit(6), Some(ms(250)));
        s.insert(inst(0), ms(250), mbit(6), false).expect("fits");
        assert_eq!(s.load_at(ms(250)), mbit(6), "window start is inclusive");
        assert_eq!(
            s.load_at(SimDuration::from_nanos(ms(1250).as_nanos() - 1)),
            mbit(6),
            "last instant of the window"
        );
        assert_eq!(s.load_at(ms(1250)), Bandwidth::ZERO, "window end exclusive");
        assert!(!s.fits(ms(250), mbit(1)));
        assert!(
            !s.fits(ms(1000), mbit(1)),
            "a window starting at the last covered slot still overlaps"
        );
        assert!(s.fits(ms(1250), mbit(6)), "back-to-back windows fit");
        // The same boundaries hold for unaligned probes of a full window.
        assert!(!s.fits(SimDuration::from_nanos(ms(250).as_nanos() + 1), mbit(1)));
    }

    #[test]
    fn admissible_starts_iterator_matches_ring_order() {
        let mut s = NetworkSchedule::new(3, sec(1), mbit(6), Some(ms(250)));
        s.insert(inst(0), ms(0), mbit(6), false).expect("fits");
        s.insert(inst(1), ms(2000), mbit(5), false).expect("fits");
        let starts: Vec<SimDuration> = s.admissible_starts(mbit(2), ms(250)).collect();
        // Blocked: [0,1) by the 6 Mbit/s entry, [2,3) by the 5 Mbit/s one
        // (5 + 2 > 6), and the wrap of anything ending past 3 s is the
        // ring start again. Admissible windows must start in [1, 2).
        assert_eq!(starts, vec![ms(1000)]);
        // A rate above capacity is never admissible.
        assert_eq!(s.admissible_starts(mbit(7), ms(250)).count(), 0);
    }

    #[test]
    fn admissible_starts_match_a_window_scan_on_512_slots() {
        // Decluster 8 on a 64 s ring is 512 candidate starts, loaded
        // unevenly so some windows have room and others do not.
        let q = ms(125);
        let mut s = NetworkSchedule::new(64, sec(1), mbit(135), Some(q));
        for i in 0..300u64 {
            let start = SimDuration::from_nanos((i * 3) % 512 * q.as_nanos());
            let _ = s.insert(inst(i), start, mbit(2), false);
        }
        let starts: Vec<SimDuration> = s.admissible_starts(mbit(96), q).collect();
        let scan: Vec<SimDuration> = (0..512u64)
            .map(|i| SimDuration::from_nanos(i * q.as_nanos()))
            .filter(|&p| s.max_load_in_entry_window(p).saturating_add(mbit(96)) <= s.capacity())
            .collect();
        assert_eq!(starts, scan);
    }
}
