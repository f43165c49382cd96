//! A deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO among ties). This matters for protocol fidelity:
//! the Tiger insertion-ordering argument of §4.1.3 assumes that a cub that
//! sends a deschedule before an insertion has those messages *processed* in
//! that order, and the simulation must not reorder them through queue
//! internals.
//!
//! The queue is a calendar, the shape of the paper's own schedule (§3.1: a
//! ring indexed by time that a pointer walks). This is the innermost loop
//! of every experiment run, and a full-scale system keeps 10–40 k events
//! pending, nearly all of them seconds ahead; a comparison heap pays for
//! that depth on every operation, the calendar does not:
//!
//! * An event waiting for its bucket sits in one slab slot, allocated from
//!   a free list: a 24-byte link (time, rank, next slot) and the payload,
//!   in two parallel vectors.
//! * Time is cut into buckets of 2²⁰ ns (≈1 ms). The bucket being drained,
//!   `cur`, was *loaded* when the calendar reached it: its events, a dozen
//!   at full scale, were moved out of the slab into the *run*, a vector
//!   sorted by `key` with the head last — `(time, rank)` packed into one
//!   `u128`, so a single integer compare orders by time first and
//!   scheduling order second. A pop is a `Vec::pop`. The payloads were
//!   scheduled seconds ago and are cold; fetched as the load walks the
//!   bucket's list their misses overlap with one another and with the
//!   walk's own, where one fetched at each pop stood alone between two
//!   handlers (EXPERIMENTS.md "RUN").
//! * A *late arrival* — anything scheduled at or before `cur` once `cur`
//!   is loaded, one schedule in eight hundred — takes a slab slot and goes
//!   under its key into a small binary heap. Not into the run: a queue
//!   that opens far ahead of a backlog puts all of it here, and an insert
//!   into a sorted vector pays a memmove where the heap pays a logarithm.
//! * The 2¹⁴ − 1 buckets after `cur` (≈17 s: past `maxVStateLead` plus the
//!   mirror fan-out, the longest routine delay) are a ring of intrusive
//!   singly-linked lists threaded through the links, with an occupancy
//!   bitmap to find the next non-empty one. Scheduling into the ring is a
//!   list push; order inside a bucket is settled when the bucket is
//!   loaded.
//! * Anything later still (pre-scheduled client starts, restarts,
//!   restripes) waits in a small *overflow* heap and moves into the ring
//!   once, when `cur` comes within a ring of it.
//!
//! Ties fall to a *rank*, drawn from one counter. [`EventQueue::schedule`]
//! takes the next one; [`EventQueue::reserve_ranks`] hands out a block of
//! them for events that enter the queue later, under
//! [`EventQueue::schedule_ranked`], and pop where they would have popped
//! had each been scheduled when its rank was drawn. A workload plan is
//! drawn whole up front and enters a session's next operation at a time;
//! its reserved ranks keep every tie as it was (DESIGN.md "Demand").
//!
//! Why the pop order is exactly `(time, rank)`: the run and the late heap
//! together hold every pending event whose bucket is at or before `cur`,
//! the ring holds exactly those with `cur < bucket < cur + RING` (so each
//! ring position stands for one bucket), and the overflow heap the rest.
//! `cur` only rises, and only to the smallest occupied bucket, when run
//! and late heap are both empty; so the smaller of their two heads, by the
//! whole key, is the queue's head whenever anything is pending, and ties
//! fall to the rank wherever their members sit. Nothing in that argument
//! asks an event's rank to be newer than those already pending: one
//! scheduled into the bucket being drained under a rank older than the
//! run's head goes to the late heap, and the head comparison finds it.
//! The pop that empties both loads the next bucket before returning,
//! which keeps [`EventQueue::peek_time`] a plain read.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// log₂ of a bucket's width in nanoseconds. A constant, not an option: the
/// order is right at any width, and at full scale 2¹⁸ and 2²³ ns both
/// measured 8–11 % slower end to end (EXPERIMENTS.md "QUEUE").
const BUCKET_SHIFT: u32 = 20;
/// Buckets in the ring; a power of two.
const RING: u64 = 1 << 14;
/// The null slot index: the end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// A slab slot under its ordering key, `time << 64 | rank`. `Reverse`
/// because `BinaryHeap` is a max-heap and the earliest key pops first.
type Keyed = Reverse<(u128, u32)>;

fn key_of(at: u64, rank: u64) -> u128 {
    (u128::from(at) << 64) | u128::from(rank)
}

fn time_of(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

fn bucket_of(key: u128) -> u64 {
    (key >> (64 + BUCKET_SHIFT)) as u64
}

/// An event queue keyed by simulated time with FIFO tie-breaking.
///
/// The queue also owns the simulated clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Scheduling an event in the
/// past is a logic error and panics, because it would mean the simulation
/// produced an effect before its cause.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    /// The next rank to hand out: the FIFO tie-break of the next event
    /// [`EventQueue::schedule`] takes, or the first of the next reserved
    /// block.
    next_rank: u64,
    /// Events scheduled so far.
    scheduled: u64,
    /// Events [`EventQueue::jump_to`] threw away unpopped.
    discarded: u64,
    /// Pending events: run + late heap + ring + overflow heap.
    len: usize,
    /// The bucket (`time >> BUCKET_SHIFT`) being drained. Only rises.
    cur: u64,
    /// What is left of bucket `cur` as it was loaded, latest key first:
    /// the head is the last element. These events hold no slab slot.
    /// Never shrunk: once the fullest bucket of a run has passed, a load
    /// allocates nothing.
    run: Vec<(u128, E)>,
    /// Every pending event scheduled at bucket `cur` or before it after
    /// `cur` was loaded.
    late: BinaryHeap<Keyed>,
    /// The list head of each bucket in `cur + 1 .. cur + RING`, indexed by
    /// bucket modulo `RING`; `NIL` where empty. Allocated on first use: a
    /// queue that never looks a millisecond ahead never pays for it.
    heads: Vec<u32>,
    /// One bit per ring position, set where `heads` is not `NIL`.
    occupied: Vec<u64>,
    /// Every pending event at bucket `cur + RING` or beyond.
    overflow: BinaryHeap<Keyed>,
    /// Slot `i` is `links[i]` and `events[i]`. Apart, because a bucket's
    /// list is a chain of dependent loads through the links, and 42 k of
    /// them fit a cache that 42 k whole slots do not (+5–9 % end to end at
    /// that depth). A load moves each payload out as the walk reaches its
    /// link, and no step of the chain waits for one.
    links: Vec<Link>,
    /// `None` while the slot is on the free list.
    events: Vec<Option<E>>,
    /// The head of the free-slot list, through `Link::next`.
    free: u32,
}

#[derive(Debug)]
struct Link {
    at: u64,
    rank: u64,
    /// The next slot of the same ring bucket, or of the free list.
    next: u32,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the epoch.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// long runs do not regrow the slab mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            now: SimTime::ZERO,
            next_rank: 0,
            scheduled: 0,
            discarded: 0,
            len: 0,
            cur: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            heads: Vec::new(),
            occupied: Vec::new(),
            overflow: BinaryHeap::new(),
            links: Vec::with_capacity(capacity),
            events: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        // The run's events are pending and hold no slot: counting them in
        // keeps `capacity() >= len() + additional` afterwards.
        let slots = additional + self.run.len();
        self.links.reserve(slots);
        self.events.reserve(slots);
    }

    /// The number of pending events the queue can hold without regrowing
    /// the slab.
    pub fn capacity(&self) -> usize {
        self.events.capacity().min(self.links.capacity())
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events scheduled over the queue's lifetime, dispatched or not.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Events popped over the queue's lifetime: every event scheduled is
    /// pending, popped, or was discarded by [`EventQueue::jump_to`], so
    /// the pop path itself counts nothing.
    pub fn dispatched(&self) -> u64 {
        self.scheduled - self.discarded - self.len as u64
    }

    /// Schedules `event` at the absolute instant `at`, after every event
    /// already scheduled or ranked for that instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulated time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let rank = self.next_rank;
        self.next_rank += 1;
        self.schedule_ranked(at, rank, event);
    }

    /// Hands out `n` consecutive ranks, the first of them returned, for
    /// events to be scheduled later under [`EventQueue::schedule_ranked`]:
    /// each ties as if it had been scheduled now, in its rank's order.
    pub fn reserve_ranks(&mut self, n: u64) -> u64 {
        let first = self.next_rank;
        self.next_rank += n;
        first
    }

    /// Schedules `event` at `at` under `rank`, one [`EventQueue::reserve_ranks`]
    /// handed out: among events at the same instant it pops in rank order.
    /// Each reserved rank may be scheduled once.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulated time.
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, event: E) {
        assert!(
            at >= self.now,
            "scheduled an event in the past: at={at:?} now={:?}",
            self.now
        );
        debug_assert!(rank < self.next_rank, "rank {rank} was never handed out");
        let at = at.as_nanos();
        self.scheduled += 1;
        let link = Link {
            at,
            rank,
            next: NIL,
        };
        let index = if self.free == NIL {
            assert!(self.links.len() < NIL as usize, "slot indices are u32");
            self.links.push(link);
            self.events.push(Some(event));
            (self.links.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = std::mem::replace(&mut self.links[index as usize], link).next;
            self.events[index as usize] = Some(event);
            index
        };
        if self.len == 0 {
            // Nothing pending: open the calendar at this event, so that it
            // is a late arrival and the late heap holds the head.
            self.cur = self.cur.max(at >> BUCKET_SHIFT);
        }
        self.len += 1;
        self.place(key_of(at, rank), index);
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// The key at the head of the queue, and whether the run holds it (the
    /// late heap if not). Keys are distinct, so the comparison is strict.
    fn head(&self) -> Option<(u128, bool)> {
        let run = self.run.last().map(|&(key, _)| key);
        let late = self.late.peek().map(|&Reverse((key, _))| key);
        match (run, late) {
            (Some(run), Some(late)) => Some((run.min(late), run < late)),
            (Some(run), None) => Some((run, true)),
            (None, late) => Some((late?, false)),
        }
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(key, _)| time_of(key))
    }

    /// Removes and returns the next event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, in_run) = self.head()?;
        let event = if in_run {
            self.run.pop().expect("the run holds the head").1
        } else {
            let Reverse((_, index)) = self.late.pop().expect("the late heap holds the head");
            self.release(index)
        };
        let at = time_of(key);
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        self.len -= 1;
        if self.run.is_empty() && self.late.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((at, event))
    }

    /// Removes and returns the next event only if it is at or before
    /// `horizon`; the clock does not advance past `horizon` otherwise.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Discards all pending events and advances the clock to `at`.
    ///
    /// Used by experiment drivers to fast-forward between phases.
    pub fn jump_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot jump backwards in time");
        self.discarded += self.len as u64;
        self.len = 0;
        self.run.clear();
        self.late.clear();
        self.heads.fill(NIL);
        self.occupied.fill(0);
        self.overflow.clear();
        self.links.clear();
        self.events.clear();
        self.free = NIL;
        self.now = at;
    }

    /// Takes the event out of a slab slot and puts the slot on the free
    /// list.
    fn release(&mut self, index: u32) -> E {
        self.links[index as usize].next = self.free;
        self.free = index;
        self.events[index as usize]
            .take()
            .expect("a keyed slot holds its event")
    }

    /// Files a slot, by its key, under the tier its bucket belongs to.
    fn place(&mut self, key: u128, index: u32) {
        let bucket = bucket_of(key);
        if bucket <= self.cur {
            self.late.push(Reverse((key, index)));
        } else if bucket - self.cur < RING {
            if self.heads.is_empty() {
                self.heads = vec![NIL; RING as usize];
                self.occupied = vec![0; RING as usize / 64];
            }
            let pos = (bucket % RING) as usize;
            self.links[index as usize].next = self.heads[pos];
            self.heads[pos] = index;
            self.occupied[pos / 64] |= 1 << (pos % 64);
        } else {
            self.overflow.push(Reverse((key, index)));
        }
    }

    /// Moves `cur` to the earliest occupied bucket and loads it into the
    /// (empty) run; the late heap is empty too. Something must be pending.
    fn refill(&mut self) {
        debug_assert!(self.run.is_empty() && self.late.is_empty() && self.len > 0);
        if self.len > self.overflow.len() {
            // The ring is not empty, and everything in it precedes the
            // overflow heap: walk the bitmap from the position after `cur`,
            // around the ring if need be, to the next occupied one.
            let from = (self.cur + 1) % RING;
            let mut word = from as usize / 64;
            let mut bits = self.occupied[word] & (!0 << (from % 64));
            while bits == 0 {
                word = (word + 1) % self.occupied.len();
                bits = self.occupied[word];
            }
            let pos = word as u64 * 64 + u64::from(bits.trailing_zeros());
            self.cur += 1 + pos.wrapping_sub(from) % RING;
        } else {
            let Reverse((key, _)) = self.overflow.peek().expect("something is pending");
            self.cur = bucket_of(*key);
        }
        // The ring's window moved: admit what it now covers, and what
        // belongs to `cur` itself straight into the run.
        while let Some(&Reverse((key, index))) = self.overflow.peek() {
            let bucket = bucket_of(key);
            if bucket - self.cur >= RING {
                break;
            }
            self.overflow.pop();
            if bucket == self.cur {
                self.load(key, index);
            } else {
                self.place(key, index);
            }
        }
        let pos = (self.cur % RING) as usize;
        if let Some(head) = self.heads.get_mut(pos) {
            let mut index = std::mem::replace(head, NIL);
            self.occupied[pos / 64] &= !(1 << (pos % 64));
            while index != NIL {
                let link = &self.links[index as usize];
                let (key, next) = (key_of(link.at, link.rank), link.next);
                self.load(key, index);
                index = next;
            }
        }
        // Latest first, so that the head pops off the end. Keys are
        // distinct, so an unstable sort has one answer.
        self.run.sort_unstable_by_key(|&(key, _)| Reverse(key));
    }

    /// Moves a slot's event into the run, unsorted, and frees the slot: the
    /// payload's cache miss is taken here, beside its neighbours', and not
    /// at the pop.
    fn load(&mut self, key: u128, index: u32) {
        let event = self.release(index);
        self.run.push((key, event));
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(10), "b");
        assert_eq!(
            q.pop_until(SimTime::from_secs(5)).map(|(_, e)| e),
            Some("a")
        );
        assert_eq!(q.pop_until(SimTime::from_secs(5)), None);
        // The clock did not advance to the unpopped event.
        assert_eq!(q.now(), SimTime::from_secs(1));
    }

    #[test]
    fn jump_to_discards_and_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(10), ()); // late heap, ring, overflow heap
        q.schedule(SimTime::from_secs(100), ());
        q.jump_to(SimTime::from_secs(142));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::from_secs(142));
    }

    #[test]
    fn with_capacity_presizes_and_reserve_grows() {
        let mut q = EventQueue::<u32>::with_capacity(1024);
        assert!(q.capacity() >= 1024);
        let before = q.capacity();
        for i in 0..1024 {
            q.schedule(SimTime::from_nanos(u64::from(i)), i);
        }
        // Filling to the pre-sized capacity must not regrow the slab.
        assert_eq!(q.capacity(), before);
        q.reserve(4096);
        assert!(q.capacity() >= q.len() + 4096);
    }

    #[test]
    fn counters_observe_without_disturbing() {
        let mut q = EventQueue::new();
        assert_eq!((q.scheduled(), q.dispatched()), (0, 0));
        for i in 0..5u64 {
            q.schedule(SimTime::from_secs(i), i);
        }
        assert_eq!((q.scheduled(), q.dispatched(), q.len()), (5, 0, 5));
        // A pop the horizon refuses dispatches nothing.
        q.schedule(SimTime::from_secs(9), 9);
        assert_eq!(q.pop_until(SimTime::ZERO).map(|(_, e)| e), Some(0));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop_until(SimTime::from_secs(1)), None);
        assert_eq!((q.scheduled(), q.dispatched(), q.len()), (6, 2, 4));
        // Discarded events were scheduled and never dispatched.
        q.jump_to(SimTime::from_secs(20));
        assert_eq!((q.scheduled(), q.dispatched(), q.len()), (6, 2, 0));
        // FIFO tie-breaking runs on across the jump.
        q.schedule(SimTime::from_secs(20), 7);
        q.schedule(SimTime::from_secs(20), 8);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![7, 8]);
        assert_eq!((q.scheduled(), q.dispatched()), (8, 4));
    }

    #[test]
    fn same_instant_ties_are_fifo_across_tiers() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(30);
        q.schedule(SimTime::from_nanos(1), "first");
        q.schedule(t, "via-overflow"); // past the 17 s ring
        q.schedule(SimTime::from_secs(15), "mid");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
        // `mid`'s bucket is loaded and `t` is now within a ring of it.
        q.schedule(t, "via-ring");
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        // `t`'s bucket is the one being drained.
        q.schedule(t, "via-near");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["via-overflow", "via-ring", "via-near"]);
    }

    #[test]
    fn scheduling_before_the_loaded_bucket_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(10), "c");
        // Popping `a` empties its bucket and loads `c`'s, nine seconds on.
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c"]);
    }

    /// Differential check of the calendar against a `BTreeMap` keyed by
    /// `(time, rank)`: every operation, every observer after every step,
    /// with delays that sit on each tier boundary (same bucket, the next
    /// one, the last ring bucket, the first overflow one), schedules aimed
    /// at the run while it drains, idle gaps of many horizons, so the ring
    /// wraps and the overflow heap migrates, and ranks reserved in blocks
    /// and scheduled later, in any order, onto every tier. The payload
    /// counts its drops: whatever was scheduled comes back from a pop or is
    /// dropped by `jump_to` or with the queue, once.
    #[test]
    fn calendar_matches_the_btreemap_model() {
        use std::cell::RefCell;
        use std::collections::BTreeMap;
        use std::rc::Rc;
        const WIDTH: u64 = 1 << BUCKET_SHIFT;
        /// Payload `.0`, the `.0`-th event scheduled, and the case's ledger
        /// of drops per payload.
        struct Counted(u64, Rc<RefCell<Vec<u32>>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.borrow_mut()[self.0 as usize] += 1;
            }
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Via {
            Late,
            Ring,
            Overflow,
        }
        // What the cases reached between them, asserted after the run. A
        // run is partly drained when it is shorter than it was loaded and
        // not yet empty. (One load never takes a bucket's members from the
        // ring *and* straight from the overflow heap: the ring holds only
        // buckets within `RING` of `cur`, the overflow heap only those
        // beyond, and `cur` moves nowhere but in the load itself, which
        // empties the overflow heap of everything within reach. So the
        // mixed load is of members that came by the overflow heap into the
        // ring beside members scheduled into the ring, and the direct one
        // finds the ring empty.)
        const REACH: [&str; 16] = [
            "a late arrival at the instant of a partly drained run's head",
            "a late arrival just before a partly drained run's head",
            "a late arrival between two entries of a partly drained run",
            "a late arrival after the last entry of a partly drained run",
            "a late arrival that ties the time of an entry of the run",
            "a pop from the late heap over a run that is not empty",
            "a pop from the run over a late heap that is not empty",
            "a load of members scheduled into the ring and into the overflow heap",
            "a load straight from the overflow heap",
            "jump_to over a partly drained run with late arrivals outstanding",
            "a slot reused after its event was loaded and before it was popped",
            "a reserved rank older than a partly drained run's head, into its bucket",
            "a reserved rank filed in the ring",
            "a reserved rank filed in the overflow heap",
            "a reserved rank loaded into the run",
            "a reserved rank popped before its instant's earlier-scheduled tie",
        ];
        fn delay(rng: &mut crate::rng::SimRng) -> u64 {
            let buckets = match rng.gen_range(0u32..10) {
                0..=2 => 0u64,
                3 => 1,
                4 => rng.gen_range(2..2_000u64),
                5 => RING - 1,
                6 => RING,
                7 => RING + 1,
                8 => rng.gen_range(2..RING),
                _ => rng.gen_range(2..50u64) * RING + rng.gen_range(0..RING),
            };
            let fine = match rng.gen_range(0u32..4) {
                0 => 0,
                1 => 1,
                2 => WIDTH - 1,
                _ => rng.gen_range(0..WIDTH),
            };
            buckets * WIDTH + fine
        }
        crate::check::check_reaching("event-queue-calendar", REACH, |rng, reach| {
            let ledger = Rc::new(RefCell::new(Vec::new()));
            let mut q = EventQueue::new();
            // Pending `(time, rank)`, each to its payload's id: the order
            // it was scheduled in.
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let (mut now, mut scheduled, mut dispatched, mut discarded) = (0u64, 0u64, 0u64, 0u64);
            // The next rank `schedule` takes, and the ranks reserved and
            // not yet scheduled.
            let (mut next_rank, mut reserved) = (0u64, Vec::new());
            // How each payload was filed and whether under a reserved rank,
            // the run's length when it was loaded, and the most that was
            // ever pending since the slab was last emptied.
            let (mut via, mut ranked) = (Vec::new(), Vec::new());
            let (mut loaded, mut peak) = (0usize, 0usize);
            for _ in 0..rng.gen_range(20..400u64) {
                let op = rng.gen_range(0u32..100);
                match op {
                    0..=4 => {
                        // A block of ranks for later; it neither schedules
                        // nor pops anything.
                        let n = rng.gen_range(0..16u64);
                        let first = q.reserve_ranks(n);
                        assert_eq!(first, next_rank);
                        reserved.extend(first..first + n);
                        next_rank += n;
                    }
                    5..=49 => {
                        // A fresh instant; or one that something pending
                        // holds already: ties whose members arrive by
                        // different tiers; or one picked off the run.
                        let tie = model.keys().nth(rng.gen_range(0..model.len() + 1));
                        let run = q.run.iter().map(|&(key, _)| time_of(key).as_nanos());
                        let run: Vec<u64> = run.collect();
                        let ends = run
                            .last()
                            .zip(run.first())
                            .map(|(&head, &last)| (head, last));
                        let at = match (ends, tie) {
                            (Some((head, last)), _) if rng.gen_bool(0.4) => {
                                match rng.gen_range(0u32..5) {
                                    0 => head,
                                    1 => head.saturating_sub(1).max(now),
                                    2 if run.len() > 1 => {
                                        let i = rng.gen_range(1..run.len());
                                        (run[i - 1] + run[i]) / 2
                                    }
                                    3 => last + 1,
                                    _ => run[rng.gen_range(0..run.len())],
                                }
                            }
                            (_, Some(&(at, _))) if rng.gen_bool(0.3) => at,
                            _ => now + delay(rng),
                        };
                        let partly = (1..loaded).contains(&run.len());
                        let head_rank = q.run.last().map(|&(key, _)| key as u64);
                        let (late, overflow, slots) =
                            (q.late.len(), q.overflow.len(), q.links.len());
                        let payload = Counted(scheduled, Rc::clone(&ledger));
                        ledger.borrow_mut().push(0);
                        let rank = if !reserved.is_empty() && rng.gen_bool(0.4) {
                            let rank = reserved.swap_remove(rng.gen_range(0..reserved.len()));
                            q.schedule_ranked(SimTime::from_nanos(at), rank, payload);
                            Some(rank)
                        } else if rng.gen_bool(0.5) {
                            q.schedule(SimTime::from_nanos(at), payload);
                            None
                        } else {
                            q.schedule_in(SimDuration::from_nanos(at - now), payload);
                            None
                        };
                        via.push(if q.late.len() > late {
                            Via::Late
                        } else if q.overflow.len() > overflow {
                            Via::Overflow
                        } else {
                            Via::Ring
                        });
                        ranked.push(rank.is_some());
                        if let Some((head, last)) = ends.filter(|_| partly && q.late.len() > late) {
                            reach(0, at == head);
                            reach(1, at < head);
                            reach(2, head < at && at < last);
                            reach(3, at > last);
                            reach(4, run.contains(&at));
                            reach(11, rank.zip(head_rank).is_some_and(|(r, h)| r < h));
                        }
                        reach(12, rank.is_some() && via.last() == Some(&Via::Ring));
                        reach(13, rank.is_some() && via.last() == Some(&Via::Overflow));
                        reach(10, q.links.len() == slots && q.len() > slots);
                        let rank = rank.unwrap_or_else(|| {
                            next_rank += 1;
                            next_rank - 1
                        });
                        model.insert((at, rank), scheduled);
                        scheduled += 1;
                    }
                    50..=97 => {
                        // `pop`, or `pop_until` with the head on either side
                        // of the horizon.
                        let horizon = if op < 85 { u64::MAX } else { now + delay(rng) };
                        let expect = model
                            .first_key_value()
                            .map(|(&key, &id)| (key, id))
                            .filter(|&((at, _), _)| at <= horizon);
                        if let Some((key, id)) = expect {
                            model.remove(&key);
                            now = key.0;
                            dispatched += 1;
                            // A tie at its instant still pending that was
                            // scheduled before it.
                            let mut ties = model.range(key..=(key.0, u64::MAX));
                            reach(15, ranked[id as usize] && ties.any(|(_, &tie)| tie < id));
                        }
                        let (cur, run, late) = (q.cur, q.run.len(), q.late.len());
                        let in_ring = q.len() - run - late - q.overflow.len();
                        let got = if op < 85 {
                            q.pop()
                        } else {
                            q.pop_until(SimTime::from_nanos(horizon))
                        };
                        let got = got.map(|(at, payload)| {
                            // Still whole when the queue hands it back.
                            assert_eq!(ledger.borrow()[payload.0 as usize], 0);
                            (at, payload.0)
                        });
                        let expect = expect.map(|((at, _), id)| (SimTime::from_nanos(at), id));
                        assert_eq!(got, expect);
                        if got.is_some() && q.cur == cur {
                            reach(5, run > 0 && q.late.len() < late);
                            reach(6, late > 0 && q.run.len() < run);
                        } else if got.is_some() {
                            loaded = q.run.len();
                            let came = |by| q.run.iter().any(|(_, p)| via[p.0 as usize] == by);
                            reach(7, came(Via::Ring) && came(Via::Overflow));
                            reach(8, in_ring == 0 && loaded > 0);
                            reach(14, q.run.iter().any(|(_, p)| ranked[p.0 as usize]));
                        }
                    }
                    _ => {
                        reach(9, (1..loaded).contains(&q.run.len()) && !q.late.is_empty());
                        now += delay(rng);
                        q.jump_to(SimTime::from_nanos(now));
                        discarded += model.len() as u64;
                        model.clear();
                        (loaded, peak) = (0, 0);
                    }
                }
                let head = model.first_key_value().map(|(&(at, _), _)| at);
                assert_eq!(q.peek_time(), head.map(SimTime::from_nanos));
                assert_eq!(q.now(), SimTime::from_nanos(now));
                assert_eq!((q.len(), q.is_empty()), (model.len(), model.is_empty()));
                assert_eq!((q.scheduled(), q.dispatched()), (scheduled, dispatched));
                assert_eq!(q.discarded, discarded);
                assert_eq!(scheduled, dispatched + discarded + q.len() as u64);
                // Each payload popped or discarded so far was dropped once
                // (a popped one by this test), and no other at all.
                let ledger = ledger.borrow();
                assert!(ledger.iter().all(|&drops| drops <= 1));
                let dropped = ledger.iter().map(|&drops| u64::from(drops)).sum::<u64>();
                assert_eq!(dropped, dispatched + discarded);
                assert!(model.values().all(|&id| ledger[id as usize] == 0));
                // A loaded event gave its slot back: the slab never holds
                // more slots than events were pending at once.
                peak = peak.max(q.len());
                assert!(q.links.len() <= peak);
                assert_eq!(q.events.len(), q.links.len());
                // `reserve` counts the run's events among the pending.
                if rng.gen_bool(0.05) {
                    let more = rng.gen_range(0..64usize);
                    q.reserve(more);
                    assert!(q.capacity() >= q.len() + more);
                }
            }
            drop(q);
            assert!(ledger.borrow().iter().all(|&drops| drops == 1));
        });
    }

    /// Randomized differential check: the queue agrees with a reference
    /// stable sort by `(time, scheduling order)` over arbitrary
    /// schedule/pop traces.
    #[test]
    fn differential_against_reference_sort() {
        use crate::rng::RngTree;
        let mut rng = RngTree::new(77).fork("event-queue-diff", 0);
        for _ in 0..50 {
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (at_nanos, id)
            let mut popped: Vec<u64> = Vec::new();
            let mut id = 0u64;
            let mut floor = 0u64;
            for _ in 0..200 {
                if rng.gen_bool(0.6) || q.is_empty() {
                    let at = floor + rng.gen_range(0u64..5);
                    q.schedule(SimTime::from_nanos(at), id);
                    reference.push((at, id));
                    id += 1;
                } else {
                    let (at, e) = q.pop().expect("non-empty");
                    floor = at.as_nanos();
                    popped.push(e);
                }
            }
            while let Some((_, e)) = q.pop() {
                popped.push(e);
            }
            // Reference: stable sort by time (stability = FIFO tie-break)…
            // except pops interleave with schedules; since every schedule is
            // >= the clock floor, the final pop order is still the stable
            // time-sorted order of all entries.
            reference.sort_by_key(|&(at, _)| at);
            let expect: Vec<u64> = reference.into_iter().map(|(_, i)| i).collect();
            assert_eq!(popped, expect);
        }
    }
}
