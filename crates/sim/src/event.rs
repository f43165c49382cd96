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
//! * Every pending event sits in one slab slot, allocated from a free list,
//!   and stays there until it is popped. A slot is a 24-byte link (time,
//!   `seq`, next slot) and the payload, in two parallel vectors.
//! * Time is cut into buckets of 2²⁰ ns (≈1 ms). The bucket being drained,
//!   `cur`, is a small binary heap of `(key, slot)` pairs — the *near*
//!   heap — where `key` packs `(time, seq)` into one `u128`, so a single
//!   integer compare orders by time first and scheduling order second.
//! * The 2¹⁴ − 1 buckets after `cur` (≈17 s: past `maxVStateLead` plus the
//!   mirror fan-out, the longest routine delay) are a ring of intrusive
//!   singly-linked lists threaded through the links, with an occupancy
//!   bitmap to find the next non-empty one. Scheduling into the ring is a
//!   list push; order inside a bucket is settled when the bucket is loaded
//!   into the near heap.
//! * Anything later still (pre-scheduled client starts, restarts,
//!   restripes) waits in a small *overflow* heap and moves into the ring
//!   once, when `cur` comes within a ring of it.
//!
//! Why the pop order is exactly `(time, seq)`: the near heap holds every
//! pending event whose bucket is at or before `cur`, the ring holds
//! exactly those with `cur < bucket < cur + RING` (so each ring position
//! stands for one bucket), and the overflow heap the rest. `cur` only
//! rises, and only to the smallest occupied bucket, when the near heap
//! runs empty; so the near heap's head is the queue's head whenever
//! anything is pending, and ties inside it are broken by `seq`. The pop
//! that empties the near heap refills it before returning, which keeps
//! [`EventQueue::peek_time`] a plain read.

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

/// A slab slot under its ordering key, `time << 64 | seq`. `Reverse`
/// because `BinaryHeap` is a max-heap and the earliest key pops first.
type Keyed = Reverse<(u128, u32)>;

fn keyed(at: u64, seq: u64, slot: u32) -> Keyed {
    Reverse(((u128::from(at) << 64) | u128::from(seq), slot))
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
    /// The next entry's FIFO tie-break — and so, the events scheduled so far.
    seq: u64,
    /// Events [`EventQueue::jump_to`] threw away unpopped.
    discarded: u64,
    /// Pending events: near heap + ring + overflow heap.
    len: usize,
    /// The bucket (`time >> BUCKET_SHIFT`) the near heap drains. Only rises.
    cur: u64,
    /// Every pending event in bucket `cur` or before it.
    near: BinaryHeap<Keyed>,
    /// The list head of each bucket in `cur + 1 .. cur + RING`, indexed by
    /// bucket modulo `RING`; `NIL` where empty. Allocated on first use: a
    /// queue that never looks a millisecond ahead never pays for it.
    heads: Vec<u32>,
    /// One bit per ring position, set where `heads` is not `NIL`.
    occupied: Vec<u64>,
    /// Every pending event at bucket `cur + RING` or beyond.
    overflow: BinaryHeap<Keyed>,
    /// Slot `i` is `links[i]` and `events[i]`. Apart, because loading a
    /// bucket walks links only, and 42 k of them fit a cache that 42 k
    /// whole slots do not (+5–9 % end to end at that depth).
    links: Vec<Link>,
    /// `None` while the slot is on the free list.
    events: Vec<Option<E>>,
    /// The head of the free-slot list, through `Link::next`.
    free: u32,
}

#[derive(Debug)]
struct Link {
    at: u64,
    seq: u64,
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
            seq: 0,
            discarded: 0,
            len: 0,
            cur: 0,
            near: BinaryHeap::new(),
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
        self.links.reserve(additional);
        self.events.reserve(additional);
    }

    /// The number of pending events the queue can hold without regrowing.
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
        self.seq
    }

    /// Events popped over the queue's lifetime: every event scheduled is
    /// pending, popped, or was discarded by [`EventQueue::jump_to`], so
    /// the pop path itself counts nothing.
    pub fn dispatched(&self) -> u64 {
        self.seq - self.discarded - self.len as u64
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current simulated time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled an event in the past: at={at:?} now={:?}",
            self.now
        );
        let (at, seq) = (at.as_nanos(), self.seq);
        self.seq += 1;
        let link = Link { at, seq, next: NIL };
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
            // Nothing pending: open the calendar at this event, so that the
            // near heap holds the head.
            self.cur = self.cur.max(at >> BUCKET_SHIFT);
        }
        self.len += 1;
        self.place(keyed(at, seq, index));
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let Reverse((key, _)) = self.near.peek()?;
        Some(time_of(*key))
    }

    /// Removes and returns the next event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((key, index)) = self.near.pop()?;
        let at = time_of(key);
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        let event = self.events[index as usize]
            .take()
            .expect("a keyed slot holds its event");
        self.links[index as usize].next = self.free;
        self.free = index;
        self.len -= 1;
        if self.near.is_empty() && self.len > 0 {
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
        self.near.clear();
        self.heads.fill(NIL);
        self.occupied.fill(0);
        self.overflow.clear();
        self.links.clear();
        self.events.clear();
        self.free = NIL;
        self.now = at;
    }

    /// Files a keyed slot under the tier its bucket belongs to.
    fn place(&mut self, entry: Keyed) {
        let Reverse((key, index)) = entry;
        let bucket = bucket_of(key);
        if bucket <= self.cur {
            self.near.push(entry);
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
            self.overflow.push(entry);
        }
    }

    /// Moves `cur` to the earliest occupied bucket and loads it into the
    /// (empty) near heap. Something must be pending.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty() && self.len > 0);
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
        // The ring's window moved: admit what it now covers.
        while let Some(&entry) = self.overflow.peek() {
            let Reverse((key, _)) = entry;
            if bucket_of(key) - self.cur >= RING {
                break;
            }
            self.overflow.pop();
            self.place(entry);
        }
        let pos = (self.cur % RING) as usize;
        if let Some(head) = self.heads.get_mut(pos) {
            let mut index = std::mem::replace(head, NIL);
            self.occupied[pos / 64] &= !(1 << (pos % 64));
            while index != NIL {
                let link = &self.links[index as usize];
                self.near.push(keyed(link.at, link.seq, index));
                index = link.next;
            }
        }
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
        q.schedule(SimTime::from_secs(10), ()); // near heap, ring, overflow heap
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
    /// `(time, seq)`: every operation, every observer after every step,
    /// with delays that sit on each tier boundary (same bucket, the next
    /// one, the last ring bucket, the first overflow one) and idle gaps of
    /// many horizons, so the ring wraps and the overflow heap migrates.
    #[test]
    fn calendar_matches_the_btreemap_model() {
        use std::collections::BTreeMap;
        const WIDTH: u64 = 1 << BUCKET_SHIFT;
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
        crate::check::check("event-queue-calendar", |rng| {
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let (mut now, mut scheduled, mut dispatched) = (0u64, 0u64, 0u64);
            for step in 0..rng.gen_range(20..400u64) {
                let op = rng.gen_range(0u32..100);
                match op {
                    0..=49 => {
                        // A fresh instant, or one that something pending
                        // holds already: ties whose members arrive by
                        // different tiers.
                        let tie = model.keys().nth(rng.gen_range(0..model.len() + 1));
                        let at = match tie {
                            Some(&(at, _)) if rng.gen_bool(0.3) => at,
                            _ => now + delay(rng),
                        };
                        if rng.gen_bool(0.5) {
                            q.schedule(SimTime::from_nanos(at), step);
                        } else {
                            q.schedule_in(SimDuration::from_nanos(at - now), step);
                        }
                        model.insert((at, scheduled), step);
                        scheduled += 1;
                    }
                    50..=97 => {
                        // `pop`, or `pop_until` with the head on either side
                        // of the horizon.
                        let horizon = if op < 85 { u64::MAX } else { now + delay(rng) };
                        let head = model.first_key_value().map(|(&key, &id)| (key, id));
                        let expect = head.filter(|&((at, _), _)| at <= horizon);
                        if let Some((key, _)) = expect {
                            model.remove(&key);
                            now = key.0;
                            dispatched += 1;
                        }
                        let got = if op < 85 {
                            q.pop()
                        } else {
                            q.pop_until(SimTime::from_nanos(horizon))
                        };
                        assert_eq!(
                            got,
                            expect.map(|((at, _), id)| (SimTime::from_nanos(at), id))
                        );
                    }
                    _ => {
                        now += delay(rng);
                        q.jump_to(SimTime::from_nanos(now));
                        model.clear();
                    }
                }
                let head = model.first_key_value().map(|(&(at, _), _)| at);
                assert_eq!(q.peek_time(), head.map(SimTime::from_nanos));
                assert_eq!(q.now(), SimTime::from_nanos(now));
                assert_eq!((q.len(), q.is_empty()), (model.len(), model.is_empty()));
                assert_eq!((q.scheduled(), q.dispatched()), (scheduled, dispatched));
            }
        });
    }

    /// Randomized differential check: the queue agrees with a reference
    /// stable sort by `(time, seq)` over arbitrary schedule/pop traces.
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
