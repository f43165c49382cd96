//! A deterministic time-ordered event queue.
//!
//! Events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO among ties). This matters for protocol fidelity:
//! the Tiger insertion-ordering argument of §4.1.3 assumes that a cub that
//! sends a deschedule before an insertion has those messages *processed* in
//! that order, and the simulation must not reorder them through heap
//! internals.
//!
//! Two hot-path optimizations (this is the innermost loop of every
//! experiment run):
//!
//! * Each entry's `(time, seq)` ordering pair is packed into a single
//!   `u128` key, so heap sift comparisons are one integer compare instead
//!   of a lexicographic tuple compare.
//! * A one-entry *front slot* short-circuits the common dispatch pattern
//!   where a handler pops the head event and immediately schedules a
//!   follow-up that precedes everything else pending (immediate retries,
//!   `now + 1ns` insert attempts, near-future deliveries into a far-future
//!   backlog). Such an entry never touches the heap: scheduling it and
//!   popping it are both O(1) instead of two O(log n) sifts.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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
    /// An entry that sorts strictly before everything in `heap`, if any.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
}

#[derive(Debug)]
struct Entry<E> {
    /// `(time, seq)` packed as `time << 64 | seq`: one compare orders by
    /// time first and insertion sequence second (the FIFO tie-break).
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn new(at: SimTime, seq: u64, event: E) -> Self {
        Entry {
            key: (u128::from(at.as_nanos()) << 64) | u128::from(seq),
            event,
        }
    }

    fn at(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key.cmp(&self.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the epoch.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// long runs do not regrow the heap mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            discarded: 0,
            front: None,
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The number of pending events the queue can hold without regrowing.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Events scheduled over the queue's lifetime, dispatched or not.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Events popped over the queue's lifetime: every event scheduled is
    /// pending, popped, or was discarded by [`EventQueue::jump_to`], so
    /// the pop path itself counts nothing.
    pub fn dispatched(&self) -> u64 {
        self.seq - self.discarded - self.len() as u64
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
        let seq = self.seq;
        self.seq += 1;
        let mut entry = Entry::new(at, seq, event);
        // Keys are unique (seq increments), so strict compares suffice.
        // Maintain the invariant: `front` sorts before every heap entry.
        match &mut self.front {
            Some(f) => {
                if entry.key < f.key {
                    std::mem::swap(f, &mut entry);
                }
                self.heap.push(entry);
            }
            None => {
                if self.heap.peek().is_none_or(|h| entry.key < h.key) {
                    self.front = Some(entry);
                } else {
                    self.heap.push(entry);
                }
            }
        }
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.front {
            Some(f) => Some(f.at()),
            None => self.heap.peek().map(Entry::at),
        }
    }

    /// Removes and returns the next event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match self.front.take() {
            Some(f) => f,
            None => self.heap.pop()?,
        };
        let at = entry.at();
        debug_assert!(at >= self.now, "event queue time went backwards");
        self.now = at;
        Some((at, entry.event))
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
        self.discarded += self.len() as u64;
        self.front = None;
        self.heap.clear();
        self.now = at;
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
    use crate::time::SimDuration;

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
        q.schedule(SimTime::from_secs(100), ()); // one in the front slot, one in the heap
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
        // Filling to the pre-sized capacity must not regrow the heap. The
        // front-slot holds one entry, so at most `capacity` reach the heap.
        assert_eq!(q.capacity(), before);
        q.reserve(4096);
        // `reserve` sizes the heap; the front slot holds one entry outside it.
        let in_heap = q.len() - 1;
        assert!(q.capacity() >= in_heap + 4096);
    }

    #[test]
    fn counters_observe_without_disturbing() {
        let mut q = EventQueue::new();
        assert_eq!((q.scheduled(), q.dispatched()), (0, 0));
        for i in 0..5u64 {
            q.schedule(SimTime::from_secs(i), i); // front slot and heap both
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

    /// The front-slot fast path must be invisible: any interleaving of
    /// schedules and pops yields the same order as a plain sorted-by
    /// `(time, seq)` queue.
    #[test]
    fn fast_path_preserves_order_across_interleavings() {
        // Pop-then-schedule-at-head: the follow-up lands in the front slot,
        // then a later schedule at the same instant must NOT overtake older
        // same-instant heap entries.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, "heap-old");
        q.schedule(SimTime::from_secs(1), "first");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first")); // now = 1s
        q.schedule(SimTime::from_secs(2), "front"); // beats heap min -> front slot
        q.schedule(t, "heap-new"); // same instant as heap-old, younger seq
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["front", "heap-old", "heap-new"]);
    }

    #[test]
    fn scheduling_below_front_demotes_it_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(5), "mid"); // front slot
        q.schedule(SimTime::from_secs(2), "early"); // displaces mid
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "mid", "late"]);
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
