//! A cub's read-ahead buffer pool (paper §3.1: the disks run ahead of
//! the schedule, "trading off buffer usage to cover for slight variations
//! in disk and I/O system performance").
//!
//! The pool counts the bytes its cub's outstanding reads hold against the
//! buffer cache and knows which reads are waiting for room. A read that
//! finds the pool full waits here under its *hard floor*, the last
//! instant it may go out (one scheduling lead before its send); whoever
//! returns a buffer hands the room to the waiter with the earliest floor,
//! and one floor timer a cub, chained to the head of the wait set, sends
//! out whatever reaches its floor still waiting — into a full pool if it
//! must, which is the over-commit that puts the peak above the cache.
//!
//! The pool is sans-io like the ring and insertion machines: it names the
//! instant a timer event is wanted at and the cub schedules it. The
//! event carries nothing; `timer` says which instant is the live chain's,
//! as `next_deadman_ping` does for that chain, so an event left over from
//! before a reset, or overtaken by an earlier floor, finds nothing due to
//! it and dies.

use std::collections::VecDeque;

use tiger_sim::{Counter, SimTime};

use crate::event::ServiceToken;

/// One cub's buffer accounting and its wait set.
#[derive(Debug)]
pub(crate) struct BufferPool {
    /// The buffer cache's size in bytes.
    cache: u64,
    /// The room a read must find: one full-size block.
    block: u64,
    /// Bytes held by reads issued and not yet reclaimed.
    in_use: u64,
    /// The most `in_use` has been.
    peak: u64,
    /// Reads waiting for room, ascending by `(hard floor, token)`.
    waiting: VecDeque<(SimTime, ServiceToken)>,
    /// When the live floor timer is due; `None` when no chain runs.
    timer: Option<SimTime>,
    /// Reads that found the pool full and had to wait.
    pub(crate) waited: Counter,
    /// Reads that reached their floor still waiting and went out into a
    /// full pool (the over-commit above the cache size).
    pub(crate) forced: Counter,
}

impl BufferPool {
    /// An empty pool over a `cache`-byte cache of `block`-byte buffers.
    pub(crate) fn new(cache: u64, block: u64) -> Self {
        BufferPool {
            cache,
            block,
            in_use: 0,
            peak: 0,
            waiting: VecDeque::new(),
            timer: None,
            waited: Counter::new(),
            forced: Counter::new(),
        }
    }

    /// Whether one more block fits the cache.
    pub(crate) fn has_room(&self) -> bool {
        self.in_use + self.block <= self.cache
    }

    /// The most bytes the pool has held.
    pub(crate) fn peak(&self) -> u64 {
        self.peak
    }

    /// Charges an issued read's buffer.
    pub(crate) fn charge(&mut self, bytes: u64) {
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
    }

    /// Returns a reclaimed read's buffer.
    pub(crate) fn release(&mut self, bytes: u64) {
        self.in_use = self.in_use.saturating_sub(bytes);
    }

    /// Adds `token`, which must go out by `floor`, to the wait set.
    /// Returns the instant to schedule a floor-timer event at, if the
    /// live one (if any) comes too late for the new head.
    #[must_use]
    pub(crate) fn park(&mut self, floor: SimTime, token: ServiceToken) -> Option<SimTime> {
        self.waited.incr();
        let at = self.waiting.partition_point(|&w| w < (floor, token));
        self.waiting.insert(at, (floor, token));
        self.arm()
    }

    /// Chains the timer to whoever heads the wait set, unless it is due by
    /// then anyway; the instant to schedule an event at, if it moved. A
    /// fired timer calls this even when nothing was due to it (the waiter
    /// it was set for left early): the rest still need their floor.
    #[must_use]
    pub(crate) fn arm(&mut self) -> Option<SimTime> {
        let &(floor, _) = self.waiting.front()?;
        if self.timer.is_some_and(|due| due <= floor) {
            return None;
        }
        self.timer = Some(floor);
        Some(floor)
    }

    /// A floor-timer event fired at `now`: whether it is the live chain's
    /// (at or after the due time, as a frozen cub's replayed event is).
    /// The chain ends here; [`BufferPool::arm`] continues it.
    pub(crate) fn timer_fired(&mut self, now: SimTime) -> bool {
        let live = self.timer.is_some_and(|due| due <= now);
        if live {
            self.timer = None;
        }
        live
    }

    /// The next waiter whose floor is at or before `now`, room or none.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<ServiceToken> {
        let &(floor, token) = self.waiting.front()?;
        (floor <= now).then(|| {
            self.waiting.pop_front();
            token
        })
    }

    /// The waiter to hand room to, earliest floor first, if there is
    /// room. The caller issues its read (or finds it gone) and asks again.
    pub(crate) fn next_ready(&mut self) -> Option<ServiceToken> {
        if !self.has_room() {
            return None;
        }
        self.waiting.pop_front().map(|(_, token)| token)
    }

    /// Whether the pool is at rest, as every cub handler must leave it:
    /// nobody waits while there is room, and the timer covers the head.
    pub(crate) fn settled(&self) -> bool {
        self.waiting.front().is_none_or(|&(floor, _)| {
            !self.has_room() && self.timer.is_some_and(|due| due <= floor)
        })
    }

    /// Forgets every waiter (their services are gone) and the timer with
    /// them: an event still queued for it does nothing.
    pub(crate) fn clear_waiting(&mut self) {
        self.waiting.clear();
        self.timer = None;
    }

    /// Forgets the waiters and the buffers held: the cub lost its memory.
    pub(crate) fn reset(&mut self) {
        self.clear_waiting();
        self.in_use = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use tiger_sim::check::check;
    use tiger_sim::SimRng;

    use super::*;

    const BLOCK: u64 = 10;
    const CACHE: u64 = 45; // Four blocks and a mirror piece.

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Read {
        Waiting { floor: SimTime, bytes: u64 },
        Issued { bytes: u64 },
    }

    /// A cub's three uses of its pool — `on_read_issue`, `drain_pool`,
    /// `on_pool_floor` — over a naive model: every read the cub knows of
    /// in a map, the wait set an unordered list, the event queue a list
    /// of instants.
    struct Driver {
        now: SimTime,
        pool: BufferPool,
        /// Reads the cub still has a service for.
        live: BTreeMap<ServiceToken, Read>,
        /// What the pool was told to hold, in arrival order; a descheduled
        /// waiter stays until the pool hands it out.
        parked: Vec<(SimTime, ServiceToken)>,
        /// `PoolFloor` events scheduled and not yet delivered.
        events: Vec<SimTime>,
        next: ServiceToken,
    }

    impl Driver {
        fn schedule(&mut self, at: Option<SimTime>) {
            if let Some(at) = at {
                assert!(at > self.now, "a floor timer armed in the past");
                self.events.push(at);
            }
        }

        /// `Cub::issue_read`: a waiter descheduled meanwhile falls out.
        fn issue(&mut self, token: ServiceToken) {
            let Some(read) = self.live.get_mut(&token) else {
                return;
            };
            let Read::Waiting { bytes, .. } = *read else {
                panic!("{token} issued twice");
            };
            *read = Read::Issued { bytes };
            self.pool.charge(bytes);
        }

        /// The pool handed `token` out: it must be the model's earliest.
        fn unpark(&mut self, token: ServiceToken) -> SimTime {
            let earliest = *self
                .parked
                .iter()
                .min()
                .expect("handed out of an empty set");
            assert_eq!(earliest.1, token, "not in (floor, token) order");
            self.parked.retain(|&w| w != earliest);
            earliest.0
        }

        /// `Cub::on_read_issue` for a new read due `lead` before its floor.
        fn read_due(&mut self, lead: u64, bytes: u64) {
            let token = self.next;
            self.next += 1;
            let floor = self.now + tiger_sim::SimDuration::from_millis(lead);
            self.live.insert(token, Read::Waiting { floor, bytes });
            if self.now < floor && !self.pool.has_room() {
                self.parked.push((floor, token));
                let at = self.pool.park(floor, token);
                self.schedule(at);
            } else {
                self.issue(token);
            }
        }

        /// `Cub::reclaim` of `n` issued reads, then one `Cub::drain_pool`.
        fn release(&mut self, n: usize, rng: &mut SimRng) {
            for _ in 0..n {
                let held: Vec<(ServiceToken, u64)> = self
                    .live
                    .iter()
                    .filter_map(|(&t, r)| match r {
                        Read::Issued { bytes } => Some((t, *bytes)),
                        Read::Waiting { .. } => None,
                    })
                    .collect();
                if held.is_empty() {
                    break;
                }
                let (token, bytes) = held[rng.gen_range(0..held.len())];
                self.live.remove(&token);
                self.pool.release(bytes);
            }
            while let Some(token) = self.pool.next_ready() {
                assert!(
                    self.pool.has_room(),
                    "handed out of a full pool before a floor"
                );
                let floor = self.unpark(token);
                assert!(floor > self.now, "{token} outwaited its floor");
                self.issue(token);
            }
        }

        /// A deschedule of a waiting read: the pool is not told.
        fn deschedule_a_waiter(&mut self, rng: &mut SimRng) {
            let waiting: Vec<ServiceToken> = self
                .live
                .iter()
                .filter(|(_, r)| matches!(r, Read::Waiting { .. }))
                .map(|(&t, _)| t)
                .collect();
            if !waiting.is_empty() {
                self.live.remove(&waiting[rng.gen_range(0..waiting.len())]);
            }
        }

        /// `Cub::power_cut`: services and pool cleared, events left queued.
        fn power_cut(&mut self) {
            self.live.clear();
            self.parked.clear();
            self.pool.reset();
            assert!(self.pool.timer.is_none() && self.pool.waiting.is_empty());
            assert!(
                !self.pool.timer_fired(SimTime::MAX),
                "a timer of the old life acts"
            );
        }

        /// Runs the clock to `until`, delivering the floor events on the way
        /// as `Cub::on_pool_floor` takes them.
        fn advance(&mut self, until: SimTime) {
            loop {
                self.events.sort_unstable();
                match self.events.first() {
                    Some(&at) if at <= until => {
                        self.events.remove(0);
                        self.now = at;
                    }
                    _ => break,
                }
                let due = self.pool.timer;
                if !self.pool.timer_fired(self.now) {
                    continue;
                }
                assert_eq!(due, Some(self.now), "a live timer fired late");
                while let Some(token) = self.pool.pop_due(self.now) {
                    assert_eq!(
                        self.unpark(token),
                        self.now,
                        "issued before or after its floor"
                    );
                    self.issue(token);
                }
                let at = self.pool.arm();
                self.schedule(at);
                self.check();
            }
            self.now = until;
        }

        fn check(&self) {
            let mut sorted = self.parked.clone();
            sorted.sort_unstable();
            assert!(
                self.pool.waiting.iter().eq(sorted.iter()),
                "wait set and model differ"
            );
            let held: u64 = self
                .live
                .values()
                .map(|r| match r {
                    Read::Issued { bytes } => *bytes,
                    Read::Waiting { .. } => 0,
                })
                .sum();
            assert_eq!(self.pool.in_use, held);
            assert!(self.pool.peak >= held);
            assert!(
                sorted.is_empty() || !self.pool.has_room(),
                "{} wait while there is room",
                sorted.len()
            );
            // Every read the cub still wants is issued or still short of
            // its floor, and known to the pool.
            for (&token, read) in &self.live {
                if let Read::Waiting { floor, .. } = *read {
                    assert!(floor > self.now, "{token} waits past its floor");
                    assert!(sorted.contains(&(floor, token)));
                }
            }
            // One live timer at most, not in the past, no later than the
            // head's floor, and an event is queued to fire it.
            if let Some(due) = self.pool.timer {
                assert!(due > self.now, "the live timer is in the past");
                assert!(self.events.contains(&due), "no event for the live timer");
            }
            if let Some(&(floor, _)) = sorted.first() {
                assert!(
                    self.pool.timer.is_some_and(|due| due <= floor),
                    "head has no timer"
                );
            }
        }
    }

    #[test]
    fn pool_matches_the_naive_model() {
        check("pool_matches_the_naive_model", |rng| {
            let mut d = Driver {
                now: SimTime::ZERO,
                pool: BufferPool::new(CACHE, BLOCK),
                live: BTreeMap::new(),
                parked: Vec::new(),
                events: Vec::new(),
                next: 0,
            };
            for _ in 0..rng.gen_range(1usize..300) {
                match rng.gen_range(0u32..20) {
                    // Primaries come due 0.7 s ahead of their floor, mirror
                    // pieces (smaller) 1.4 s, a fresh insert at it.
                    0..=5 => d.read_due(700, BLOCK),
                    6..=8 => d.read_due(1400, 3),
                    9 => d.read_due(0, BLOCK),
                    10..=13 => d.release(rng.gen_range(1usize..4), rng),
                    14..=15 => d.deschedule_a_waiter(rng),
                    16..=18 => {
                        let step = rng.gen_range(1u64..500);
                        d.advance(d.now + tiger_sim::SimDuration::from_millis(step));
                    }
                    _ => d.power_cut(),
                }
                d.check();
            }
            // Left alone, every waiter goes out at its floor and the chain
            // ends: nothing waits, no timer lives, no event is left.
            d.advance(d.now + tiger_sim::SimDuration::from_secs(2));
            d.check();
            assert!(d.parked.is_empty() && d.pool.timer.is_none() && d.events.is_empty());
        });
    }
}
