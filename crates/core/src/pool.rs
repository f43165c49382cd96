//! A cub's read-ahead buffer pool (paper §3.1: the disks run ahead of
//! the schedule, "trading off buffer usage to cover for slight variations
//! in disk and I/O system performance").
//!
//! The pool counts the bytes its cub's outstanding reads hold against the
//! buffer cache and knows which reads are waiting for room. A read that
//! finds the pool full waits here under its *hard floor*, the last
//! instant it may go out (one scheduling lead before its send); whoever
//! returns a buffer hands the room to the waiter with the earliest floor.

use std::collections::VecDeque;

use tiger_sim::{Counter, SimTime};

use crate::event::ServiceToken;

/// One cub's buffer accounting and its wait set.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    /// Bytes held by reads issued and not yet reclaimed.
    in_use: u64,
    /// The most `in_use` has been.
    peak: u64,
    /// Reads waiting for room, ascending by `(hard floor, token)`.
    waiting: VecDeque<(SimTime, ServiceToken)>,
    /// Reads that found the pool full and had to wait.
    pub(crate) waited: Counter,
    /// Reads that reached their floor still waiting and went out into a
    /// full pool (the over-commit above the cache size).
    pub(crate) forced: Counter,
}

impl BufferPool {
    /// Whether one more `block`-byte buffer fits a `cache`-byte cache.
    pub(crate) fn has_room(&self, block: u64, cache: u64) -> bool {
        self.in_use + block <= cache
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
    pub(crate) fn park(&mut self, floor: SimTime, token: ServiceToken) {
        self.waited.incr();
        let at = self.waiting.partition_point(|&w| w < (floor, token));
        self.waiting.insert(at, (floor, token));
    }

    /// Takes `token` out of the wait set; whether it was there.
    pub(crate) fn unpark(&mut self, floor: SimTime, token: ServiceToken) -> bool {
        let at = self.waiting.partition_point(|&w| w < (floor, token));
        let found = self.waiting.get(at) == Some(&(floor, token));
        if found {
            self.waiting.remove(at);
        }
        found
    }

    /// The waiter to hand room to, earliest floor first, if there is
    /// room. The caller issues its read (or finds it gone) and asks again.
    pub(crate) fn next_ready(&mut self, block: u64, cache: u64) -> Option<ServiceToken> {
        if !self.has_room(block, cache) {
            return None;
        }
        self.waiting.pop_front().map(|(_, token)| token)
    }

    /// Forgets every waiter (their services are gone).
    pub(crate) fn clear_waiting(&mut self) {
        self.waiting.clear();
    }

    /// Forgets the waiters and the buffers held: the cub lost its memory.
    pub(crate) fn reset(&mut self) {
        self.clear_waiting();
        self.in_use = 0;
    }
}
