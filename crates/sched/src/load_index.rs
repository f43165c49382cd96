//! Incrementally maintained load index for the network schedule (see
//! docs/ADMISSION.md).
//!
//! The network schedule's load profile is a piecewise-constant function of
//! ring position: every entry contributes `+rate` at its start and `-rate`
//! one block play time later (mod the ring). [`LoadIndex`] keeps the
//! breakpoints in a `BTreeMap` keyed by start position, summed per
//! position, and updates one key on each reservation change. A query walks
//! only the entries whose spans overlap the probed window, never the whole
//! schedule, for quantized and arbitrary starts alike.
//!
//! It answers exactly as a full rescan would: the differential property
//! tests in `tests/prop.rs` drive it against a rescanning reference model
//! through random operation sequences.

use std::collections::btree_map;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

/// Summed rate and entry count at one breakpoint position.
#[derive(Clone, Copy, Debug)]
struct Lane {
    bits: u64,
    count: u32,
}

/// The breakpoint index behind [`crate::NetworkSchedule`].
#[derive(Clone, Debug)]
pub(crate) struct LoadIndex {
    /// start position (ns) → aggregate rate starting there.
    starts: BTreeMap<u64, Lane>,
    bpt: u64,
    len: u64,
}

impl LoadIndex {
    pub(crate) fn new(len: u64, bpt: u64) -> Self {
        LoadIndex {
            starts: BTreeMap::new(),
            bpt,
            len,
        }
    }

    pub(crate) fn add(&mut self, start: u64, bits: u64) {
        let lane = self
            .starts
            .entry(start % self.len)
            .or_insert(Lane { bits: 0, count: 0 });
        lane.bits += bits;
        lane.count += 1;
    }

    pub(crate) fn sub(&mut self, start: u64, bits: u64) {
        let key = start % self.len;
        let lane = self.starts.get_mut(&key).expect("entry was indexed");
        lane.bits -= bits;
        lane.count -= 1;
        if lane.count == 0 {
            self.starts.remove(&key);
        }
    }

    /// Sum of rates with start in the ring interval `(pos - bpt, pos]` —
    /// exactly the entries whose span covers `pos`. O(log n + overlap).
    pub(crate) fn load_at(&self, pos: u64) -> u64 {
        let pos = pos % self.len;
        let a = (pos + self.len - self.bpt) % self.len;
        let mut total = 0u64;
        if a < pos {
            for (_, lane) in self.starts.range((Excluded(a), Included(pos))) {
                total += lane.bits;
            }
        } else {
            // Wraps the ring end: (a, len) ∪ [0, pos].
            for (_, lane) in self.starts.range((Excluded(a), Excluded(self.len))) {
                total += lane.bits;
            }
            for (_, lane) in self.starts.range(..=pos) {
                total += lane.bits;
            }
        }
        total
    }

    /// Breakpoints in the open ring interval `(a, a + width)`, yielded as
    /// `(offset from a, rate)` in ascending offset order, without
    /// allocating.
    fn ring_range(&self, a: u64, width: u64) -> RingRange<'_> {
        let empty = || self.starts.range((Included(0), Excluded(0)));
        let (first, second) = if a + width <= self.len {
            (
                self.starts.range((Excluded(a), Excluded(a + width))),
                empty(),
            )
        } else {
            let tail = self.starts.range((Excluded(a), Excluded(self.len)));
            let head_end = a + width - self.len;
            let head = if head_end == 0 {
                empty()
            } else {
                self.starts.range((Included(0), Excluded(head_end)))
            };
            (tail, head)
        };
        RingRange {
            first,
            second,
            base: a,
            len: self.len,
            in_second: false,
        }
    }

    /// Max instantaneous load over `[pos, pos + bpt)`: start from
    /// `load_at(pos)` and sweep the breakpoints inside the window — rises
    /// from entry starts, falls from entry ends — in offset order.
    /// O(log n + entries near the window).
    pub(crate) fn max_in_entry_window(&self, pos: u64) -> u64 {
        let s = pos % self.len;
        let mut load = self.load_at(s) as i128;
        let mut max = load;
        // Rises: starts strictly inside (s, s + bpt), at their offset.
        let mut rises = self.ring_range(s, self.bpt).peekable();
        // Falls: entries ending inside the window started in (s - bpt, s);
        // an entry starting at offset d from (s - bpt) ends at offset d
        // from s.
        let fall_base = (s + self.len - self.bpt) % self.len;
        let mut falls = self.ring_range(fall_base, self.bpt).peekable();
        loop {
            let next_rise = rises.peek().map(|&(d, _)| d);
            let next_fall = falls.peek().map(|&(d, _)| d);
            let d = match (next_rise, next_fall) {
                (None, None) => break,
                (Some(r), None) => r,
                (None, Some(f)) => f,
                (Some(r), Some(f)) => r.min(f),
            };
            if next_rise == Some(d) {
                let (_, bits) = rises.next().expect("peeked");
                load += i128::from(bits);
            }
            if next_fall == Some(d) {
                let (_, bits) = falls.next().expect("peeked");
                load -= i128::from(bits);
            }
            max = max.max(load);
        }
        max as u64
    }
}

/// Iterator over breakpoints in an open ring interval; see
/// [`LoadIndex::ring_range`].
struct RingRange<'a> {
    first: btree_map::Range<'a, u64, Lane>,
    second: btree_map::Range<'a, u64, Lane>,
    base: u64,
    len: u64,
    in_second: bool,
}

impl Iterator for RingRange<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if !self.in_second {
            if let Some((&t, lane)) = self.first.next() {
                return Some((t - self.base, lane.bits));
            }
            self.in_second = true;
        }
        self.second
            .next()
            .map(|(&t, lane)| (t + self.len - self.base, lane.bits))
    }
}
