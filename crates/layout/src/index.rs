//! The per-cub in-memory block index (paper §4.1.1).
//!
//! "Each cub keeps track of the contents of the primary region of its
//! disks, indexed by file and block numbers. Index entries are 64 bits
//! long. Unlike traditional filesystems, the index is stored in the cub's
//! memory rather than on the data disks."
//!
//! We reproduce the 64-bit packing faithfully: 40 bits of byte offset
//! (1 TB addressable per disk — generous for 1997 disks) and 24 bits of
//! length in 64-byte units (1 GB max per extent). Packing is lossless for
//! all sizes the system produces, and the pack/unpack pair is
//! property-tested.
//!
//! The paper's index covers the primary region; this one keeps the
//! secondary region's mirror pieces and coded shards beside it, keyed by
//! piece too. An `IndexEntry` is still the 64-bit unit, but the index
//! does not store one a block. Striping puts a file's blocks on one disk
//! at a fixed stride — the disk count — and [`BlockIndex::lay`] places
//! them a fixed byte lap apart, so per disk and file (and per piece for
//! the secondary region) the extents form an arithmetic progression: a
//! first key, a key stride, a count, one entry and a lap; key
//! `at + j·every` holds that entry moved `j·lap` bytes on. A run is its
//! first segment, 32 bytes, and a laid run is that one segment, so a
//! lookup scans the cub's few disks and reads one run: one divide and
//! one cache line, nothing per block. The key-by-key paths (a restripe
//! move, a shield copy, a cut-over's removal) keep every key exact by
//! extending a segment whose progression the key continues, splitting
//! one whose span it lands inside off the stride, or starting one of its
//! own. A run's segments do not overlap and sit in key order; those after
//! the first move to a tail in a store the lanes keep, named by a `u32`
//! in the first segment's padding and freed when the run is one segment
//! again, and one there is found by binary search.

use std::fmt;
use std::num::{NonZeroU32, NonZeroU64};

use tiger_sim::ByteSize;

use crate::ids::{BlockNum, DiskId, FileId};
use crate::lay::BlockRun;

/// Length granule for packed entries, in bytes.
const LENGTH_UNIT: u64 = 64;
/// Bits of byte offset in a packed entry.
const OFFSET_BITS: u32 = 40;
/// Bits of length (in `LENGTH_UNIT`s) in a packed entry.
const LENGTH_BITS: u32 = 24;

/// A packed 64-bit index entry: where an extent lives on its disk. The
/// length is never zero, so an absent entry costs no extra bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexEntry(NonZeroU64);

/// Errors from index operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// The offset does not fit in 40 bits.
    OffsetTooLarge,
    /// The length is zero, does not fit in 24 bits of 64-byte units, or is
    /// not a multiple of the 64-byte granule.
    BadLength,
    /// An entry already exists for this key.
    Duplicate,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::OffsetTooLarge => write!(f, "extent offset exceeds 40 bits"),
            IndexError::BadLength => {
                write!(
                    f,
                    "extent length not a representable nonzero multiple of 64 bytes"
                )
            }
            IndexError::Duplicate => write!(f, "duplicate index entry"),
        }
    }
}

impl std::error::Error for IndexError {}

impl IndexEntry {
    /// Packs an extent `(offset, length)` into 64 bits.
    pub fn pack(offset: u64, length: ByteSize) -> Result<Self, IndexError> {
        if offset >= 1 << OFFSET_BITS {
            return Err(IndexError::OffsetTooLarge);
        }
        let len = length.as_bytes();
        if !len.is_multiple_of(LENGTH_UNIT) {
            return Err(IndexError::BadLength);
        }
        let units = len / LENGTH_UNIT;
        if units >= 1 << LENGTH_BITS {
            return Err(IndexError::BadLength);
        }
        let length = NonZeroU64::new(units << OFFSET_BITS).ok_or(IndexError::BadLength)?;
        Ok(IndexEntry(length | offset))
    }

    /// The extent's byte offset on its disk.
    pub fn offset(self) -> u64 {
        self.0.get() & ((1 << OFFSET_BITS) - 1)
    }

    /// The extent's length in bytes.
    pub fn length(self) -> ByteSize {
        ByteSize::from_bytes((self.0.get() >> OFFSET_BITS) * LENGTH_UNIT)
    }
}

impl fmt::Debug for IndexEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IndexEntry(off={}, len={})",
            self.offset(),
            self.length()
        )
    }
}

/// `count` extents in arithmetic progression: key `at + j·every` holds
/// `first` moved `j·lap` bytes on. Every term lies between the first and
/// the last, so a progression whose first and last terms pack packs
/// whole. Aligned to its size, so a lookup reads one cache line.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
struct Segment {
    at: u32,
    /// Free while the segment holds one key: its second key sets it.
    every: u32,
    /// Never zero.
    count: u32,
    /// On a run's first segment, the tail holding the run's others in its
    /// lanes' [`Tails`]; `None` while the run is this segment alone, and
    /// on every segment of a tail.
    tail: Option<NonZeroU32>,
    first: IndexEntry,
    /// Free, like `every`, while the segment holds one key.
    lap: i64,
}

// The first entry's nonzero length is an empty run's niche, and the
// tail's name fills the padding the three keys left.
const _: () = assert!(std::mem::size_of::<Option<Segment>>() == 32);
const _: () = assert!(std::mem::size_of::<Run>() == 32);

impl Segment {
    fn one(at: u32, entry: IndexEntry) -> Self {
        Segment {
            at,
            every: 1,
            count: 1,
            tail: None,
            first: entry,
            lap: 0,
        }
    }

    fn last(&self) -> u32 {
        self.at + (self.count - 1) * self.every
    }

    /// Which term `block` is, if it is one.
    fn term_of(&self, block: u32) -> Option<u32> {
        let off = block.checked_sub(self.at)?;
        let j = off / self.every;
        (off % self.every == 0 && j < self.count).then_some(j)
    }

    /// Term `j < count`. The offset is the packed word's low bits, and it
    /// stays in range between two terms that pack, so moving the word
    /// moves the offset alone.
    fn term(&self, j: u32) -> IndexEntry {
        let word = (self.first.0.get()).wrapping_add_signed(i64::from(j) * self.lap);
        IndexEntry(NonZeroU64::new(word).expect("the length bits are never zero"))
    }

    fn get(&self, block: u32) -> Option<IndexEntry> {
        self.term_of(block).map(|j| self.term(j))
    }

    /// Terms `n..`, for `n < count`.
    fn from(self, n: u32) -> Segment {
        Segment {
            at: self.at + n * self.every,
            count: self.count - n,
            first: self.term(n),
            ..self
        }
    }

    /// Takes `block`, which lies outside the span, as the term after the
    /// last or before the first if `entry` continues the progression
    /// there; a lone key takes any neighbour of its length.
    fn join(&mut self, block: u32, entry: IndexEntry) -> bool {
        let bytes = |a: IndexEntry, b: IndexEntry| a.offset() as i64 - b.offset() as i64;
        let after = block > self.at;
        let (every, lap) = match after {
            true => (block - self.last(), bytes(entry, self.term(self.count - 1))),
            false => (self.at - block, bytes(self.first, entry)),
        };
        let fits = entry.length() == self.first.length()
            && (self.count == 1 || (every, lap) == (self.every, self.lap));
        if fits {
            (self.every, self.lap, self.count) = (every, lap, self.count + 1);
            if !after {
                (self.at, self.first) = (block, entry);
            }
        }
        fits
    }
}

/// One file's extents on one disk (or one piece's on one disk): segments
/// whose spans, first key to last, do not overlap, in key order. The run
/// is its first segment, which names the tail holding any others, so a
/// laid run — one segment — answers a lookup from its 32 bytes alone.
#[derive(Clone, Copy, Debug, Default)]
struct Run(Option<Segment>);

impl Run {
    fn get(&self, tails: &Tails, block: u32) -> Option<IndexEntry> {
        let head = self.0.as_ref()?;
        match (head.get(block), head.tail) {
            (None, Some(tail)) => {
                let rest = tails.get(tail);
                let i = rest.partition_point(|s| s.last() < block);
                rest.get(i)?.get(block)
            }
            (got, _) => got,
        }
    }

    /// Runs `edit` over every segment in key order, then keeps the first
    /// as the run and stores the others as its tail: a tail left empty is
    /// freed.
    fn edit(&mut self, tails: &mut Tails, edit: impl FnOnce(&mut Vec<Segment>)) {
        let mut all = Vec::new();
        if let Some(head) = self.0.take() {
            all = tails.take(head.tail);
            all.insert(0, Segment { tail: None, ..head });
        }
        edit(&mut all);
        if !all.is_empty() {
            let head = all.remove(0);
            self.0 = Some(Segment {
                tail: tails.put(all),
                ..head
            });
        }
    }

    /// Adds one key: it extends the segment before or after it if its
    /// entry continues that progression, splits the segment whose span it
    /// lands inside off its stride, or else starts a segment of its own.
    fn insert(
        &mut self,
        tails: &mut Tails,
        block: u32,
        entry: IndexEntry,
    ) -> Result<(), IndexError> {
        if self.get(tails, block).is_some() {
            return Err(IndexError::Duplicate);
        }
        self.edit(tails, |all| {
            let i = all.partition_point(|s| s.last() < block);
            match all.get(i) {
                Some(&s) if s.at < block => {
                    let k = (block - s.at) / s.every + 1;
                    let low = Segment { count: k, ..s };
                    all.splice(i..=i, [low, Segment::one(block, entry), s.from(k)]);
                }
                _ => {
                    let joined = (i > 0 && all[i - 1].join(block, entry))
                        || all.get_mut(i).is_some_and(|s| s.join(block, entry));
                    if !joined {
                        all.insert(i, Segment::one(block, entry));
                    }
                }
            }
        });
        Ok(())
    }

    /// Lays `blocks` in, block `k` of the run taking `first` moved `k·lap`
    /// bytes on: a run that is empty takes them as its one segment, one
    /// that holds keys already takes them key by key through
    /// [`Run::insert`].
    fn install(
        &mut self,
        tails: &mut Tails,
        blocks: BlockRun,
        first: IndexEntry,
        lap: u64,
    ) -> Result<(), IndexError> {
        let laid = Segment {
            at: blocks.first,
            every: blocks.step,
            count: blocks.count,
            tail: None,
            first,
            // Below 2^40 when a second term packs; free otherwise.
            lap: i64::try_from(lap).unwrap_or_default(),
        };
        if self.0.is_none() {
            self.0 = Some(laid);
            return Ok(());
        }
        let mut keys = blocks.blocks().zip(0..);
        keys.try_for_each(|(block, k)| self.insert(tails, block.raw(), laid.term(k)))
    }

    fn remove(&mut self, tails: &mut Tails, block: u32) -> Option<IndexEntry> {
        let entry = self.get(tails, block)?;
        self.edit(tails, |all| {
            let i = all.partition_point(|s| s.last() < block);
            let s = all[i];
            let j = s.term_of(block).expect("a held key's segment");
            let low = (j > 0).then_some(Segment { count: j, ..s });
            let high = (j + 1 < s.count).then(|| s.from(j + 1));
            all.splice(i..=i, low.into_iter().chain(high));
        });
        Some(entry)
    }

    /// The segments in key order.
    fn segments<'a>(&'a self, tails: &'a Tails) -> impl Iterator<Item = &'a Segment> {
        let rest = self.0.and_then(|head| head.tail);
        self.0
            .iter()
            .chain(rest.map_or(&[][..], |tail| tails.get(tail)))
    }

    fn entries<'a>(&'a self, tails: &'a Tails) -> impl Iterator<Item = (u32, IndexEntry)> + 'a {
        (self.segments(tails))
            .flat_map(|s| (0..s.count).map(move |j| (s.at + j * s.every, s.term(j))))
    }
}

/// The segments after the first of every run in a set of lanes that holds
/// more than one; tail `t` is slot `t - 1`. Only a key-by-key edit — a
/// restripe move, a shield copy, a cut-over's removal — splits a run, so
/// most lanes never fill a slot. A freed slot is empty, and is named
/// again before the store grows.
#[derive(Clone, Debug, Default)]
struct Tails {
    slots: Vec<Vec<Segment>>,
    free: Vec<NonZeroU32>,
}

impl Tails {
    fn get(&self, tail: NonZeroU32) -> &[Segment] {
        &self.slots[tail.get() as usize - 1]
    }

    /// Takes a tail's segments out and frees its name; no tail is empty.
    fn take(&mut self, tail: Option<NonZeroU32>) -> Vec<Segment> {
        let Some(tail) = tail else {
            return Vec::new();
        };
        self.free.push(tail);
        std::mem::take(&mut self.slots[tail.get() as usize - 1])
    }

    /// Stores `rest` under a free name, unless it is empty.
    fn put(&mut self, rest: Vec<Segment>) -> Option<NonZeroU32> {
        if rest.is_empty() {
            return None;
        }
        let tail = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            let n = u32::try_from(self.slots.len()).expect("fewer than 2^32 tails");
            NonZeroU32::new(n).expect("the store holds one")
        });
        self.slots[tail.get() as usize - 1] = rest;
        Some(tail)
    }
}

/// Runs by lane (a disk, or a disk and a piece), then by file: a cub has
/// few lanes, so finding one is a short scan. Their tails sit apart, in
/// one store.
#[derive(Clone, Debug, Default)]
struct Lanes<K> {
    runs: Vec<(K, Vec<Run>)>,
    tails: Tails,
}

impl<K: Copy + PartialEq> Lanes<K> {
    fn get(&self, lane: K, file: FileId, block: BlockNum) -> Option<IndexEntry> {
        let (_, files) = self.runs.iter().find(|(k, _)| *k == lane)?;
        files.get(file.index())?.get(&self.tails, block.raw())
    }

    fn run_mut(&mut self, lane: K, file: FileId) -> Option<(&mut Run, &mut Tails)> {
        let (_, files) = self.runs.iter_mut().find(|(k, _)| *k == lane)?;
        Some((files.get_mut(file.index())?, &mut self.tails))
    }

    /// The run of `file` in `lane`, made if missing, and the tails.
    fn run(&mut self, lane: K, file: FileId) -> (&mut Run, &mut Tails) {
        let at = match self.runs.iter().position(|(k, _)| *k == lane) {
            Some(at) => at,
            None => {
                self.runs.push((lane, Vec::new()));
                self.runs.len() - 1
            }
        };
        let files = &mut self.runs[at].1;
        if files.len() <= file.index() {
            files.resize_with(file.index() + 1, Run::default);
        }
        (&mut files[file.index()], &mut self.tails)
    }

    fn entries(&self) -> impl Iterator<Item = (K, FileId, BlockNum, IndexEntry)> + '_ {
        let tails = &self.tails;
        self.runs.iter().flat_map(move |&(lane, ref files)| {
            (files.iter().enumerate()).flat_map(move |(file, run)| {
                (run.entries(tails))
                    .map(move |(block, entry)| (lane, FileId(file as u32), BlockNum(block), entry))
            })
        })
    }
}

/// The in-memory index for all disks of one cub.
///
/// Primary extents are keyed by `(disk, file, block)`; mirror (secondary)
/// extents additionally carry the piece number.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    primary: Lanes<DiskId>,
    secondary: Lanes<(DiskId, u32)>,
}

impl BlockIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the primary extent of `(file, block)` on `disk`.
    pub fn insert_primary(
        &mut self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
        entry: IndexEntry,
    ) -> Result<(), IndexError> {
        let (run, tails) = self.primary.run(disk, file);
        run.insert(tails, block.raw(), entry)
    }

    /// Records a mirror-piece extent.
    pub fn insert_secondary(
        &mut self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
        piece: u32,
        entry: IndexEntry,
    ) -> Result<(), IndexError> {
        let (run, tails) = self.secondary.run((disk, piece), file);
        run.insert(tails, block.raw(), entry)
    }

    /// Installs `file`'s run of `blocks` on `disk` (on its `piece` lane in
    /// the secondary region, when `piece` is some), block `k` of the run
    /// taking `first` moved `k·lap` bytes on. The caller has packed the
    /// run's last term too, and `blocks` is not empty.
    pub(crate) fn install(
        &mut self,
        disk: DiskId,
        piece: Option<u32>,
        file: FileId,
        blocks: BlockRun,
        first: IndexEntry,
        lap: u64,
    ) -> Result<(), IndexError> {
        debug_assert!(blocks.count > 0, "an empty run installed");
        let (run, tails) = match piece {
            None => self.primary.run(disk, file),
            Some(p) => self.secondary.run((disk, p), file),
        };
        run.install(tails, blocks, first, lap)
    }

    /// Looks up the primary extent of `(file, block)` on `disk`.
    pub fn lookup_primary(
        &self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
    ) -> Option<IndexEntry> {
        self.primary.get(disk, file, block)
    }

    /// Looks up a mirror-piece extent.
    pub fn lookup_secondary(
        &self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
        piece: u32,
    ) -> Option<IndexEntry> {
        self.secondary.get((disk, piece), file, block)
    }

    /// Removes the primary extent of `(file, block)` on `disk`, returning
    /// it if present (live-restripe cut-over: the block now lives on its
    /// new disk and the stale entry must stop answering lookups).
    pub fn remove_primary(
        &mut self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
    ) -> Option<IndexEntry> {
        let (run, tails) = self.primary.run_mut(disk, file)?;
        run.remove(tails, block.raw())
    }

    /// Removes every secondary extent (live-restripe cut-over: mirror
    /// placement is re-derived wholesale for the new stripe).
    pub fn clear_all_secondary(&mut self) {
        self.secondary = Lanes::default();
    }

    /// Iterates the `(disk, file, block)` keys of every primary extent, in
    /// no promised order (callers that need one must sort — the layout
    /// digest does).
    pub fn primary_keys(&self) -> impl Iterator<Item = (DiskId, FileId, BlockNum)> + '_ {
        (self.primary.entries()).map(|(disk, file, block, _)| (disk, file, block))
    }

    /// Iterates every extent, primary and secondary, as `(disk, piece,
    /// file, block, entry)` with `piece` `None` for a primary, in no
    /// promised order.
    pub fn extents(
        &self,
    ) -> impl Iterator<Item = (DiskId, Option<u32>, FileId, BlockNum, IndexEntry)> + '_ {
        let primary = (self.primary.entries()).map(|(disk, f, b, e)| (disk, None, f, b, e));
        let secondary =
            (self.secondary.entries()).map(|((disk, piece), f, b, e)| (disk, Some(piece), f, b, e));
        primary.chain(secondary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::Entry;
    use std::collections::{BTreeMap, BTreeSet};
    use tiger_sim::check::check_reaching;
    use tiger_sim::SimRng;

    fn gcd(a: u32, b: u32) -> u32 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let e = IndexEntry::pack(123 * 64, ByteSize::from_bytes(262_144)).expect("packs");
        assert_eq!(e.offset(), 123 * 64);
        assert_eq!(e.length().as_bytes(), 262_144);
    }

    #[test]
    fn pack_rejects_out_of_range() {
        assert_eq!(
            IndexEntry::pack(1 << 40, ByteSize::from_bytes(64)),
            Err(IndexError::OffsetTooLarge)
        );
        assert_eq!(
            IndexEntry::pack(0, ByteSize::from_bytes(63)),
            Err(IndexError::BadLength)
        );
        assert_eq!(
            IndexEntry::pack(0, ByteSize::from_bytes(64 * (1 << 24))),
            Err(IndexError::BadLength)
        );
        // A zero length is what keeps an empty run's head free.
        assert_eq!(
            IndexEntry::pack(64, ByteSize::from_bytes(0)),
            Err(IndexError::BadLength)
        );
    }

    #[test]
    fn max_representable_values_roundtrip() {
        let off = (1u64 << 40) - 1;
        let len = ByteSize::from_bytes(64 * ((1 << 24) - 1));
        let e = IndexEntry::pack(off, len).expect("packs");
        assert_eq!(e.offset(), off);
        assert_eq!(e.length(), len);
    }

    #[test]
    fn index_insert_lookup_and_duplicate() {
        let mut ix = BlockIndex::new();
        let e = IndexEntry::pack(0, ByteSize::from_bytes(128)).expect("packs");
        ix.insert_primary(DiskId(1), FileId(2), BlockNum(3), e)
            .expect("inserts");
        assert_eq!(
            ix.lookup_primary(DiskId(1), FileId(2), BlockNum(3)),
            Some(e)
        );
        assert_eq!(ix.lookup_primary(DiskId(0), FileId(2), BlockNum(3)), None);
        assert_eq!(
            ix.insert_primary(DiskId(1), FileId(2), BlockNum(3), e),
            Err(IndexError::Duplicate)
        );
    }

    #[test]
    fn secondary_entries_keyed_by_piece() {
        let mut ix = BlockIndex::new();
        let e0 = IndexEntry::pack(0, ByteSize::from_bytes(64)).expect("packs");
        let e1 = IndexEntry::pack(64, ByteSize::from_bytes(64)).expect("packs");
        ix.insert_secondary(DiskId(1), FileId(2), BlockNum(3), 0, e0)
            .expect("inserts");
        ix.insert_secondary(DiskId(1), FileId(2), BlockNum(3), 1, e1)
            .expect("inserts");
        assert_eq!(
            ix.lookup_secondary(DiskId(1), FileId(2), BlockNum(3), 1),
            Some(e1)
        );
    }

    #[test]
    fn a_run_installs_whole_or_key_by_key() {
        let mut ix = BlockIndex::new();
        let entry = |k: u32| IndexEntry::pack(64 * u64::from(k), ByteSize::from_bytes(64));
        let first = entry(0).expect("packs");
        let run = |first, count| BlockRun {
            first,
            step: 5,
            count,
        };
        // An empty run takes the blocks whole, as its one inline segment.
        ix.install(DiskId(1), None, FileId(0), run(2, 3), first, 64)
            .expect("installs");
        // It names no tail, and the store allocates nothing.
        let laid = ix.primary.runs[0].1[0];
        assert_eq!(laid.0.map(|s| (s.count, s.tail)), Some((3, None)));
        assert_eq!(ix.primary.tails.slots.capacity(), 0);
        assert_eq!(
            ix.lookup_primary(DiskId(1), FileId(0), BlockNum(12)),
            entry(2).ok()
        );
        // One holding a key takes them through insert: off its lattice
        // here, then a duplicate refused.
        ix.insert_primary(DiskId(1), FileId(1), BlockNum(3), entry(9).expect("packs"))
            .expect("inserts");
        ix.install(DiskId(1), None, FileId(1), run(1, 2), first, 64)
            .expect("installs");
        for (block, k) in [(1, 0), (3, 9), (6, 1)] {
            let got = ix.lookup_primary(DiskId(1), FileId(1), BlockNum(block));
            assert_eq!(got, entry(k).ok(), "block {block}");
        }
        assert_eq!(
            ix.install(DiskId(1), None, FileId(1), run(6, 1), first, 64),
            Err(IndexError::Duplicate)
        );
    }

    #[test]
    fn a_laid_run_splits_and_regrows_key_by_key() {
        // Blocks 10, 15, ..., 55 at a lap of 192 bytes, then a key below
        // the first, one off the stride inside the span, one removed from
        // the middle, one continuing the progression past its last, and
        // the two lowest removed.
        let len = ByteSize::from_bytes(64);
        let at = |offset: u64| IndexEntry::pack(offset, len).expect("packs");
        let mut ix = BlockIndex::new();
        let blocks = BlockRun {
            first: 10,
            step: 5,
            count: 10,
        };
        let (disk, file) = (DiskId(0), FileId(0));
        ix.install(disk, None, file, blocks, at(640), 192)
            .expect("installs");
        let mut model: BTreeMap<u32, IndexEntry> = (blocks.blocks().zip(0..))
            .map(|(block, k)| (block.raw(), at(640 + 192 * k)))
            .collect();
        let mut edit = |block: u32, entry: Option<IndexEntry>| {
            match entry {
                Some(e) => {
                    assert_eq!(ix.insert_primary(disk, file, BlockNum(block), e), Ok(()));
                    model.insert(block, e);
                }
                None => {
                    let got = ix.remove_primary(disk, file, BlockNum(block));
                    assert_eq!(got, model.remove(&block));
                }
            }
            for block in 0..70 {
                let got = ix.lookup_primary(disk, file, BlockNum(block));
                assert_eq!(got, model.get(&block).copied(), "block {block}");
            }
            assert_tails_held(&ix.primary);
            let run = ix.primary.runs[0].1[0];
            run.segments(&ix.primary.tails).count()
        };
        // The segments each edit leaves.
        assert_eq!(edit(3, Some(at(0))), 2);
        assert_eq!(edit(27, Some(at(64))), 4);
        assert_eq!(edit(35, None), 5);
        assert_eq!(edit(60, Some(at(640 + 192 * 10))), 5);
        assert_eq!(edit(10, None), 5);
        assert_eq!(edit(3, None), 4);
    }

    /// The run a key falls in: a disk and a file, and for the secondary
    /// region a piece.
    type RunKey = (DiskId, FileId, Option<u32>);

    fn insert(
        ix: &mut BlockIndex,
        (disk, file, piece): RunKey,
        block: BlockNum,
        entry: IndexEntry,
    ) -> Result<(), IndexError> {
        match piece {
            None => ix.insert_primary(disk, file, block, entry),
            Some(p) => ix.insert_secondary(disk, file, block, p, entry),
        }
    }

    fn lookup(ix: &BlockIndex, (disk, file, piece): RunKey, block: BlockNum) -> Option<IndexEntry> {
        match piece {
            None => ix.lookup_primary(disk, file, block),
            Some(p) => ix.lookup_secondary(disk, file, block, p),
        }
    }

    fn tail_of<K: Copy + PartialEq>(lanes: &Lanes<K>, lane: K, file: FileId) -> Option<NonZeroU32> {
        let (_, files) = lanes.runs.iter().find(|(k, _)| *k == lane)?;
        files.get(file.index())?.0?.tail
    }

    /// Whether `run` holds more than one segment.
    fn split(ix: &BlockIndex, (disk, file, piece): RunKey) -> bool {
        let tail = match piece {
            None => tail_of(&ix.primary, disk, file),
            Some(p) => tail_of(&ix.secondary, (disk, p), file),
        };
        tail.is_some()
    }

    /// The store holds a tail for exactly the runs of more than one
    /// segment: each such run names a slot of its own that holds its
    /// others, and every other slot is empty and free.
    fn assert_tails_held<K>(lanes: &Lanes<K>) {
        let slot = |tail: &NonZeroU32| tail.get() as usize - 1;
        let mut named = Vec::new();
        for run in lanes.runs.iter().flat_map(|(_, files)| files) {
            let segments: Vec<_> = run.segments(&lanes.tails).collect();
            let tail = run.0.and_then(|head| head.tail);
            assert_eq!(tail.is_some(), segments.len() > 1, "{run:?}");
            assert!(segments.iter().skip(1).all(|s| s.tail.is_none()), "{run:?}");
            named.extend(tail.as_ref().map(slot));
        }
        let mut free: Vec<_> = lanes.tails.free.iter().map(slot).collect();
        named.sort_unstable();
        free.sort_unstable();
        let (empty, held): (Vec<_>, Vec<_>) =
            (0..lanes.tails.slots.len()).partition(|&i| lanes.tails.slots[i].is_empty());
        assert_eq!(named, held, "the tails runs name against the slots held");
        assert_eq!(free, empty, "the free names against the empty slots");
    }

    /// The last progression put into a run while every one of its keys is
    /// still held: `count` keys from `first` at the case's stride, each
    /// entry `len` bytes long and `lap` bytes after the one before, the
    /// next one due at `next`.
    #[derive(Clone, Copy)]
    struct Progression {
        first: u32,
        count: u32,
        next: u64,
        len: u64,
        lap: u64,
    }

    #[test]
    fn dense_index_matches_the_map_model() {
        // What the cases reached between them, asserted after the run.
        const REACH: [&str; 10] = [
            "a run widened by an off-stride key",
            "a key below a run's first",
            "a run emptied and refilled",
            "a duplicate refused after a widen",
            "a key off a progression's stride inside its span",
            "a removal from a progression's middle",
            "a progression extended key by key",
            "a relay of a run that holds a multi-key progression",
            "a key below a progression's first",
            "a split run's tail freed when it re-merges or empties",
        ];
        check_reaching("dense_index_matches_the_map_model", REACH, |rng, reach| {
            // The index's two maps as one, keyed by run and then block.
            let mut model = BTreeMap::<(RunKey, BlockNum), IndexEntry>::new();
            let mut ix = BlockIndex::new();
            let (mut widened, mut emptied) = (BTreeSet::new(), BTreeSet::new());
            let mut progressions = BTreeMap::<RunKey, Progression>::new();
            // A stride per case, as a disk count is per system; each run's
            // lattice starts at an offset of its own, and one key in five
            // lands anywhere.
            let stride = rng.gen_range(2u32..9);
            let arb_run = |rng: &mut SimRng| -> RunKey {
                let piece = rng.gen_bool(0.5).then(|| rng.gen_range(0u32..2));
                (
                    DiskId(rng.gen_range(0u32..3)),
                    FileId(rng.gen_range(0u32..3)),
                    piece,
                )
            };
            let lattice = |(disk, file, piece): RunKey| {
                (disk.raw() + file.raw() + piece.unwrap_or(0)) % stride
            };
            let arb_block = |rng: &mut SimRng, run: RunKey| {
                BlockNum(if rng.gen_bool(0.2) {
                    rng.gen_range(0..12 * stride)
                } else {
                    lattice(run) + stride * rng.gen_range(0u32..12)
                })
            };
            let arb_entry = |rng: &mut SimRng| {
                let len = ByteSize::from_bytes(64 * rng.gen_range(1u64..1000));
                IndexEntry::pack(64 * rng.gen_range(0u64..1 << 20), len).expect("packs")
            };
            let held =
                |model: &BTreeMap<(RunKey, BlockNum), IndexEntry>, run: RunKey| -> Vec<u32> {
                    model
                        .range((run, BlockNum(0))..=(run, BlockNum(u32::MAX)))
                        .map(|(&(_, block), _)| block.raw())
                        .collect()
                };
            let runs: Vec<RunKey> = (0..3)
                .flat_map(|d| (0..3).map(move |f| (DiskId(d), FileId(f))))
                .flat_map(|(d, f)| [None, Some(0), Some(1)].map(|p| (d, f, p)))
                .collect();
            for _ in 0..rng.gen_range(1usize..200) {
                // The run this step touched, if any, and the runs split
                // before it.
                let mut touched = None;
                let was_split: BTreeSet<RunKey> =
                    runs.iter().copied().filter(|&r| split(&ix, r)).collect();
                match rng.gen_range(0u32..12) {
                    0..=5 => {
                        let run = arb_run(rng);
                        let block = arb_block(rng, run);
                        let entry = arb_entry(rng);
                        let before = held(&model, run);
                        let got = insert(&mut ix, run, block, entry);
                        touched = Some(run);
                        if let Entry::Vacant(slot) = model.entry((run, block)) {
                            assert_eq!(got, Ok(()), "{run:?} {block:?}");
                            slot.insert(entry);
                            match before.iter().min() {
                                None => reach(2, emptied.remove(&run)),
                                Some(&low) => {
                                    let lattice = before.iter().fold(0, |g, &b| gcd(g, b - low));
                                    let off =
                                        lattice > 0 && block.raw().abs_diff(low) % lattice != 0;
                                    if off {
                                        widened.insert(run);
                                    }
                                    reach(0, off);
                                    reach(1, block.raw() < low);
                                    if let Some(p) = progressions.get(&run) {
                                        let (b, last) =
                                            (block.raw(), p.first + (p.count - 1) * stride);
                                        let inside = p.first < b && b < last;
                                        reach(4, inside && (b - p.first) % stride != 0);
                                        reach(7, off);
                                        reach(8, b < p.first);
                                    }
                                }
                            }
                        } else {
                            assert_eq!(got, Err(IndexError::Duplicate), "{run:?} {block:?}");
                            reach(3, widened.contains(&run));
                        }
                    }
                    6 | 7 => {
                        let (disk, file, _) = arb_run(rng);
                        let run = (disk, file, None);
                        let present = held(&model, run);
                        let block = if !present.is_empty() && rng.gen_bool(0.7) {
                            BlockNum(present[rng.gen_range(0..present.len())])
                        } else {
                            arb_block(rng, run)
                        };
                        let removed = model.remove(&(run, block));
                        assert_eq!(
                            ix.remove_primary(disk, file, block),
                            removed,
                            "remove {run:?} {block:?}"
                        );
                        touched = Some(run);
                        if let (Some(_), Some(p)) = (removed, progressions.get(&run)) {
                            let (b, last) = (block.raw(), p.first + (p.count - 1) * stride);
                            if (p.first..=last).contains(&b) && (b - p.first) % stride == 0 {
                                reach(5, p.first < b && b < last);
                                progressions.remove(&run);
                            }
                        }
                        if !present.is_empty() && held(&model, run).is_empty() {
                            widened.remove(&run);
                            emptied.insert(run);
                        }
                    }
                    8 if rng.gen_bool(0.2) => {
                        ix.clear_all_secondary();
                        progressions.retain(|run, _| run.2.is_none());
                        model.retain(|&(run, _), _| {
                            if run.2.is_some() {
                                widened.remove(&run);
                                emptied.insert(run);
                            }
                            run.2.is_none()
                        });
                    }
                    9 | 10 => {
                        // Consecutive lattice keys at a fixed byte lap, as a
                        // disk's share of a file is laid or a shield lane
                        // loads it: half the time continuing the run's last
                        // progression, key by key.
                        let run = arb_run(rng);
                        let go_on = progressions
                            .get(&run)
                            .copied()
                            .filter(|_| rng.gen_bool(0.5));
                        let p = go_on.unwrap_or_else(|| {
                            let len = 64 * rng.gen_range(1u64..1000);
                            Progression {
                                first: lattice(run) + stride * rng.gen_range(0u32..12),
                                count: 0,
                                next: 64 * rng.gen_range(0u64..1 << 20),
                                len,
                                lap: len + 64 * rng.gen_range(0u64..3000),
                            }
                        });
                        let count = rng.gen_range(2u32..12);
                        let empty = held(&model, run).is_empty();
                        let mut fresh = true;
                        for k in 0..count {
                            let block = BlockNum(p.first + (p.count + k) * stride);
                            let offset = p.next + u64::from(k) * p.lap;
                            let entry = IndexEntry::pack(offset, ByteSize::from_bytes(p.len))
                                .expect("packs");
                            let got = insert(&mut ix, run, block, entry);
                            if let Entry::Vacant(slot) = model.entry((run, block)) {
                                assert_eq!(got, Ok(()), "{run:?} {block:?}");
                                slot.insert(entry);
                            } else {
                                assert_eq!(got, Err(IndexError::Duplicate), "{run:?} {block:?}");
                                fresh = false;
                            }
                        }
                        if empty {
                            reach(2, emptied.remove(&run));
                        }
                        reach(6, go_on.is_some() && fresh);
                        touched = Some(run);
                        match fresh {
                            true => progressions.insert(
                                run,
                                Progression {
                                    count: p.count + count,
                                    next: p.next + u64::from(count) * p.lap,
                                    ..p
                                },
                            ),
                            false => progressions.remove(&run),
                        };
                    }
                    _ => {}
                }
                // Every block across the touched run's span and a stride
                // either side of it.
                assert_tails_held(&ix.primary);
                assert_tails_held(&ix.secondary);
                if let Some(run) = touched {
                    reach(9, was_split.contains(&run) && !split(&ix, run));
                    let keys = held(&model, run);
                    if let (Some(&low), Some(&high)) = (keys.first(), keys.last()) {
                        for block in low.saturating_sub(stride)..=high + stride {
                            let want = model.get(&(run, BlockNum(block))).copied();
                            let got = lookup(&ix, run, BlockNum(block));
                            assert_eq!(got, want, "span {run:?} {block}");
                        }
                    }
                }
                // A key drawn as an insert draws it, and a present one.
                let run = arb_run(rng);
                let block = arb_block(rng, run);
                let want = model.get(&(run, block)).copied();
                assert_eq!(lookup(&ix, run, block), want, "lookup {run:?} {block:?}");
                if !model.is_empty() {
                    let pick = rng.gen_range(0..model.len());
                    let (&(run, block), &entry) = model.iter().nth(pick).expect("in range");
                    assert_eq!(lookup(&ix, run, block), Some(entry), "{run:?} {block:?}");
                }
                let mut keys: Vec<_> = ix.primary_keys().collect();
                keys.sort_unstable();
                let want = model
                    .keys()
                    .filter(|((_, _, piece), _)| piece.is_none())
                    .map(|&((disk, file, _), block)| (disk, file, block));
                assert!(keys.into_iter().eq(want), "primary_keys()");
            }
        });
    }
}
