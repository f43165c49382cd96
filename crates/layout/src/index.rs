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
//! Storage is 64 bits an entry too. Striping puts a file's blocks on one
//! disk at a fixed stride — the disk count — so the index keeps, per disk
//! and file (and per piece for the secondary region), a dense run of
//! entries: a first block, a step and one `Option<IndexEntry>` a slot, 8
//! bytes because a packed entry is never zero. Loading appends; a lookup
//! scans the cub's few disks and then costs one divide and one load.
//! Keys off a run's lattice (a restripe cut-over's new geometry, a shield
//! copy indexed under its failed home disk) re-lay that run at the gcd of
//! the two strides, so every key is exact on the one code path.

use std::fmt;
use std::num::NonZeroU64;

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

const _: () = assert!(std::mem::size_of::<Option<IndexEntry>>() == 8);

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

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One file's entries on one disk (or one piece's on one disk): block
/// `first + i * step` sits in slot `i`.
#[derive(Clone, Debug)]
struct Run {
    first: u32,
    /// Free while the run holds one slot: the second key sets it.
    step: u32,
    /// Never ends in `None`, so an empty vector is an empty run.
    slots: Vec<Option<IndexEntry>>,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            first: 0,
            step: 1,
            slots: Vec::new(),
        }
    }
}

impl Run {
    /// The slot `block` maps to, if it lies on the run's lattice.
    fn slot(&self, block: u32) -> Option<usize> {
        let off = block.checked_sub(self.first)?;
        (off % self.step == 0).then_some((off / self.step) as usize)
    }

    fn get(&self, block: u32) -> Option<IndexEntry> {
        *self.slots.get(self.slot(block)?)?
    }

    fn insert(&mut self, block: u32, entry: IndexEntry) -> Result<(), IndexError> {
        if self.slots.is_empty() {
            self.first = block;
            self.slots.push(Some(entry));
            return Ok(());
        }
        let delta = block.abs_diff(self.first);
        let step = match self.slots.len() {
            1 => delta,
            _ => gcd(self.step, delta),
        };
        if step == 0 {
            // The one slot holds `block` already.
            return Err(IndexError::Duplicate);
        }
        let first = self.first.min(block);
        if (first, step) != (self.first, self.step) {
            self.relay(first, step);
        }
        let i = ((block - first) / step) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        if self.slots[i].is_some() {
            return Err(IndexError::Duplicate);
        }
        self.slots[i] = Some(entry);
        Ok(())
    }

    /// Lays `blocks` in, block `k` of the run taking `entry(k)`: a run
    /// that is empty takes them whole at exact capacity, one that holds
    /// keys already takes them through [`Run::insert`], the one path for
    /// keys off its lattice.
    fn install(
        &mut self,
        blocks: BlockRun,
        entry: impl Fn(u32) -> Result<IndexEntry, IndexError>,
    ) -> Result<(), IndexError> {
        if !self.slots.is_empty() {
            let mut keys = blocks.blocks().zip(0..);
            return keys.try_for_each(|(block, k)| self.insert(block.raw(), entry(k)?));
        }
        let mut slots = Vec::with_capacity(blocks.count as usize);
        for k in 0..blocks.count {
            slots.push(Some(entry(k)?));
        }
        (self.first, self.step, self.slots) = (blocks.first, blocks.step, slots);
        Ok(())
    }

    /// Moves every slot onto the lattice `first + k * step`, which holds
    /// all of the run's present keys.
    fn relay(&mut self, first: u32, step: u32) {
        let old = std::mem::take(&mut self.slots);
        let last = self.first + (old.len() as u32 - 1) * self.step;
        self.slots = vec![None; ((last - first) / step) as usize + 1];
        for (i, entry) in old.into_iter().enumerate() {
            let block = self.first + i as u32 * self.step;
            self.slots[((block - first) / step) as usize] = entry;
        }
        (self.first, self.step) = (first, step);
    }

    fn remove(&mut self, block: u32) -> Option<IndexEntry> {
        let i = self.slot(block)?;
        let entry = self.slots.get_mut(i)?.take();
        while let Some(None) = self.slots.last() {
            self.slots.pop();
        }
        if self.slots.is_empty() {
            *self = Run::default();
        }
        entry
    }

    fn entries(&self) -> impl Iterator<Item = (u32, IndexEntry)> + '_ {
        let (first, step) = (self.first, self.step);
        (self.slots.iter().enumerate())
            .filter_map(move |(i, entry)| Some((first + i as u32 * step, (*entry)?)))
    }
}

/// Runs by lane (a disk, or a disk and a piece), then by file: a cub has
/// few lanes, so finding one is a short scan.
#[derive(Clone, Debug, Default)]
struct Lanes<K>(Vec<(K, Vec<Run>)>);

impl<K: Copy + PartialEq> Lanes<K> {
    fn get(&self, lane: K, file: FileId, block: BlockNum) -> Option<IndexEntry> {
        let (_, files) = self.0.iter().find(|(k, _)| *k == lane)?;
        files.get(file.index())?.get(block.raw())
    }

    fn run_mut(&mut self, lane: K, file: FileId) -> Option<&mut Run> {
        let (_, files) = self.0.iter_mut().find(|(k, _)| *k == lane)?;
        files.get_mut(file.index())
    }

    /// The run of `file` in `lane`, made if missing.
    fn run(&mut self, lane: K, file: FileId) -> &mut Run {
        let at = match self.0.iter().position(|(k, _)| *k == lane) {
            Some(at) => at,
            None => {
                self.0.push((lane, Vec::new()));
                self.0.len() - 1
            }
        };
        let files = &mut self.0[at].1;
        if files.len() <= file.index() {
            files.resize_with(file.index() + 1, Run::default);
        }
        &mut files[file.index()]
    }

    fn entries(&self) -> impl Iterator<Item = (K, FileId, BlockNum, IndexEntry)> + '_ {
        self.0.iter().flat_map(|&(lane, ref files)| {
            (files.iter().enumerate()).flat_map(move |(file, run)| {
                (run.entries())
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
        self.primary.run(disk, file).insert(block.raw(), entry)
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
        self.secondary
            .run((disk, piece), file)
            .insert(block.raw(), entry)
    }

    /// Installs `file`'s run of `blocks` on `disk` (on its `piece` lane in
    /// the secondary region, when `piece` is some), block `k` of the run
    /// taking `entry(k)`.
    pub(crate) fn install(
        &mut self,
        disk: DiskId,
        piece: Option<u32>,
        file: FileId,
        blocks: BlockRun,
        entry: impl Fn(u32) -> Result<IndexEntry, IndexError>,
    ) -> Result<(), IndexError> {
        if blocks.count == 0 {
            return Ok(());
        }
        let run = match piece {
            None => self.primary.run(disk, file),
            Some(p) => self.secondary.run((disk, p), file),
        };
        run.install(blocks, entry)
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
        self.primary.run_mut(disk, file)?.remove(block.raw())
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use tiger_sim::check::check;
    use tiger_sim::SimRng;

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
        // A zero length is what keeps `Option<IndexEntry>` at 64 bits.
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
        let run = |first, count| BlockRun {
            first,
            step: 5,
            count,
        };
        // An empty run takes the blocks whole, at exact capacity.
        ix.install(DiskId(1), None, FileId(0), run(2, 3), entry)
            .expect("installs");
        assert_eq!(ix.primary.0[0].1[0].slots.capacity(), 3);
        assert_eq!(
            ix.lookup_primary(DiskId(1), FileId(0), BlockNum(12)),
            entry(2).ok()
        );
        // One holding a key takes them through insert: off its lattice
        // here, then a duplicate refused.
        ix.insert_primary(DiskId(1), FileId(1), BlockNum(3), entry(9).expect("packs"))
            .expect("inserts");
        ix.install(DiskId(1), None, FileId(1), run(1, 2), entry)
            .expect("installs");
        for (block, k) in [(1, 0), (3, 9), (6, 1)] {
            let got = ix.lookup_primary(DiskId(1), FileId(1), BlockNum(block));
            assert_eq!(got, entry(k).ok(), "block {block}");
        }
        assert_eq!(
            ix.install(DiskId(1), None, FileId(1), run(6, 1), entry),
            Err(IndexError::Duplicate)
        );
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

    #[test]
    fn dense_index_matches_the_map_model() {
        // What the cases reached between them, asserted after the run.
        const REACH: [&str; 4] = [
            "a run widened by an off-stride key",
            "a key below a run's first",
            "a run emptied and refilled",
            "a duplicate refused after a widen",
        ];
        let reached: [AtomicBool; 4] = Default::default();
        let reach = |what: usize, when: bool| {
            reached[what].fetch_or(when, Ordering::Relaxed);
        };
        check("dense_index_matches_the_map_model", |rng| {
            // The index's two maps as one, keyed by run and then block.
            let mut model = BTreeMap::<(RunKey, BlockNum), IndexEntry>::new();
            let mut ix = BlockIndex::new();
            let (mut widened, mut emptied) = (BTreeSet::new(), BTreeSet::new());
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
            let arb_block = |rng: &mut SimRng, (disk, file, piece): RunKey| {
                BlockNum(if rng.gen_bool(0.2) {
                    rng.gen_range(0..12 * stride)
                } else {
                    (disk.raw() + file.raw() + piece.unwrap_or(0)) % stride
                        + stride * rng.gen_range(0u32..12)
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
            for _ in 0..rng.gen_range(1usize..200) {
                match rng.gen_range(0u32..10) {
                    0..=5 => {
                        let run = arb_run(rng);
                        let block = arb_block(rng, run);
                        let entry = arb_entry(rng);
                        let before = held(&model, run);
                        let got = insert(&mut ix, run, block, entry);
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
                        assert_eq!(
                            ix.remove_primary(disk, file, block),
                            model.remove(&(run, block)),
                            "remove {run:?} {block:?}"
                        );
                        if !present.is_empty() && held(&model, run).is_empty() {
                            widened.remove(&run);
                            emptied.insert(run);
                        }
                    }
                    8 if rng.gen_bool(0.2) => {
                        ix.clear_all_secondary();
                        model.retain(|&(run, _), _| {
                            if run.2.is_some() {
                                widened.remove(&run);
                                emptied.insert(run);
                            }
                            run.2.is_none()
                        });
                    }
                    _ => {}
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
        if std::env::var_os("TIGER_PROP_REPLAY").is_none() {
            for (what, reached) in REACH.iter().zip(&reached) {
                assert!(reached.load(Ordering::Relaxed), "no case reached {what}");
            }
        }
    }
}
