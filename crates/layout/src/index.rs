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

use std::fmt;

use tiger_sim::{ByteSize, DetHashMap as HashMap};

use crate::ids::{BlockNum, DiskId, FileId};

/// Length granule for packed entries, in bytes.
const LENGTH_UNIT: u64 = 64;
/// Bits of byte offset in a packed entry.
const OFFSET_BITS: u32 = 40;
/// Bits of length (in `LENGTH_UNIT`s) in a packed entry.
const LENGTH_BITS: u32 = 24;

/// A packed 64-bit index entry: where an extent lives on its disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexEntry(u64);

/// Errors from index operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// The offset does not fit in 40 bits.
    OffsetTooLarge,
    /// The length does not fit in 24 bits of 64-byte units, or is not a
    /// multiple of the 64-byte granule.
    BadLength,
    /// An entry already exists for this key.
    Duplicate,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::OffsetTooLarge => write!(f, "extent offset exceeds 40 bits"),
            IndexError::BadLength => {
                write!(f, "extent length not a representable multiple of 64 bytes")
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
        Ok(IndexEntry(offset | (units << OFFSET_BITS)))
    }

    /// The extent's byte offset on its disk.
    pub fn offset(self) -> u64 {
        self.0 & ((1 << OFFSET_BITS) - 1)
    }

    /// The extent's length in bytes.
    pub fn length(self) -> ByteSize {
        ByteSize::from_bytes((self.0 >> OFFSET_BITS) * LENGTH_UNIT)
    }

    /// The raw 64-bit representation.
    pub fn raw(self) -> u64 {
        self.0
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

/// The in-memory index for all disks of one cub.
///
/// Primary extents are keyed by `(disk, file, block)`; mirror (secondary)
/// extents additionally carry the piece number.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    primary: HashMap<(DiskId, FileId, BlockNum), IndexEntry>,
    secondary: HashMap<(DiskId, FileId, BlockNum, u32), IndexEntry>,
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
        match self.primary.entry((disk, file, block)) {
            std::collections::hash_map::Entry::Occupied(_) => Err(IndexError::Duplicate),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(entry);
                Ok(())
            }
        }
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
        match self.secondary.entry((disk, file, block, piece)) {
            std::collections::hash_map::Entry::Occupied(_) => Err(IndexError::Duplicate),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(entry);
                Ok(())
            }
        }
    }

    /// Looks up the primary extent of `(file, block)` on `disk`.
    pub fn lookup_primary(
        &self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
    ) -> Option<IndexEntry> {
        self.primary.get(&(disk, file, block)).copied()
    }

    /// Looks up a mirror-piece extent.
    pub fn lookup_secondary(
        &self,
        disk: DiskId,
        file: FileId,
        block: BlockNum,
        piece: u32,
    ) -> Option<IndexEntry> {
        self.secondary.get(&(disk, file, block, piece)).copied()
    }

    /// Number of secondary extents indexed.
    pub fn secondary_len(&self) -> usize {
        self.secondary.len()
    }

    /// Approximate resident size of the index in bytes (64-bit entries plus
    /// key overhead is ignored, matching the paper's "relatively little
    /// metadata" argument — this reports the 8 bytes per entry the paper
    /// counts).
    pub fn entry_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(8 * (self.primary.len() + self.secondary.len()) as u64)
    }

    /// Removes all extents for `disk` (used when a disk is re-formatted by
    /// the restriper).
    pub fn clear_disk(&mut self, disk: DiskId) {
        self.primary.retain(|&(d, _, _), _| d != disk);
        self.secondary.retain(|&(d, _, _, _), _| d != disk);
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
        self.primary.remove(&(disk, file, block))
    }

    /// Removes every secondary extent (live-restripe cut-over: mirror
    /// placement is re-derived wholesale for the new stripe).
    pub fn clear_all_secondary(&mut self) {
        self.secondary.clear();
    }

    /// Iterates the `(disk, file, block)` keys of every primary extent, in
    /// arbitrary order (callers that need determinism must sort — the
    /// layout digest does).
    pub fn primary_keys(&self) -> impl Iterator<Item = (DiskId, FileId, BlockNum)> + '_ {
        self.primary.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_hasher_spreads_one_cubs_index_keys() {
        // Cub 5 of the 56-cub ring: four disks 56 apart, and of every file
        // the blocks that land on them — every 224th, from a start disk
        // that moves with the file.
        let keys = (0u32..64).flat_map(|file| {
            (0u32..4).flat_map(move |local| {
                let disk = 5 + 56 * local;
                let first = (disk + 224 - file % 224) % 224;
                (0u32..256)
                    .map(move |lap| (DiskId(disk), FileId(file), BlockNum(first + 224 * lap)))
            })
        });
        tiger_sim::check::assert_hash_spreads("(DiskId, FileId, BlockNum)", keys);
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
        assert_eq!(ix.secondary_len(), 2);
    }

    #[test]
    fn clear_disk_removes_only_that_disk() {
        let mut ix = BlockIndex::new();
        let e = IndexEntry::pack(0, ByteSize::from_bytes(64)).expect("packs");
        ix.insert_primary(DiskId(1), FileId(0), BlockNum(0), e)
            .expect("inserts");
        ix.insert_primary(DiskId(2), FileId(0), BlockNum(1), e)
            .expect("inserts");
        ix.clear_disk(DiskId(1));
        assert_eq!(ix.lookup_primary(DiskId(1), FileId(0), BlockNum(0)), None);
        assert!(ix
            .lookup_primary(DiskId(2), FileId(0), BlockNum(1))
            .is_some());
    }

    #[test]
    fn entry_bytes_counts_8_per_entry() {
        let mut ix = BlockIndex::new();
        let e = IndexEntry::pack(0, ByteSize::from_bytes(64)).expect("packs");
        ix.insert_primary(DiskId(1), FileId(0), BlockNum(0), e)
            .expect("inserts");
        ix.insert_secondary(DiskId(1), FileId(0), BlockNum(0), 0, e)
            .expect("inserts");
        assert_eq!(ix.entry_bytes().as_bytes(), 16);
    }
}
