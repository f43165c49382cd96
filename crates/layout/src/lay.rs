//! Laying a file out a run at a time (paper §2.2–§2.3, §4.1.1).
//!
//! Block `b` of a file starting on disk `s` is homed on disk
//! `(s + b) mod n`, and every piece of its redundancy sits a fixed shift
//! after the home: mirror piece `i` on the `(i + 1)`-th disk, coded shard
//! `j` on the `j`-th. So the blocks whose piece of shift `σ` one disk
//! holds are every `n`-th block from the first homed `σ` disks before it
//! — a [`BlockRun`] — and over each lap of `n` blocks a disk receives the
//! same pieces in the same order, that of their runs' first blocks. Only
//! the last lap can be short, and it is short by a suffix of that order.
//! A disk's extents of one file, allocated in block order, are therefore
//! whole laps of one pattern and a prefix of it: the `k`-th extent of
//! each piece sits `k` laps' bytes after its first, and the whole share
//! is one bump of the region. [`BlockIndex::lay`] allocates it in one
//! call and hands each piece's run to the index whole, as one
//! progression — its first extent and the lap — at exactly the offsets a
//! block-by-block loop of [`DiskSpace::allocate`] hands out. Packing the
//! first and last terms packs every term between them.

use std::fmt;

use tiger_sim::ByteSize;

use crate::catalog::FileMeta;
use crate::ids::{BlockNum, DiskId};
use crate::index::{BlockIndex, IndexEntry, IndexError};
use crate::space::{aligned, DiskRegion, DiskSpace, SpaceError};
use crate::stripe::StripeConfig;

/// A file's blocks on one disk, in block order: `first`, `first + step`,
/// …, `count` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRun {
    /// The first block.
    pub first: u32,
    /// The distance between consecutive blocks: the disk count.
    pub step: u32,
    /// How many blocks the run holds.
    pub count: u32,
}

impl BlockRun {
    /// The run's blocks in order.
    pub fn blocks(self) -> impl Iterator<Item = BlockNum> {
        (0..self.count).map(move |i| BlockNum(self.first + i * self.step))
    }
}

impl StripeConfig {
    /// The blocks of a `num_blocks`-block file starting on `start_disk`
    /// that are homed on `disk`.
    pub fn run_on(&self, start_disk: DiskId, num_blocks: u32, disk: DiskId) -> BlockRun {
        let (first, step) = (self.ring_distance(start_disk, disk), self.num_disks());
        let count = num_blocks.saturating_sub(first).div_ceil(step);
        BlockRun { first, step, count }
    }
}

/// One piece of every block's redundancy: its number, the disk after the
/// block's home that holds it, and its size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    /// The piece number (mirror piece or coded shard).
    pub piece: u32,
    /// How many disks after the block's home the piece sits.
    pub shift: u32,
    /// Size of the piece in bytes.
    pub size: ByteSize,
}

/// Why a file's share of a disk could not be laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayError {
    /// The region has no room for the share.
    Space(SpaceError),
    /// An extent does not pack into an index entry.
    Index(IndexError),
}

impl fmt::Display for LayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayError::Space(e) => e.fmt(f),
            LayError::Index(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LayError {}

impl BlockIndex {
    /// Lays out the extents `disk` keeps of `meta` in `region` of its
    /// `space`: for each of `pieces`, one extent for every block homed
    /// `shift` disks before `disk`, in block order. The primary region
    /// takes one piece of shift 0; a piece number keys only the secondary
    /// region. A region without room for the whole share allocates
    /// nothing.
    pub fn lay(
        &mut self,
        space: &mut DiskSpace,
        stripe: StripeConfig,
        meta: &FileMeta,
        disk: DiskId,
        region: DiskRegion,
        pieces: &[Piece],
    ) -> Result<(), LayError> {
        let run = |p: &Piece| {
            let home = stripe.disk_before(disk, p.shift);
            stripe.run_on(meta.start_disk, meta.num_blocks, home)
        };
        let size = |p: &Piece| aligned(p.size).as_bytes();
        let lap: u64 = pieces.iter().map(size).sum();
        let share = pieces.iter().map(|p| u64::from(run(p).count) * size(p));
        let share = ByteSize::from_bytes(share.sum());
        let (base, _) = space.allocate(region, share).map_err(LayError::Space)?;
        for p in pieces {
            let blocks = run(p);
            let ahead = pieces.iter().filter(|q| run(q).first < blocks.first);
            let offset = base + ahead.map(size).sum::<u64>();
            let piece = (region == DiskRegion::Secondary).then_some(p.piece);
            let Some(last) = blocks.count.checked_sub(1) else {
                continue;
            };
            // Every term lies between these two, so if they pack, all do.
            let term = |k: u32| IndexEntry::pack(offset + u64::from(k) * lap, aligned(p.size));
            let first = term(0).map_err(LayError::Index)?;
            term(last).map_err(LayError::Index)?;
            (self.install(disk, piece, meta.id, blocks, first, lap)).map_err(LayError::Index)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FileId;
    use crate::mirror::MirrorPlacement;
    use tiger_sim::check::check_reaching;
    use tiger_sim::Bandwidth;

    /// A file's primary piece (shift 0, in the primary region) and the
    /// pieces of its redundancy, as a system of either backend lays them.
    fn pieces(stripe: StripeConfig, coded: bool, block: ByteSize) -> (Piece, Vec<Piece>) {
        let d = stripe.decluster;
        let shard = block.div_u64_ceil(u64::from(d));
        let piece = |piece, shift, size| Piece { piece, shift, size };
        match coded {
            true => (
                piece(0, 0, shard),
                (1..2 * d).map(|j| piece(j, j, shard)).collect(),
            ),
            false => (
                piece(0, 0, block),
                MirrorPlacement::new(stripe).pieces(block).collect(),
            ),
        }
    }

    /// Every cub's index and every disk's space map.
    struct Disks {
        index: Vec<BlockIndex>,
        space: Vec<DiskSpace>,
    }

    type Extent = (DiskId, Option<u32>, FileId, BlockNum, IndexEntry);

    impl Disks {
        /// Disks whose two regions hold `region` bytes each.
        fn new(stripe: StripeConfig, region: u64) -> Self {
            let capacity = ByteSize::from_bytes(2 * region);
            Disks {
                index: vec![BlockIndex::new(); stripe.num_cubs as usize],
                space: vec![DiskSpace::half_split(capacity); stripe.num_disks() as usize],
            }
        }

        /// The reference, kept only here: one extent at a time, each
        /// block's primary in a first pass and its pieces in piece order
        /// in a second, as content loading did before runs.
        fn by_block(
            &mut self,
            stripe: StripeConfig,
            meta: &FileMeta,
            primary: Piece,
            rest: &[Piece],
        ) -> bool {
            let mut load = |disk: DiskId, piece: Option<u32>, block, size| {
                let region = piece.map_or(DiskRegion::Primary, |_| DiskRegion::Secondary);
                let Ok((offset, len)) = self.space[disk.index()].allocate(region, size) else {
                    return false;
                };
                let entry = IndexEntry::pack(offset, len).expect("packs");
                let index = &mut self.index[stripe.cub_of(disk).index()];
                match piece {
                    None => index.insert_primary(disk, meta.id, block, entry),
                    Some(p) => index.insert_secondary(disk, meta.id, block, p, entry),
                }
                .is_ok()
            };
            let home = |block| stripe.block_location(meta.start_disk, block).disk;
            let blocks = || (0..meta.num_blocks).map(BlockNum);
            blocks().all(|block| load(home(block), None, block, primary.size))
                && blocks().all(|block| {
                    let holder = |p: &Piece| stripe.disk_after(home(block), p.shift);
                    rest.iter()
                        .all(|p| load(holder(p), Some(p.piece), block, p.size))
                })
        }

        /// The run path, as a system lays a file: on every disk its
        /// primary run, then the pieces it holds.
        fn by_run(
            &mut self,
            stripe: StripeConfig,
            meta: &FileMeta,
            primary: Piece,
            rest: &[Piece],
        ) -> bool {
            (0..stripe.num_disks()).map(DiskId).all(|disk| {
                let index = &mut self.index[stripe.cub_of(disk).index()];
                let space = &mut self.space[disk.index()];
                let mut lay = |region, pieces: &[Piece]| {
                    (index.lay(space, stripe, meta, disk, region, pieces)).is_ok()
                };
                lay(DiskRegion::Primary, &[primary]) && lay(DiskRegion::Secondary, rest)
            })
        }

        fn extents(&self) -> Vec<Extent> {
            let mut all: Vec<_> = self.index.iter().flat_map(|ix| ix.extents()).collect();
            all.sort_unstable_by_key(|&(disk, piece, file, block, _)| (disk, piece, file, block));
            all
        }
    }

    #[test]
    fn run_layout_matches_the_block_model() {
        // What the cases reached between them, asserted after the run.
        const REACH: [&str; 4] = [
            "a region filled exactly",
            "a catalog one granule too big refused by both",
            "a file shorter than a lap",
            "a holder's last lap cut short",
        ];
        check_reaching("run_layout_matches_the_block_model", REACH, |rng, reach| {
            let (cubs, per_cub) = (rng.gen_range(2u32..21), rng.gen_range(1u32..5));
            let n = cubs * per_cub;
            let coded = rng.gen_bool(0.5);
            let d = match coded {
                true => rng.gen_range(1..=(n / 2).min(16)),
                false => rng.gen_range(1..n),
            };
            let stripe = StripeConfig::new(cubs, per_cub, d);
            let files: Vec<(FileMeta, Piece, Vec<Piece>)> = (0..rng.gen_range(1u32..6))
                .map(|f| {
                    let num_blocks = match rng.gen_range(0u32..6) {
                        0 => 1,
                        1 => n - 1,
                        2 => n,
                        3 => n + 1,
                        _ => rng.gen_range(1..4 * n + 3),
                    };
                    // At least `d²` bytes, so no mirror piece is empty.
                    let bytes = rng.gen_range(u64::from(d * d).max(64)..300_000);
                    let block_size = ByteSize::from_bytes(bytes);
                    let meta = FileMeta {
                        id: FileId(f),
                        bitrate: Bandwidth::from_mbit_per_sec(2),
                        num_blocks,
                        block_size,
                        payload_size: block_size,
                        start_disk: DiskId(rng.gen_range(0..n)),
                    };
                    reach(2, num_blocks < n);
                    reach(3, num_blocks > n && num_blocks % n != 0 && d > 1);
                    let (home, rest) = pieces(stripe, coded, block_size);
                    (meta, home, rest)
                })
                .collect();
            // Size the regions from what the reference needs: the
            // fullest region exactly, one granule short, or with room.
            const ROOM: u64 = 1 << 38;
            let mut need = Disks::new(stripe, ROOM);
            for (meta, home, rest) in &files {
                assert!(need.by_block(stripe, meta, *home, rest), "fits 256 GiB");
            }
            let fullest = (need.space.iter())
                .flat_map(|s| {
                    [
                        s.next(DiskRegion::Primary),
                        s.next(DiskRegion::Secondary) - ROOM,
                    ]
                })
                .max()
                .expect("a disk");
            let region = match rng.gen_range(0u32..4) {
                0 => fullest,
                1 if fullest > 64 => fullest - 64,
                _ => fullest + 64 * rng.gen_range(1u64..100),
            };
            let (mut model, mut runs) = (Disks::new(stripe, region), Disks::new(stripe, region));
            for (meta, home, rest) in &files {
                let fits = model.by_block(stripe, meta, *home, rest);
                assert_eq!(
                    runs.by_run(stripe, meta, *home, rest),
                    fits,
                    "{stripe:?} {meta:?}"
                );
                if !fits {
                    reach(1, region == fullest - 64);
                    return;
                }
            }
            assert!(region >= fullest, "a catalog too big for its disks fitted");
            let full = |s: &DiskSpace| {
                s.next(DiskRegion::Primary) == region || s.next(DiskRegion::Secondary) == 2 * region
            };
            reach(0, runs.space.iter().any(full));
            assert!(
                runs.space == model.space,
                "{stripe:?} coded={coded}: space maps"
            );
            let extents = runs.extents();
            assert!(
                extents == model.extents(),
                "{stripe:?} coded={coded}: extents"
            );
            for &(disk, piece, file, block, entry) in &extents {
                let index = &runs.index[stripe.cub_of(disk).index()];
                let got = match piece {
                    None => index.lookup_primary(disk, file, block),
                    Some(p) => index.lookup_secondary(disk, file, block, p),
                };
                assert_eq!(
                    got,
                    Some(entry),
                    "lookup {disk} {piece:?} {file:?} {block:?}"
                );
            }
        });
    }
}
