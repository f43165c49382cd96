//! The file catalog: per-file metadata and block geometry (paper §2.2).
//!
//! "Files are broken up into blocks, which are pieces of equal duration. …
//! The duration of a block is called the 'block play time' … The block play
//! time is the same for every file in a particular Tiger system."
//!
//! This is a *single bitrate* server (§2.2): all blocks are the same size,
//! sized for the system's maximum bitrate, and slower files suffer
//! internal fragmentation.

use tiger_sim::{Bandwidth, ByteSize, SimDuration};

use crate::ids::{BlockNum, DiskId, FileId};
use crate::stripe::{BlockLocation, StripeConfig};

/// Metadata for one content file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// The file's id.
    pub id: FileId,
    /// The encoded bitrate of the content.
    pub bitrate: Bandwidth,
    /// Number of blocks in the file.
    pub num_blocks: u32,
    /// On-disk size of each block (includes internal fragmentation in a
    /// single-bitrate system).
    pub block_size: ByteSize,
    /// Bytes of each block that carry content (`<= block_size`).
    pub payload_size: ByteSize,
    /// Disk holding block 0.
    pub start_disk: DiskId,
}

/// The system-wide file catalog.
///
/// The catalog is replicated metadata: every cub and the controller hold an
/// identical copy (it is small — one record per file — and changes only on
/// content add/remove, not per-viewer).
#[derive(Clone, Debug)]
pub struct FileCatalog {
    cfg: StripeConfig,
    block_play_time: SimDuration,
    max_bitrate: Bandwidth,
    files: Vec<FileMeta>,
}

impl FileCatalog {
    /// Creates an empty catalog.
    ///
    /// # Panics
    ///
    /// Panics if `block_play_time` or `max_bitrate` is zero, or if a block
    /// at `max_bitrate` is 4 GiB or more (a cub keeps a payload in 32 bits).
    pub fn new(cfg: StripeConfig, block_play_time: SimDuration, max_bitrate: Bandwidth) -> Self {
        assert!(
            !block_play_time.is_zero(),
            "block play time must be nonzero"
        );
        assert!(!max_bitrate.is_zero(), "max bitrate must be nonzero");
        let block = max_bitrate.bytes_in(block_play_time).as_bytes();
        assert!(block < 1 << 32, "a block must be under 4 GiB");
        FileCatalog {
            cfg,
            block_play_time,
            max_bitrate,
            files: Vec::new(),
        }
    }

    /// Adds a file of the given bitrate and play duration; returns its id.
    ///
    /// The number of blocks is `ceil(duration / block_play_time)` (the last
    /// block may be partially filled). The starting disk is chosen by the
    /// stripe config's deterministic hash.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` exceeds the configured maximum, or if the file is
    /// empty.
    pub fn add_file(&mut self, bitrate: Bandwidth, duration: SimDuration) -> FileId {
        assert!(
            bitrate <= self.max_bitrate,
            "file bitrate {bitrate} exceeds system maximum {}",
            self.max_bitrate
        );
        assert!(!bitrate.is_zero(), "file bitrate must be nonzero");
        assert!(!duration.is_zero(), "file duration must be nonzero");
        let id = FileId(self.files.len() as u32);
        let num_blocks = u32::try_from(
            duration
                .as_nanos()
                .div_ceil(self.block_play_time.as_nanos()),
        )
        .expect("file too long");
        let meta = FileMeta {
            id,
            bitrate,
            num_blocks,
            block_size: self.max_bitrate.bytes_in(self.block_play_time),
            payload_size: bitrate.bytes_in(self.block_play_time),
            start_disk: self.cfg.starting_disk(id),
        };
        self.files.push(meta);
        id
    }

    /// Looks up a file's metadata.
    pub fn get(&self, file: FileId) -> Option<&FileMeta> {
        self.files.get(file.index())
    }

    /// All files in the catalog.
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if the catalog has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The primary location of `block` of `file`, or `None` for an unknown
    /// file or out-of-range block.
    pub fn locate(&self, file: FileId, block: BlockNum) -> Option<BlockLocation> {
        let meta = self.get(file)?;
        (block.raw() < meta.num_blocks).then(|| self.cfg.block_location(meta.start_disk, block))
    }

    /// Re-derives every file's layout for a new stripe configuration (the
    /// cut-over step of a restripe). File ids, block counts, and block
    /// sizes are untouched; only the starting disks move — exactly the
    /// derivation `RestripePlan::plan` uses for its target layout, so the
    /// catalog after `restripe(new)` locates every block at the plan's
    /// `to` disk.
    pub fn restripe(&mut self, new: StripeConfig) {
        self.cfg = new;
        for meta in &mut self.files {
            meta.start_disk = new.starting_disk(meta.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sosp_catalog() -> FileCatalog {
        FileCatalog::new(
            StripeConfig::new(14, 4, 4),
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(2),
        )
    }

    #[test]
    fn one_hour_file_has_3600_blocks() {
        let mut c = sosp_catalog();
        let f = c.add_file(
            Bandwidth::from_mbit_per_sec(2),
            SimDuration::from_secs(3600),
        );
        let meta = c.get(f).expect("file exists");
        assert_eq!(meta.num_blocks, 3600);
        // 2 Mbit/s for 1 s = 250,000 bytes (decimal Mbit).
        assert_eq!(meta.block_size.as_bytes(), 250_000);
        assert_eq!(meta.payload_size, meta.block_size, "no fragmentation");
    }

    #[test]
    fn partial_trailing_block_rounds_up() {
        let mut c = sosp_catalog();
        let f = c.add_file(
            Bandwidth::from_mbit_per_sec(2),
            SimDuration::from_millis(2500),
        );
        assert_eq!(c.get(f).expect("exists").num_blocks, 3);
    }

    #[test]
    fn single_bitrate_fragments_slow_files() {
        let mut c = sosp_catalog();
        let f = c.add_file(Bandwidth::from_mbit_per_sec(1), SimDuration::from_secs(10));
        let meta = c.get(f).expect("exists");
        assert_eq!(meta.block_size.as_bytes(), 250_000);
        assert_eq!(meta.payload_size.as_bytes(), 125_000);
    }

    #[test]
    fn locate_walks_the_stripe() {
        let mut c = sosp_catalog();
        let f = c.add_file(
            Bandwidth::from_mbit_per_sec(2),
            SimDuration::from_secs(3600),
        );
        let start = c.get(f).expect("exists").start_disk;
        let loc0 = c.locate(f, BlockNum(0)).expect("in range");
        let loc1 = c.locate(f, BlockNum(1)).expect("in range");
        assert_eq!(loc0.disk, start);
        assert_eq!(loc1.disk, StripeConfig::new(14, 4, 4).disk_after(start, 1));
        assert_eq!(c.locate(f, BlockNum(3600)), None);
        assert_eq!(c.locate(FileId(99), BlockNum(0)), None);
    }

    #[test]
    fn sosp_capacity_sixtyfour_hours() {
        // §5: "capable of storing slightly more than 64 hours of content at
        // 2 Mbit/s" on 56 × 2.5 GB disks (primaries use half of each disk).
        let mut c = sosp_catalog();
        for _ in 0..64 {
            c.add_file(
                Bandwidth::from_mbit_per_sec(2),
                SimDuration::from_secs(3600),
            );
        }
        let bytes = |f: &FileMeta| u64::from(f.num_blocks) * f.block_size.as_bytes();
        let total: u64 = c.files().iter().map(bytes).sum();
        // 64 h at 2 Mbit/s = 57.6 GB of primary content, which fits in half
        // of 56 × 2.5 GB = 70 GB with mirrors in the other half.
        assert_eq!(total, 64 * 3600 * 250_000);
        assert!(total <= 56 * 2_500_000_000 / 2 * 10 / 10);
    }

    #[test]
    #[should_panic(expected = "a block must be under 4 GiB")]
    fn a_block_of_4_gib_is_rejected() {
        let (stripe, bpt) = (StripeConfig::new(14, 4, 4), SimDuration::from_secs(1));
        // The last byte count 32 bits hold is accepted; one more is not.
        let rate = Bandwidth::from_bytes_per_sec(u32::MAX.into());
        let mut widest = FileCatalog::new(stripe, bpt, rate);
        let f = widest.add_file(rate, bpt);
        let payload = widest.get(f).expect("exists").payload_size;
        assert_eq!(payload.as_bytes(), u64::from(u32::MAX));
        FileCatalog::new(stripe, bpt, Bandwidth::from_bytes_per_sec(1 << 32));
    }

    #[test]
    #[should_panic(expected = "exceeds system maximum")]
    fn overfast_file_rejected() {
        let mut c = sosp_catalog();
        c.add_file(Bandwidth::from_mbit_per_sec(3), SimDuration::from_secs(10));
    }
}
