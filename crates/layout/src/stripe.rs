//! Cub-minor striping (paper §2.2).
//!
//! "Tiger numbers its disks in cub-minor order: Disk 0 is on cub 0, disk 1
//! is on cub 1, disk n is on cub 0, disk n+1 is on cub 1 and so forth,
//! assuming that there are n cubs in the system. … For each file, a
//! starting disk is selected in some manner, the first block of the file is
//! placed on that disk, the next block is placed on the succeeding disk and
//! so on."

use crate::ids::{BlockNum, CubId, DiskId, FileId};

/// The static striping configuration of a Tiger system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeConfig {
    /// Number of cubs (content machines).
    pub num_cubs: u32,
    /// Number of disks attached to each cub.
    pub disks_per_cub: u32,
    /// Decluster factor: how many pieces each block's mirror is split into
    /// (§2.3).
    pub decluster: u32,
}

/// Where one block of one file lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockLocation {
    /// The disk holding the primary copy.
    pub disk: DiskId,
    /// The cub hosting that disk.
    pub cub: CubId,
}

impl StripeConfig {
    /// Creates a configuration, validating basic sanity.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if a cub has more than 256 disks (a
    /// cub keeps a disk's local index in a byte), or if the decluster factor
    /// is not smaller than the number of disks (a mirror piece must never
    /// land back on the primary's disk).
    pub fn new(num_cubs: u32, disks_per_cub: u32, decluster: u32) -> Self {
        assert!(num_cubs > 0, "need at least one cub");
        assert!(disks_per_cub > 0, "need at least one disk per cub");
        assert!(disks_per_cub <= 256, "at most 256 disks per cub");
        assert!(decluster > 0, "decluster factor must be at least 1");
        let cfg = StripeConfig {
            num_cubs,
            disks_per_cub,
            decluster,
        };
        assert!(
            decluster < cfg.num_disks(),
            "decluster factor {} must be < total disks {}",
            decluster,
            cfg.num_disks()
        );
        cfg
    }

    /// Total number of disks in the system.
    pub fn num_disks(&self) -> u32 {
        self.num_cubs * self.disks_per_cub
    }

    /// The cub hosting `disk` (cub-minor numbering).
    pub fn cub_of(&self, disk: DiskId) -> CubId {
        debug_assert!(disk.raw() < self.num_disks());
        CubId(disk.raw() % self.num_cubs)
    }

    /// The ordinal of `disk` among its cub's local disks (0-based), which
    /// `new`'s 256 disks a cub keep within a byte.
    pub fn local_index_of(&self, disk: DiskId) -> u8 {
        debug_assert!(disk.raw() < self.num_disks());
        (disk.raw() / self.num_cubs) as u8
    }

    /// The system-wide disk id of the cub's `local`-th disk.
    pub fn disk_of(&self, cub: CubId, local: u32) -> DiskId {
        debug_assert!(cub.raw() < self.num_cubs && local < self.disks_per_cub);
        DiskId(local * self.num_cubs + cub.raw())
    }

    /// The disk `steps` positions after `disk` around the striping ring.
    pub fn disk_after(&self, disk: DiskId, steps: u32) -> DiskId {
        debug_assert!(disk.raw() < self.num_disks());
        DiskId((disk.raw() + steps) % self.num_disks())
    }

    /// The disk `steps` positions before `disk` around the striping ring.
    pub fn disk_before(&self, disk: DiskId, steps: u32) -> DiskId {
        debug_assert!(disk.raw() < self.num_disks());
        let n = self.num_disks();
        DiskId((disk.raw() + n - steps % n) % n)
    }

    /// The primary location of block `block` of a file whose first block is
    /// on `start_disk`.
    pub fn block_location(&self, start_disk: DiskId, block: BlockNum) -> BlockLocation {
        debug_assert!(start_disk.raw() < self.num_disks());
        let disk = DiskId(
            ((start_disk.raw() as u64 + block.raw() as u64) % self.num_disks() as u64) as u32,
        );
        BlockLocation {
            disk,
            cub: self.cub_of(disk),
        }
    }

    /// The ring distance from `from` to `to` measured forward (in disks).
    pub fn ring_distance(&self, from: DiskId, to: DiskId) -> u32 {
        let n = self.num_disks();
        (to.raw() + n - from.raw()) % n
    }

    /// A deterministic starting disk for a new file, chosen by a simple
    /// multiplicative hash of the file id ("a starting disk is selected in
    /// some manner").
    pub fn starting_disk(&self, file: FileId) -> DiskId {
        let h = (file.raw() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        DiskId((h % self.num_disks() as u64) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sosp() -> StripeConfig {
        // The §5 testbed: 14 cubs, 4 disks each, decluster 4.
        StripeConfig::new(14, 4, 4)
    }

    #[test]
    fn cub_minor_numbering_matches_paper() {
        let cfg = StripeConfig::new(3, 2, 1);
        // Disk 0 on cub 0, disk 1 on cub 1, disk 2 on cub 2, disk 3 (=n) on
        // cub 0 again.
        assert_eq!(cfg.cub_of(DiskId(0)), CubId(0));
        assert_eq!(cfg.cub_of(DiskId(1)), CubId(1));
        assert_eq!(cfg.cub_of(DiskId(3)), CubId(0));
        assert_eq!(cfg.local_index_of(DiskId(3)), 1);
        assert_eq!(cfg.disk_of(CubId(0), 1), DiskId(3));
    }

    #[test]
    fn disk_of_roundtrip() {
        let cfg = sosp();
        // Every disk appears exactly once across all cubs.
        let mut seen = vec![false; cfg.num_disks() as usize];
        for cub in 0..cfg.num_cubs {
            for disk in (0..cfg.disks_per_cub).map(|l| cfg.disk_of(CubId(cub), l)) {
                assert_eq!(cfg.cub_of(disk), CubId(cub));
                assert!(!seen[disk.index()], "duplicate {disk}");
                seen[disk.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn blocks_advance_one_disk_per_block_and_wrap() {
        let cfg = sosp();
        let start = DiskId(54);
        let n = cfg.num_disks();
        for b in 0..3 * n {
            let loc = cfg.block_location(start, BlockNum(b));
            assert_eq!(loc.disk.raw(), (54 + b) % n);
            assert_eq!(loc.cub, cfg.cub_of(loc.disk));
        }
    }

    #[test]
    fn successive_blocks_visit_every_disk_once_per_lap() {
        let cfg = sosp();
        let start = cfg.starting_disk(FileId(9));
        let n = cfg.num_disks();
        let mut seen = vec![0u32; n as usize];
        for b in 0..n {
            seen[cfg.block_location(start, BlockNum(b)).disk.index()] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "one block per disk per lap");
    }

    #[test]
    fn ring_math_is_inverse() {
        let cfg = sosp();
        for d in 0..cfg.num_disks() {
            for s in 0..cfg.num_disks() * 2 {
                let fwd = cfg.disk_after(DiskId(d), s);
                assert_eq!(cfg.disk_before(fwd, s), DiskId(d));
            }
        }
        assert_eq!(cfg.ring_distance(DiskId(55), DiskId(1)), 2);
    }

    #[test]
    fn starting_disks_spread_out() {
        let cfg = sosp();
        let mut counts = vec![0u32; cfg.num_disks() as usize];
        for f in 0..560 {
            counts[cfg.starting_disk(FileId(f)).index()] += 1;
        }
        // With 560 files over 56 disks a perfectly even spread is 10 each;
        // the multiplicative hash should stay within a loose band.
        assert!(counts.iter().all(|&c| (2..=30).contains(&c)), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "decluster factor")]
    fn decluster_must_fit_ring() {
        StripeConfig::new(2, 1, 2);
    }

    #[test]
    #[should_panic(expected = "at most 256 disks per cub")]
    fn a_cub_holds_at_most_256_disks() {
        // The last local index a byte holds is accepted; one more is not.
        let widest = StripeConfig::new(2, 256, 4);
        assert_eq!(widest.local_index_of(DiskId(511)), 255);
        StripeConfig::new(2, 257, 4);
    }
}
