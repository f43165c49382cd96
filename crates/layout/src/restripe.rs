//! Restriping: moving content when cubs or disks are added/removed
//! (paper §2.2).
//!
//! "One disadvantage of striping across all disks is that changing the
//! system configuration … requires changing the layout of all of the files
//! and all of the disks. Tiger includes software to update (or 're-stripe')
//! from one configuration to another. Because of the switched network
//! between the cubs, the time to restripe a system does not depend on the
//! size of the system, but only on the size and speed of the cubs and their
//! disks."
//!
//! The planner computes, for every block of every file, its primary disk in
//! the old and new configurations, and emits the minimal set of moves. The
//! estimator then exposes the paper's scaling property: estimated restripe
//! time is governed by the *per-disk* byte volume, which is invariant in
//! system size for a proportionally scaled catalog.

use std::collections::HashMap;

use tiger_sim::{Bandwidth, ByteSize, SimDuration};

use crate::catalog::FileCatalog;
use crate::ids::{BlockNum, DiskId, FileId};
use crate::stripe::StripeConfig;

/// One block that must move between disks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMove {
    /// The file being moved.
    pub file: FileId,
    /// The block within the file.
    pub block: BlockNum,
    /// Where the primary lives in the old configuration.
    pub from: DiskId,
    /// Where the primary lives in the new configuration.
    pub to: DiskId,
    /// Block size in bytes.
    pub size: ByteSize,
}

/// A full restriping plan between two configurations.
#[derive(Clone, Debug)]
pub struct RestripePlan {
    old: StripeConfig,
    new: StripeConfig,
    moves: Vec<BlockMove>,
    stationary_blocks: u64,
    total_blocks: u64,
}

/// Aggregate statistics for a restriping plan.
#[derive(Clone, Debug, PartialEq)]
pub struct RestripeStats {
    /// Blocks that change disks.
    pub moved_blocks: u64,
    /// Blocks that stay put.
    pub stationary_blocks: u64,
    /// Total bytes read from source disks.
    pub bytes_moved: ByteSize,
    /// The largest per-disk byte volume (read + write) any single disk must
    /// handle; this, not system size, bounds restripe time.
    pub max_disk_bytes: ByteSize,
    /// The largest per-cub byte volume crossing any cub's NIC.
    pub max_cub_nic_bytes: ByteSize,
}

impl RestripePlan {
    /// Plans the restripe of every file in `catalog` from `old` to `new`.
    ///
    /// New starting disks are re-derived with the new configuration's hash,
    /// as the real restriper re-lays-out every file.
    pub fn plan(catalog: &FileCatalog, old: StripeConfig, new: StripeConfig) -> Self {
        let mut moves = Vec::new();
        let mut stationary = 0u64;
        let mut total = 0u64;
        for meta in catalog.files() {
            let old_start = meta.start_disk;
            let new_start = new.starting_disk(meta.id);
            for b in 0..meta.num_blocks {
                total += 1;
                let from = old.block_location(old_start, BlockNum(b)).disk;
                let to = new.block_location(new_start, BlockNum(b)).disk;
                if from == to {
                    stationary += 1;
                } else {
                    moves.push(BlockMove {
                        file: meta.id,
                        block: BlockNum(b),
                        from,
                        to,
                        size: meta.block_size,
                    });
                }
            }
        }
        RestripePlan {
            old,
            new,
            moves,
            stationary_blocks: stationary,
            total_blocks: total,
        }
    }

    /// The individual moves.
    pub fn moves(&self) -> &[BlockMove] {
        &self.moves
    }

    /// The old configuration.
    pub fn old_config(&self) -> StripeConfig {
        self.old
    }

    /// The new configuration.
    pub fn new_config(&self) -> StripeConfig {
        self.new
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> RestripeStats {
        let mut disk_bytes: HashMap<DiskId, u64> = HashMap::new();
        let mut cub_bytes: HashMap<(bool, u32), u64> = HashMap::new();
        let mut moved = ByteSize::ZERO;
        for m in &self.moves {
            moved += m.size;
            *disk_bytes.entry(m.from).or_insert(0) += m.size.as_bytes();
            *disk_bytes.entry(m.to).or_insert(0) += m.size.as_bytes();
            // NIC traffic: reads leave the old cub, writes enter the new cub.
            // Old and new configurations may have different cub counts, so
            // key by (is_new, cub id).
            let src_cub = self.old.cub_of(m.from);
            let dst_cub = self.new.cub_of(m.to);
            *cub_bytes.entry((false, src_cub.raw())).or_insert(0) += m.size.as_bytes();
            *cub_bytes.entry((true, dst_cub.raw())).or_insert(0) += m.size.as_bytes();
        }
        RestripeStats {
            moved_blocks: self.moves.len() as u64,
            stationary_blocks: self.stationary_blocks,
            bytes_moved: moved,
            max_disk_bytes: ByteSize::from_bytes(disk_bytes.values().copied().max().unwrap_or(0)),
            max_cub_nic_bytes: ByteSize::from_bytes(cub_bytes.values().copied().max().unwrap_or(0)),
        }
    }

    /// Total blocks considered.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Estimates the wall time of the restripe: every disk streams its
    /// moved bytes at `disk_bandwidth` and every cub NIC its crossing bytes
    /// at `nic_bandwidth`, all in parallel. The bottleneck resource sets
    /// the duration — which is why restripe time does not grow with system
    /// size (§2.2).
    pub fn estimate_duration(
        &self,
        disk_bandwidth: Bandwidth,
        nic_bandwidth: Bandwidth,
    ) -> SimDuration {
        let stats = self.stats();
        let disk_time = disk_bandwidth.time_to_move(stats.max_disk_bytes);
        let nic_time = nic_bandwidth.time_to_move(stats.max_cub_nic_bytes);
        disk_time.max(nic_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::SimDuration;

    fn catalog_for(cfg: StripeConfig, files: u32, secs: u64) -> FileCatalog {
        let mut c = FileCatalog::new(
            cfg,
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(2),
        );
        for _ in 0..files {
            c.add_file(
                Bandwidth::from_mbit_per_sec(2),
                SimDuration::from_secs(secs),
            );
        }
        c
    }

    #[test]
    fn identity_restripe_moves_little() {
        let cfg = StripeConfig::new(4, 2, 2);
        let catalog = catalog_for(cfg, 4, 64);
        let plan = RestripePlan::plan(&catalog, cfg, cfg);
        // Same config and same hash: starting disks are identical, so no
        // block moves at all.
        assert_eq!(plan.stats().moved_blocks, 0);
        assert_eq!(plan.stats().stationary_blocks, plan.total_blocks());
    }

    #[test]
    fn adding_a_cub_moves_most_blocks() {
        let old = StripeConfig::new(4, 2, 2);
        let new = StripeConfig::new(5, 2, 2);
        let catalog = catalog_for(old, 4, 64);
        let plan = RestripePlan::plan(&catalog, old, new);
        let stats = plan.stats();
        // Changing the ring size remaps most blocks (empirically ~77% for
        // this 8-disk → 10-disk case; small rings have frequent accidental
        // coincidences between the two modular walks).
        assert!(stats.moved_blocks > plan.total_blocks() * 6 / 10);
        assert_eq!(
            stats.moved_blocks + stats.stationary_blocks,
            plan.total_blocks()
        );
        assert_eq!(stats.bytes_moved.as_bytes(), stats.moved_blocks * 250_000);
    }

    #[test]
    fn per_disk_volume_is_size_invariant() {
        // The paper's claim: restripe time depends on per-cub content, not
        // system size. Doubling cubs *and* files (same per-disk content)
        // keeps the per-disk byte volume in the same band.
        let small_old = StripeConfig::new(4, 2, 2);
        let small_new = StripeConfig::new(5, 2, 2);
        let big_old = StripeConfig::new(8, 2, 2);
        let big_new = StripeConfig::new(10, 2, 2);
        let small_plan = RestripePlan::plan(&catalog_for(small_old, 8, 64), small_old, small_new);
        let big_plan = RestripePlan::plan(&catalog_for(big_old, 16, 64), big_old, big_new);
        let small_disk = small_plan.stats().max_disk_bytes.as_bytes() as f64;
        let big_disk = big_plan.stats().max_disk_bytes.as_bytes() as f64;
        let ratio = big_disk / small_disk;
        assert!(
            (0.5..2.0).contains(&ratio),
            "per-disk volume should not scale with system size: ratio {ratio}"
        );
    }

    #[test]
    fn duration_estimate_uses_bottleneck() {
        let old = StripeConfig::new(4, 2, 2);
        let new = StripeConfig::new(5, 2, 2);
        let catalog = catalog_for(old, 4, 64);
        let plan = RestripePlan::plan(&catalog, old, new);
        let slow_disk = plan.estimate_duration(
            Bandwidth::from_mbit_per_sec(10),
            Bandwidth::from_mbit_per_sec(1000),
        );
        let slow_nic = plan.estimate_duration(
            Bandwidth::from_mbit_per_sec(1000),
            Bandwidth::from_mbit_per_sec(10),
        );
        let fast = plan.estimate_duration(
            Bandwidth::from_mbit_per_sec(1000),
            Bandwidth::from_mbit_per_sec(1000),
        );
        assert!(slow_disk > fast);
        assert!(slow_nic > fast);
    }
}
