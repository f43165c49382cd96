//! Ring-declustered shard placement for the coded backend.
//!
//! A block homed on disk `h` becomes `2k` shards (`k = decluster`) of
//! `ceil(block/k)` bytes: shard `j` lives on `disk_after(h, j)`, so shard
//! 0 sits in the *primary* region of the home disk (it is the first
//! systematic shard — a home read in coded mode is a shard-0 read) and
//! shards `1..2k` sit in the *secondary* regions of the next `2k − 1`
//! disks, exactly where `MirrorPlacement` puts mirror pieces.
//!
//! Total storage is `2k × ceil(B/k) = 2B` — the same two-copies cost as
//! declustered mirroring — but the loss window is qualitatively better:
//! a block dies only when *more than `k`* of its `2k` consecutive
//! holders die, so the scheme tolerates **any** `k` simultaneous disk
//! failures, where mirroring already loses data to 2 failures within
//! `decluster` ring positions (the differential tests below pin both
//! models against each other).

use tiger_layout::{DiskId, StripeConfig};
use tiger_sim::ByteSize;

/// Computes coded-shard placements for a striping configuration.
#[derive(Clone, Copy, Debug)]
pub struct CodedPlacement {
    cfg: StripeConfig,
}

impl CodedPlacement {
    /// Creates a placement helper for `cfg`. Requires `2 × decluster ≤
    /// num_disks` so a block's `2k` shards land on distinct disks, and
    /// `decluster ≤ 16` so shard indices fit the client's 32-bit piece
    /// mask.
    pub fn new(cfg: StripeConfig) -> Self {
        assert!(
            2 * cfg.decluster <= cfg.num_disks(),
            "coded redundancy needs 2*decluster ({}) <= num_disks ({})",
            2 * cfg.decluster,
            cfg.num_disks()
        );
        assert!(
            cfg.decluster <= 16,
            "coded shard indices must fit a 32-bit piece mask (decluster {} > 16)",
            cfg.decluster
        );
        CodedPlacement { cfg }
    }

    /// The underlying striping configuration.
    pub fn config(&self) -> StripeConfig {
        self.cfg
    }

    /// Data shards needed to reconstruct a block (`k = decluster`).
    pub fn k(&self) -> u32 {
        self.cfg.decluster
    }

    /// Total shards per block (`n = 2k`).
    pub fn n(&self) -> u32 {
        2 * self.cfg.decluster
    }

    /// Bytes per shard for a block of `block_size` bytes.
    pub fn shard_size(&self, block_size: ByteSize) -> ByteSize {
        block_size.div_u64_ceil(u64::from(self.k()))
    }

    /// The disk holding shard `j` of a block homed on `home`.
    pub fn shard_disk(&self, home: DiskId, shard: u32) -> DiskId {
        debug_assert!(shard < self.n());
        self.cfg.disk_after(home, shard)
    }

    /// Which shard `holder` stores for blocks homed on `home`, if any.
    pub fn shard_index(&self, holder: DiskId, home: DiskId) -> Option<u32> {
        let dist = self.cfg.ring_distance(home, holder);
        (dist < self.n()).then_some(dist)
    }

    /// Whether every block survives this set of failed disks: each home
    /// `h` needs at least `k` of the `2k` holders `[h, h+2k)` alive.
    pub fn survives_failures(&self, failed: &[DiskId]) -> bool {
        let n = self.n();
        (0..self.cfg.num_disks()).all(|h| {
            let home = DiskId(h);
            let lost = failed
                .iter()
                .filter(|&&f| self.cfg.ring_distance(home, f) < n)
                .count() as u32;
            n - lost.min(n) >= self.k()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::MirrorPlacement;
    use tiger_sim::SimRng;

    fn coded(cubs: u32, dpc: u32, d: u32) -> CodedPlacement {
        CodedPlacement::new(StripeConfig::new(cubs, dpc, d))
    }

    #[test]
    fn shards_follow_home_disk() {
        let p = coded(14, 4, 4);
        assert_eq!(p.n(), 8);
        for j in 0..p.n() {
            assert_eq!(p.shard_disk(DiskId(10), j), DiskId(10 + j));
        }
        assert_eq!(
            p.shard_size(ByteSize::from_bytes(250_000)),
            ByteSize::from_bytes(62_500)
        );
        assert_eq!(p.shard_index(DiskId(10), DiskId(10)), Some(0));
        assert_eq!(p.shard_index(DiskId(17), DiskId(10)), Some(7));
        assert_eq!(p.shard_index(DiskId(18), DiskId(10)), None);
    }

    #[test]
    fn small_test_geometry_is_legal() {
        // The quick-scale system: 4 cubs × 1 disk, decluster 2 → 2k = 4
        // shards on 4 disks. This must stay constructible or the
        // ablation's coded arm dies.
        let p = coded(4, 1, 2);
        assert_eq!(p.n(), 4);
        assert_eq!(
            (1..p.n())
                .map(|j| p.shard_disk(DiskId(3), j))
                .collect::<Vec<_>>(),
            vec![DiskId(0), DiskId(1), DiskId(2)]
        );
    }

    #[test]
    #[should_panic(expected = "coded redundancy needs")]
    fn rejects_rings_smaller_than_2k() {
        coded(3, 1, 2);
    }

    #[test]
    fn tolerates_any_k_failures() {
        // The headline loss-window difference: coded survives ANY k
        // simultaneous failures; mirroring already loses data to 2
        // failures within decluster distance. Exhaustive over pairs and
        // property-checked over larger random sets.
        let c = coded(14, 1, 4);
        let m = MirrorPlacement::new(StripeConfig::new(14, 1, 4));
        for a in 0..14u32 {
            for b in 0..14u32 {
                if a == b {
                    continue;
                }
                assert!(
                    c.survives_failures(&[DiskId(a), DiskId(b)]),
                    "coded loses at 2 failures"
                );
                // Differential: wherever mirroring survives, so does coded.
                if !m.survives(&[DiskId(a), DiskId(b)]) {
                    assert!(c.survives_failures(&[DiskId(a), DiskId(b)]));
                }
            }
        }
        tiger_sim::check::check("coded_survives_any_k", |rng: &mut SimRng| {
            let d = rng.gen_range(2..5u32);
            let cubs = rng.gen_range(2 * d..20u32);
            let c = CodedPlacement::new(StripeConfig::new(cubs, 1, d));
            // Any k distinct failures survive.
            let mut failed = Vec::new();
            while (failed.len() as u32) < d {
                let f = DiskId(rng.gen_range(0..cubs));
                if !failed.contains(&f) {
                    failed.push(f);
                }
            }
            assert!(c.survives_failures(&failed), "k={d} failures {failed:?}");
        });
    }

    #[test]
    fn loses_data_past_k_consecutive_failures() {
        // k+1 consecutive failures starting at any h kill the block homed
        // at h (it keeps only k−1 of its 2k shards... precisely: loses
        // k+1 of 2k, keeping k−1 < k).
        let c = coded(14, 1, 4);
        for start in 0..14u32 {
            let failed: Vec<DiskId> = (0..5)
                .map(|i| c.config().disk_after(DiskId(start), i))
                .collect();
            assert!(!c.survives_failures(&failed), "start {start}");
        }
    }

    #[test]
    fn survival_matches_window_count_model() {
        // Property: survives == "no 2k-window contains more than k
        // failures", cross-checked against a brute-force count.
        tiger_sim::check::check("coded_loss_window_model", |rng: &mut SimRng| {
            let d = rng.gen_range(2..4u32);
            let cubs = rng.gen_range(2 * d..16u32);
            let c = CodedPlacement::new(StripeConfig::new(cubs, 1, d));
            let count = rng.gen_range(0..=cubs);
            let mut failed = Vec::new();
            for _ in 0..count {
                let f = DiskId(rng.gen_range(0..cubs));
                if !failed.contains(&f) {
                    failed.push(f);
                }
            }
            let brute = (0..cubs).all(|h| {
                let lost = (0..2 * d)
                    .filter(|&j| failed.contains(&c.config().disk_after(DiskId(h), j)))
                    .count() as u32;
                2 * d - lost >= d
            });
            assert_eq!(c.survives_failures(&failed), brute, "failed {failed:?}");
        });
    }
}
