//! Declustered mirroring (paper §2.3).
//!
//! "For each block of primary data stored on a cub, its mirror (secondary)
//! copy is split into several pieces and spread across different disks and
//! machines. … Tiger always stores the secondary parts of a block on the
//! disks immediately following the disk holding the primary copy."
//!
//! Declustering trades reserved bandwidth against fault exposure: with a
//! decluster factor of `d`, only `1/(d+1)` of bandwidth is reserved for
//! failed-mode operation, but a second failure within `d` disks of an
//! existing failure loses data.

use tiger_sim::ByteSize;

use crate::ids::DiskId;
use crate::lay::Piece;
use crate::stripe::StripeConfig;

/// One piece of a block's declustered mirror copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MirrorPiece {
    /// Which piece of the block this is (0-based, `< decluster`).
    pub piece: u32,
    /// The disk holding this piece.
    pub disk: DiskId,
    /// Size of this piece in bytes.
    pub size: ByteSize,
}

/// Computes mirror placements for a striping configuration.
#[derive(Clone, Copy, Debug)]
pub struct MirrorPlacement {
    cfg: StripeConfig,
}

impl MirrorPlacement {
    /// Creates a placement helper for `cfg`.
    pub fn new(cfg: StripeConfig) -> Self {
        MirrorPlacement { cfg }
    }

    /// The underlying striping configuration.
    pub fn config(&self) -> StripeConfig {
        self.cfg
    }

    /// The mirror pieces for a block whose primary is on `primary_disk`.
    ///
    /// Piece `i` lands on the `(i+1)`-th disk after the primary. The final
    /// piece absorbs the remainder so the pieces sum exactly to
    /// `block_size`.
    pub fn pieces_for(&self, primary_disk: DiskId, block_size: ByteSize) -> Vec<MirrorPiece> {
        (self.pieces(block_size))
            .map(|p| MirrorPiece {
                piece: p.piece,
                disk: self.cfg.disk_after(primary_disk, p.shift),
                size: p.size,
            })
            .collect()
    }

    /// The mirror pieces of every block of `block_size` bytes, as shifts
    /// of the home disk: piece `i` on the `(i+1)`-th disk after it, of
    /// `ceil(block_size / decluster)` bytes or what is left of the block.
    pub fn pieces(&self, block_size: ByteSize) -> impl Iterator<Item = Piece> {
        let d = self.cfg.decluster;
        let (block, even) = (block_size.as_bytes(), block_size.div_u64_ceil(u64::from(d)));
        (0..d).map(move |i| Piece {
            piece: i,
            shift: i + 1,
            size: ByteSize::from_bytes(block.saturating_sub(u64::from(i) * even.as_bytes()))
                .min(even),
        })
    }

    /// The disk holding mirror piece `piece` of blocks whose primary is on
    /// `primary_disk`: the `(piece+1)`-th disk after it. Together the
    /// pieces' disks "combine to do its work" when the primary fails.
    pub fn piece_disk(&self, primary_disk: DiskId, piece: u32) -> DiskId {
        self.cfg.disk_after(primary_disk, piece + 1)
    }

    /// Whether `holder` stores any mirror piece for primaries on `primary`.
    pub fn covers(&self, holder: DiskId, primary: DiskId) -> bool {
        let dist = self.cfg.ring_distance(primary, holder);
        dist >= 1 && dist <= self.cfg.decluster
    }

    /// The disks whose failure, *in addition to* `failed_disk`, would lose
    /// data (§2.3: "a second failure on any of 8 machines would result in
    /// the loss of data" for decluster 4).
    ///
    /// A second failure at `x` loses data iff some block has its primary and
    /// a mirror piece both unavailable, i.e. iff `x` is within `decluster`
    /// positions of `failed_disk` on either side.
    pub fn second_failure_exposure(&self, failed_disk: DiskId) -> Vec<DiskId> {
        let d = self.cfg.decluster;
        let mut out = Vec::with_capacity(2 * d as usize);
        for i in 1..=d {
            out.push(self.cfg.disk_before(failed_disk, i));
        }
        for i in 1..=d {
            out.push(self.cfg.disk_after(failed_disk, i));
        }
        out.sort_unstable();
        out.dedup();
        // Never count the failed disk itself (possible only in tiny rings).
        out.retain(|&x| x != failed_disk);
        out
    }

    /// The fraction of bandwidth that must be reserved for failed-mode
    /// operation: `1 / (decluster + 1)` (§2.3).
    pub fn reserved_bandwidth_fraction(&self) -> f64 {
        1.0 / (self.cfg.decluster as f64 + 1.0)
    }

    /// Whether data survives a given set of failed disks: no block may lose
    /// both its primary and any needed mirror piece. Since every disk holds
    /// primaries, this reduces to: no two failed disks within `decluster`
    /// ring positions of each other.
    pub fn survives(&self, failed: &[DiskId]) -> bool {
        for (i, &a) in failed.iter().enumerate() {
            for &b in &failed[i + 1..] {
                if a == b {
                    continue;
                }
                let fwd = self.cfg.ring_distance(a, b);
                let back = self.cfg.ring_distance(b, a);
                if fwd.min(back) <= self.cfg.decluster {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripe::StripeConfig;

    fn place(cubs: u32, dpc: u32, d: u32) -> MirrorPlacement {
        MirrorPlacement::new(StripeConfig::new(cubs, dpc, d))
    }

    #[test]
    fn pieces_follow_primary_immediately() {
        let p = place(14, 4, 4);
        let pieces = p.pieces_for(DiskId(10), ByteSize::from_bytes(262_144));
        assert_eq!(pieces.len(), 4);
        for (i, piece) in pieces.iter().enumerate() {
            assert_eq!(piece.piece, i as u32);
            assert_eq!(piece.disk, DiskId(10 + 1 + i as u32));
        }
    }

    #[test]
    fn pieces_wrap_around_ring() {
        let p = place(3, 1, 2);
        let pieces = p.pieces_for(DiskId(2), ByteSize::from_bytes(100));
        assert_eq!(pieces[0].disk, DiskId(0));
        assert_eq!(pieces[1].disk, DiskId(1));
    }

    #[test]
    fn pieces_sum_to_block_size() {
        for size in [1u64, 100, 262_144, 262_145, 262_147] {
            for d in 1..=5 {
                let p = place(14, 4, d);
                let pieces = p.pieces_for(DiskId(0), ByteSize::from_bytes(size));
                let total: u64 = pieces.iter().map(|x| x.size.as_bytes()).sum();
                assert_eq!(total, size, "size {size} decluster {d}");
            }
        }
    }

    #[test]
    fn piece_disks_match_piece_holders() {
        let p = place(14, 4, 4);
        let cover: Vec<DiskId> = (0..4).map(|i| p.piece_disk(DiskId(54), i)).collect();
        assert_eq!(cover, vec![DiskId(55), DiskId(0), DiskId(1), DiskId(2)]);
        for c in &cover {
            assert!(p.covers(*c, DiskId(54)));
        }
        assert!(!p.covers(DiskId(3), DiskId(54)));
        assert!(!p.covers(DiskId(54), DiskId(54)));
    }

    #[test]
    fn second_failure_exposure_counts_match_paper() {
        // §2.3: decluster 4 exposes 8 machines; decluster 2 "can survive
        // failures more than two cubs away from any other failure".
        let p4 = place(14, 1, 4);
        assert_eq!(p4.second_failure_exposure(DiskId(6)).len(), 8);
        let p2 = place(14, 1, 2);
        assert_eq!(p2.second_failure_exposure(DiskId(6)).len(), 4);
    }

    #[test]
    fn reserved_bandwidth_fraction_matches_paper() {
        // "With a decluster factor of 4, only a fifth of total disk and
        // network bandwidth needs to be reserved … a decluster factor of 2
        // consumes a third of system bandwidth."
        assert!((place(14, 4, 4).reserved_bandwidth_fraction() - 0.2).abs() < 1e-12);
        assert!((place(14, 4, 2).reserved_bandwidth_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn survives_rules() {
        let p = place(14, 1, 4);
        assert!(p.survives(&[DiskId(0)]));
        assert!(p.survives(&[DiskId(0), DiskId(7)]));
        assert!(!p.survives(&[DiskId(0), DiskId(4)]));
        assert!(!p.survives(&[DiskId(0), DiskId(12)])); // 2 back around the ring
        assert!(p.survives(&[]));
    }

    #[test]
    fn loss_window_boundary_is_exactly_decluster() {
        // The §2.3 loss-window arithmetic, probed at its boundary over
        // random rings: a second failure exactly `decluster` positions
        // away loses data, one at `decluster + 1` survives — and both
        // directions around the ring agree.
        tiger_sim::check::check("mirror_loss_window_boundary", |rng| {
            let cubs = rng.gen_range(4u32..40);
            let dpc = rng.gen_range(1u32..5);
            let disks = cubs * dpc;
            // Keep the ring at least 2d + 2 disks so the disk "d + 1
            // ahead" is also more than d behind — otherwise the window
            // wraps and the survival claim is vacuous.
            let d = rng.gen_range(1u32..=(disks - 2) / 2);
            let p = MirrorPlacement::new(StripeConfig::new(cubs, dpc, d));
            let first = DiskId(rng.gen_range(0u32..disks));

            let at = p.config().disk_after(first, d);
            assert!(
                !p.survives(&[first, at]),
                "cubs {cubs} dpc {dpc} d {d}: failure exactly d away must lose data"
            );
            let behind = p.config().disk_before(first, d);
            assert!(
                !p.survives(&[first, behind]),
                "cubs {cubs} dpc {dpc} d {d}: the window extends backward too"
            );
            let past = p.config().disk_after(first, d + 1);
            assert!(
                p.survives(&[first, past]),
                "cubs {cubs} dpc {dpc} d {d}: failure d+1 away must survive"
            );
        });
    }

    #[test]
    fn exposure_window_matches_piece_placement() {
        // `second_failure_exposure` is exactly the set of disks holding a
        // piece relation with the failed disk (either direction), and
        // piece placement never leaves that window.
        tiger_sim::check::check("mirror_exposure_matches_pieces", |rng| {
            let cubs = rng.gen_range(3u32..30);
            let dpc = rng.gen_range(1u32..4);
            let disks = cubs * dpc;
            let d = rng.gen_range(1u32..(disks / 2).max(2));
            let p = MirrorPlacement::new(StripeConfig::new(cubs, dpc, d));
            let failed = DiskId(rng.gen_range(0u32..disks));

            let exposed = p.second_failure_exposure(failed);
            for piece in p.pieces_for(failed, ByteSize::from_bytes(262_144)) {
                assert!(
                    exposed.contains(&piece.disk),
                    "piece holder {:?} outside the exposure window",
                    piece.disk
                );
            }
            for disk in 0..disks {
                let other = DiskId(disk);
                if other == failed {
                    continue;
                }
                let related = p.covers(other, failed) || p.covers(failed, other);
                assert_eq!(
                    exposed.contains(&other),
                    related,
                    "cubs {cubs} dpc {dpc} d {d}: exposure of {other} disagrees \
                     with piece placement"
                );
            }
        });
    }

    #[test]
    fn exposure_disks_exactly_fail_survival() {
        let p = place(20, 2, 3);
        let f = DiskId(17);
        let exposed = p.second_failure_exposure(f);
        for d in 0..p.config().num_disks() {
            let other = DiskId(d);
            if other == f {
                continue;
            }
            let survives = p.survives(&[f, other]);
            assert_eq!(
                survives,
                !exposed.contains(&other),
                "disk {other} exposure mismatch"
            );
        }
    }
}
