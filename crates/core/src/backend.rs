//! The redundancy backend: one value that answers every question on which
//! declustered mirroring (paper §2.3) and the network-coded backend
//! (`tiger-coded`; Ferner et al., PAPERS.md) differ. Piece numbers are the
//! backend's own: mirror pieces `0..decluster` on the disks after the
//! home, coded shards `0..2k` (`k = decluster`) from the home on, shard 0
//! being the primary extent. Both store `2 × block_size` per block, which
//! makes the coded-vs-mirrored ablation an equal-overhead comparison.

use tiger_coded::CodedPlacement;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, DiskId, MirrorPiece, MirrorPlacement, RedundancyMode, StripeConfig};
use tiger_sched::{NetworkSchedule, StreamKind, ViewerState};
use tiger_sim::{Bandwidth, ByteSize, SimDuration, SimTime};

use crate::config::TigerConfig;

/// A Tiger system's redundancy backend, built from its configuration and
/// rebuilt at a restripe cut-over.
#[derive(Debug)]
pub enum Backend {
    /// Declustered mirroring: one full secondary copy in `decluster`
    /// pieces.
    Mirrored(MirrorPlacement),
    /// Network coding — any `k` of a block's `2k` shards rebuild it — with
    /// one load ring per disk, indexed by `DiskId`, that a block's
    /// coordinator ranks the shard holders by. The rings measure load and
    /// never reject; the home reserves a block's send window on every disk
    /// that sends it and releases it when its primary entry is reclaimed.
    Coded(CodedPlacement, Vec<NetworkSchedule>),
}

/// The key a block's reservations are held under: the play sequence
/// number stands in for the incarnation, so consecutive blocks of one
/// stream hold distinct reservations (their `2k`-disk windows overlap as
/// the stream advances, and releasing one block must not free the next).
fn load_key(vs: &ViewerState) -> ViewerInstance {
    ViewerInstance {
        viewer: vs.instance.viewer,
        incarnation: vs.play_seq,
    }
}

/// The position of absolute time `at` on `ring`, quantized to its entries.
fn ring_pos(ring: &NetworkSchedule, at: SimTime) -> SimDuration {
    let pos = SimDuration::from_nanos(at.as_nanos() % ring.len_duration().as_nanos());
    pos - SimDuration::from_nanos(pos.as_nanos() % ring.block_play_time().as_nanos())
}

impl Backend {
    /// The backend `cfg` names, on `cfg`'s stripe.
    pub fn new(cfg: &TigerConfig) -> Self {
        let (stripe, bpt) = (cfg.stripe, cfg.block_play_time);
        if cfg.redundancy == RedundancyMode::Mirrored {
            return Backend::Mirrored(MirrorPlacement::new(stripe));
        }
        // More capacity than any schedule can commit: an insert never
        // rejects.
        let unbounded = Bandwidth::from_bits_per_sec(1 << 60);
        let n = stripe.num_disks();
        let loads = (0..n).map(|_| NetworkSchedule::new(n, bpt, unbounded, Some(bpt)));
        Backend::Coded(CodedPlacement::new(stripe), loads.collect())
    }

    fn config(&self) -> StripeConfig {
        match self {
            Backend::Mirrored(p) => p.config(),
            Backend::Coded(p, _) => p.config(),
        }
    }

    /// How many sends a healthy block is assembled from, the home's own
    /// being the first: 1 under mirroring (the whole block), `k` coded.
    pub(crate) fn shards(&self) -> u32 {
        match self {
            Backend::Mirrored(_) => 1,
            Backend::Coded(p, _) => p.k(),
        }
    }

    /// Bytes of a block in the home disk's primary region: the whole block
    /// under mirroring, one shard coded.
    pub(crate) fn primary_extent(&self, block: ByteSize) -> ByteSize {
        block.div_u64_ceil(u64::from(self.shards()))
    }

    /// The pieces of a block homed on `home` stored beyond its primary
    /// extent, in piece order: mirror pieces `0..decluster`, or coded
    /// shards `1..2k`.
    pub(crate) fn secondary_pieces(&self, home: DiskId, block: ByteSize) -> Vec<MirrorPiece> {
        match self {
            Backend::Mirrored(p) => p.pieces_for(home, block),
            Backend::Coded(p, _) => (1..p.n())
                .map(|piece| MirrorPiece {
                    piece,
                    disk: p.shard_disk(home, piece),
                    size: p.shard_size(block),
                })
                .collect(),
        }
    }

    /// The disk holding piece `piece` of a block homed on `home`.
    pub fn holder(&self, home: DiskId, piece: u32) -> DiskId {
        match self {
            Backend::Mirrored(p) => p.piece_disk(home, piece),
            Backend::Coded(p, _) => p.shard_disk(home, piece),
        }
    }

    /// What a client counts a send of `kind` as: its piece (none for a
    /// whole block) and how many pieces make the block. Under the coded
    /// backend the home's primary send is shard 0 of the `k`.
    pub(crate) fn stream_data(&self, kind: StreamKind) -> (Option<u32>, u32) {
        let coded = matches!(self, Backend::Coded(..));
        match kind {
            StreamKind::Primary => (coded.then_some(0), self.shards()),
            StreamKind::Mirror { piece, .. } => (Some(piece), self.config().decluster),
            StreamKind::Coded { shard, .. } => (Some(shard), self.shards()),
        }
    }

    /// The remote holders of the coded block homed on `home` on cubs
    /// `alive` accepts, least loaded in the entry window at `at` first
    /// (shard index breaking ties), cut to the `want` best, as
    /// `(load, shard)`. Empty under mirroring, whose pieces have fixed
    /// holders.
    pub(crate) fn rank_holders(
        &self,
        home: DiskId,
        at: SimTime,
        want: usize,
        alive: impl Fn(CubId) -> bool,
    ) -> Vec<(u64, u32)> {
        let mut ranked = Vec::new();
        if let Backend::Coded(p, loads) = self {
            for j in 1..p.n() {
                let d = p.shard_disk(home, j);
                if alive(p.config().cub_of(d)) {
                    let ring = &loads[d.index()];
                    let load = ring.max_load_in_entry_window(ring_pos(ring, at));
                    ranked.push((load.bits_per_sec(), j));
                }
            }
        }
        ranked.sort_unstable();
        ranked.truncate(want);
        ranked
    }

    /// Reserves block `vs`'s send window around `at` on every disk that
    /// sends it — the home first, then each `chosen` holder — so later
    /// choices see this one's load. Nothing under mirroring.
    pub(crate) fn reserve(
        &mut self,
        vs: &ViewerState,
        home: DiskId,
        at: SimTime,
        chosen: &[(u64, u32)],
    ) {
        if let Backend::Coded(p, loads) = self {
            for j in std::iter::once(0).chain(chosen.iter().map(|&(_, j)| j)) {
                let ring = &mut loads[p.shard_disk(home, j).index()];
                let _ = ring.insert(load_key(vs), ring_pos(ring, at), vs.bitrate, false);
            }
        }
    }

    /// Releases what block `vs`, homed on `home`, holds on the load rings
    /// of its `2k` disks. Nothing under mirroring.
    pub(crate) fn release(&mut self, vs: &ViewerState, home: DiskId) {
        if let Backend::Coded(p, loads) = self {
            for j in 0..p.n() {
                loads[p.shard_disk(home, j).index()].remove_instance(load_key(vs));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::{BlockNum, FileId, ViewerId};
    use tiger_sched::SlotId;

    fn backend(mode: RedundancyMode, decluster: u32) -> Backend {
        let mut cfg = TigerConfig::small_test();
        cfg.stripe = StripeConfig::new(14, 4, decluster);
        cfg.redundancy = mode;
        Backend::new(&cfg)
    }

    /// Reservations held across the load rings.
    fn held(b: &Backend) -> usize {
        match b {
            Backend::Mirrored(_) => 0,
            Backend::Coded(_, loads) => loads.iter().map(NetworkSchedule::len).sum(),
        }
    }

    /// Whether every block survives this set of simultaneous disk
    /// failures, as the backend's placement answers it.
    fn survives(b: &Backend, failed: &[DiskId]) -> bool {
        match b {
            Backend::Mirrored(p) => p.survives(failed),
            Backend::Coded(p, _) => p.survives_failures(failed),
        }
    }

    #[test]
    fn both_backends_store_exactly_two_blocks() {
        // The ablation's precondition: equal storage overhead (shard
        // padding would only appear when k does not divide the block).
        for mode in [RedundancyMode::Mirrored, RedundancyMode::Coded] {
            for d in [2u32, 4] {
                let b = backend(mode, d);
                for size in [100u64, 250_000] {
                    let block = ByteSize::from_bytes(size);
                    let secondary: u64 = b
                        .secondary_pieces(DiskId(10), block)
                        .iter()
                        .map(|p| p.size.as_bytes())
                        .sum();
                    let total = b.primary_extent(block).as_bytes() + secondary;
                    assert_eq!(total, 2 * size, "{mode:?} d={d} size={size}");
                }
            }
        }
    }

    #[test]
    fn holders_match_the_secondary_layout() {
        let block = ByteSize::from_bytes(250_000);
        for mode in [RedundancyMode::Mirrored, RedundancyMode::Coded] {
            let b = backend(mode, 4);
            for home in [DiskId(0), DiskId(10), DiskId(54)] {
                for p in b.secondary_pieces(home, block) {
                    assert_eq!(b.holder(home, p.piece), p.disk, "{mode:?}");
                }
            }
        }
        let mirrored = backend(RedundancyMode::Mirrored, 4);
        assert_eq!(mirrored.holder(DiskId(54), 0), DiskId(55));
        assert_eq!(mirrored.shards(), 1);
        assert_eq!(mirrored.primary_extent(block), block);
        let coded = backend(RedundancyMode::Coded, 4);
        assert_eq!(coded.holder(DiskId(54), 0), DiskId(54));
        assert_eq!(coded.shards(), 4);
        assert_eq!(coded.primary_extent(block).as_bytes(), 62_500);
    }

    #[test]
    fn survival_differs_as_the_loss_windows_do() {
        // Mirroring loses data to two failures within decluster disks;
        // the coded backend survives any k.
        let (m, c) = (
            backend(RedundancyMode::Mirrored, 4),
            backend(RedundancyMode::Coded, 4),
        );
        assert!(survives(&m, &[DiskId(0), DiskId(7)]));
        assert!(!survives(&m, &[DiskId(0), DiskId(4)]));
        assert!(survives(&c, &[DiskId(0), DiskId(1), DiskId(2), DiskId(3)]));
        assert!(!survives(
            &c,
            &[DiskId(0), DiskId(1), DiskId(2), DiskId(3), DiskId(4)]
        ));
    }

    #[test]
    fn reservations_are_released_per_block() {
        let mut b = backend(RedundancyMode::Coded, 2);
        let vs = |play_seq| ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(7),
                incarnation: 0,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(play_seq),
            slot: SlotId(0),
            play_seq,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        };
        let at = SimTime::from_secs(3);
        let ranked = b.rank_holders(DiskId(5), at, 1, |_| true);
        assert_eq!(ranked, vec![(0, 1)], "ties break by shard index");
        b.reserve(&vs(0), DiskId(5), at, &ranked);
        b.reserve(&vs(1), DiskId(6), at, &ranked);
        assert_eq!(held(&b), 4);
        // The loaded holder now ranks last.
        assert_eq!(b.rank_holders(DiskId(5), at, 3, |_| true)[2].1, 1);
        b.release(&vs(0), DiskId(5));
        assert_eq!(held(&b), 2, "the next block keeps its own");
        b.release(&vs(1), DiskId(6));
        assert_eq!(held(&b), 0);
        let mut m = backend(RedundancyMode::Mirrored, 2);
        m.reserve(&vs(0), DiskId(5), at, &ranked);
        assert!(m.rank_holders(DiskId(5), at, 1, |_| true).is_empty());
        assert_eq!(held(&m), 0);
    }
}
