//! The redundancy backend: one value that answers every question on which
//! declustered mirroring (paper §2.3) and the network-coded backend
//! (`tiger-coded`; Ferner et al., PAPERS.md) differ. Piece numbers are the
//! backend's own: mirror pieces `0..decluster` on the disks after the
//! home, coded shards `0..2k` (`k = decluster`) from the home on, shard 0
//! being the primary extent. Both store `2 × block_size` per block, which
//! makes the coded-vs-mirrored ablation an equal-overhead comparison.

use std::array;
use std::iter::Take;

use tiger_coded::CodedPlacement;
use tiger_layout::{CubId, DiskId, MirrorPlacement, Piece, RedundancyMode, StripeConfig};
use tiger_sched::{StreamKind, ViewerState};
use tiger_sim::{ByteSize, SimDuration, SimTime};

use crate::config::TigerConfig;

/// A Tiger system's redundancy backend, built from its configuration and
/// rebuilt at a restripe cut-over: where a block's pieces lie.
#[derive(Debug)]
pub enum Backend {
    /// Declustered mirroring: one full secondary copy in `decluster`
    /// pieces.
    Mirrored(MirrorPlacement),
    /// Network coding: any `k` of a block's `2k` shards rebuild it.
    Coded(CodedPlacement),
}

/// The load the coded coordinator ranks shard holders by, rebuilt with
/// the backend: bits/s per disk (a row) and slot of one block play time
/// (the second field), `num_disks` slots a lap, of the coded placement
/// (the first); none under mirroring. It never rejects; a block's primary
/// entry adds its bitrate on every disk that sends it, and subtracts it.
#[derive(Debug, Default)]
pub struct Loads(Option<(CodedPlacement, SimDuration, Vec<u64>)>);

/// The most remote holders a coded block has: `2k − 1` at the largest `k`
/// `CodedPlacement` accepts, 16.
const MAX_HOLDERS: usize = 31;

impl Backend {
    /// The backend `cfg` names, on `cfg`'s stripe.
    pub fn new(cfg: &TigerConfig) -> Self {
        match cfg.redundancy {
            RedundancyMode::Mirrored => Backend::Mirrored(MirrorPlacement::new(cfg.stripe)),
            RedundancyMode::Coded => Backend::Coded(CodedPlacement::new(cfg.stripe)),
        }
    }

    fn config(&self) -> StripeConfig {
        match self {
            Backend::Mirrored(p) => p.config(),
            Backend::Coded(p) => p.config(),
        }
    }

    /// How many sends a healthy block is assembled from, the home's own
    /// being the first: 1 under mirroring (the whole block), `k` coded.
    pub fn shards(&self) -> u32 {
        match self {
            Backend::Mirrored(_) => 1,
            Backend::Coded(p) => p.k(),
        }
    }

    /// Bytes of a block in the home disk's primary region: the whole block
    /// under mirroring, one shard coded.
    pub(crate) fn primary_extent(&self, block: ByteSize) -> ByteSize {
        block.div_u64_ceil(u64::from(self.shards()))
    }

    /// The pieces of a block of `block` bytes stored beyond its primary
    /// extent, in piece order, each a fixed shift of the home disk:
    /// mirror pieces `0..decluster` (shift `i + 1`), or coded shards
    /// `1..2k` (shift `j`). One list a file, never one a block.
    pub(crate) fn secondary_pieces(&self, block: ByteSize) -> Vec<Piece> {
        match self {
            Backend::Mirrored(p) => p.pieces(block).collect(),
            Backend::Coded(p) => (1..p.n())
                .map(|j| Piece {
                    piece: j,
                    shift: j,
                    size: p.shard_size(block),
                })
                .collect(),
        }
    }

    /// The disk holding piece `piece` of a block homed on `home`.
    pub fn holder(&self, home: DiskId, piece: u32) -> DiskId {
        match self {
            Backend::Mirrored(p) => p.piece_disk(home, piece),
            Backend::Coded(p) => p.shard_disk(home, piece),
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
}

impl Loads {
    /// An empty table for `cfg`'s backend and stripe.
    pub fn new(cfg: &TigerConfig) -> Self {
        let (stripe, bpt) = (cfg.stripe, cfg.block_play_time);
        let n = stripe.num_disks() as usize;
        let coded = cfg.redundancy == RedundancyMode::Coded;
        Loads(coded.then(|| (CodedPlacement::new(stripe), bpt, vec![0; n * n])))
    }

    /// The load held across the table, in bits/s.
    pub fn total(&self) -> u64 {
        self.0.iter().flat_map(|(_, _, loads)| loads).sum()
    }

    /// The remote holders of the coded block homed on `home` on cubs
    /// `alive` accepts, least loaded in the slot `at` falls in first
    /// (shard index breaking ties), cut to the `want` best, as shard
    /// indices. Ranked in a fixed array, so a block allocates nothing.
    /// Empty under mirroring, whose pieces have fixed holders.
    pub fn rank_holders(
        &self,
        home: DiskId,
        at: SimTime,
        want: usize,
        alive: impl Fn(CubId) -> bool,
    ) -> Take<array::IntoIter<u32, MAX_HOLDERS>> {
        let (mut ranked, mut len) = ([(0, 0); MAX_HOLDERS], 0);
        if let Some((p, bpt, loads)) = &self.0 {
            for j in 1..p.n() {
                let d = p.shard_disk(home, j);
                if alive(p.config().cub_of(d)) {
                    ranked[len] = (loads[cell(p, *bpt, d, at)], j);
                    len += 1;
                }
            }
        }
        ranked[..len].sort_unstable();
        ranked.map(|(_, j)| j).into_iter().take(len.min(want))
    }

    /// Adds block `vs`'s bitrate in the slot `at` falls in on every disk
    /// that sends it — the home, then each `chosen` holder — so later
    /// choices see this block's load. Returns the shards it loaded, a bit
    /// each, for [`Loads::release`]. Nothing under mirroring.
    pub fn reserve(
        &mut self,
        vs: &ViewerState,
        home: DiskId,
        at: SimTime,
        chosen: impl Iterator<Item = u32>,
    ) -> u32 {
        let shards = chosen.fold(1, |mask, j| mask | 1 << j);
        self.charge(home, at, shards, |load| *load += vs.bitrate.bits_per_sec());
        shards
    }

    /// Subtracts what [`Loads::reserve`] added for block `vs`, homed on
    /// `home` and due at `at`, on the disks of `shards`.
    pub fn release(&mut self, vs: &ViewerState, home: DiskId, at: SimTime, shards: u32) {
        self.charge(home, at, shards, |load| *load -= vs.bitrate.bits_per_sec());
    }

    /// Applies `f` to the load in `at`'s slot of each disk in `shards`.
    fn charge(&mut self, home: DiskId, at: SimTime, shards: u32, f: impl Fn(&mut u64)) {
        if let Some((p, bpt, loads)) = &mut self.0 {
            for j in (0..p.n()).filter(|j| shards >> j & 1 == 1) {
                f(&mut loads[cell(p, *bpt, p.shard_disk(home, j), at)]);
            }
        }
    }
}

/// Where a coded load table keeps `disk`'s load in the slot `at` falls in.
fn cell(p: &CodedPlacement, bpt: SimDuration, disk: DiskId, at: SimTime) -> usize {
    let disks = p.config().num_disks() as usize;
    disk.index() * disks + (at.as_nanos() / bpt.as_nanos() % disks as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ids::ViewerInstance;
    use tiger_layout::{BlockNum, FileId, ViewerId};
    use tiger_sched::{NetworkSchedule, SlotId};
    use tiger_sim::Bandwidth;

    fn cfg(mode: RedundancyMode, decluster: u32) -> TigerConfig {
        let mut cfg = TigerConfig::small_test();
        cfg.stripe = StripeConfig::new(14, 4, decluster);
        cfg.redundancy = mode;
        cfg
    }

    fn backend(mode: RedundancyMode, decluster: u32) -> Backend {
        Backend::new(&cfg(mode, decluster))
    }

    /// A primary block of viewer `viewer` at `mbit` Mbit/s.
    fn block(viewer: u64, mbit: u64) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation: 0,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(0),
            slot: SlotId(0),
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(mbit),
            kind: StreamKind::Primary,
        }
    }

    /// Whether every block survives this set of simultaneous disk
    /// failures, as the backend's placement answers it.
    fn survives(b: &Backend, failed: &[DiskId]) -> bool {
        match b {
            Backend::Mirrored(p) => p.survives(failed),
            Backend::Coded(p) => p.survives_failures(failed),
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
                        .secondary_pieces(block)
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
                for p in b.secondary_pieces(block) {
                    let disk = b.config().disk_after(home, p.shift);
                    assert_eq!(b.holder(home, p.piece), disk, "{mode:?}");
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
        let mut b = Loads::new(&cfg(RedundancyMode::Coded, 2));
        let (vs, rate) = (block(7, 2), 2_000_000);
        let at = SimTime::from_secs(3);
        let ranked = b.rank_holders(DiskId(5), at, 1, |_| true);
        assert!(ranked.clone().eq([1]), "ties break by shard index");
        let first = b.reserve(&vs, DiskId(5), at, ranked.clone());
        let next = b.reserve(&vs, DiskId(6), at, ranked.clone());
        assert_eq!((first, next), (0b11, 0b11), "the home and shard 1");
        assert_eq!(b.total(), 4 * rate);
        // The loaded holder now ranks last.
        assert!(b.rank_holders(DiskId(5), at, 3, |_| true).eq([3, 2, 1]));
        b.release(&vs, DiskId(5), at, first);
        assert_eq!(b.total(), 2 * rate, "the next block keeps its own");
        b.release(&vs, DiskId(6), at, next);
        assert_eq!(b.total(), 0);
        let mut m = Loads::new(&cfg(RedundancyMode::Mirrored, 2));
        let shards = m.reserve(&vs, DiskId(5), at, ranked);
        m.release(&vs, DiskId(5), at, shards);
        assert_eq!(m.rank_holders(DiskId(5), at, 1, |_| true).len(), 0);
    }

    /// The load the table holds on `disk` in ring slot `slot`.
    fn slot_load(b: &Loads, disk: u32, slot: u64) -> u64 {
        let Some((p, _, loads)) = &b.0 else {
            return 0;
        };
        loads[(u64::from(disk) * u64::from(p.config().num_disks()) + slot) as usize]
    }

    /// One live reservation, as the test drove it.
    struct Held {
        /// The block; its instance is the model's key.
        vs: ViewerState,
        home: DiskId,
        at: SimTime,
        /// What `reserve` returned.
        shards: u32,
        /// The disks it loaded, the home first.
        disks: Vec<DiskId>,
    }

    #[test]
    fn coded_loads_match_the_ring_model() {
        use tiger_sim::check::check_reaching;

        // What the cases reached between them, asserted after the run.
        const REACH: [&str; 3] = [
            "two ranked holders tied at a nonzero load",
            "a slot loaded twice",
            "a release after a power cut",
        ];
        check_reaching("coded_loads_match_the_ring_model", REACH, |rng, reach| {
            let cubs = rng.gen_range(2u32..8);
            let stripe = StripeConfig::new(cubs, rng.gen_range(1u32..4), 1);
            let decluster = rng.gen_range(1..=(stripe.num_disks() / 2).min(4));
            let mut cfg = TigerConfig::small_test();
            cfg.stripe = StripeConfig::new(cubs, stripe.disks_per_cub, decluster);
            cfg.block_play_time = SimDuration::from_millis(250 * rng.gen_range(1u64..5));
            cfg.redundancy = RedundancyMode::Coded;
            let stripe = cfg.stripe;
            let (disks, bpt) = (stripe.num_disks(), cfg.block_play_time);
            let n = 2 * decluster;
            let mut b = Loads::new(&cfg);
            // The model: one unbounded `NetworkSchedule` a disk, each
            // reservation an instance of its own, placed at `at`'s ring
            // position rounded down to an entry boundary.
            let unbounded = Bandwidth::from_bits_per_sec(1 << 60);
            let mut rings: Vec<_> = (0..disks)
                .map(|_| NetworkSchedule::new(disks, bpt, unbounded, Some(bpt)))
                .collect();
            let pos = |at: SimTime| {
                let lap = bpt.mul_u64(u64::from(disks)).as_nanos();
                let p = at.as_nanos() % lap;
                SimDuration::from_nanos(p - p % bpt.as_nanos())
            };
            let model_rank = |rings: &[NetworkSchedule], home, at, want, alive: &[bool]| {
                let mut ranked: Vec<(u64, u32)> = (1..n)
                    .filter(|&j| alive[stripe.cub_of(stripe.disk_after(home, j)).index()])
                    .map(|j| {
                        let ring = &rings[stripe.disk_after(home, j).index()];
                        (ring.max_load_in_entry_window(pos(at)).bits_per_sec(), j)
                    })
                    .collect();
                ranked.sort_unstable();
                ranked.truncate(want);
                ranked
            };
            let lap_ns = bpt.as_nanos() * u64::from(disks);
            let mut live: Vec<Held> = Vec::new();
            let mut next_key = 0u64;
            let mut cut = false;
            let release = |b: &mut Loads, rings: &mut [NetworkSchedule], h: Held| {
                b.release(&h.vs, h.home, h.at, h.shards);
                for d in &h.disks {
                    rings[d.index()].remove_instance(h.vs.instance);
                }
            };
            for _ in 0..rng.gen_range(1usize..150) {
                match rng.gen_range(0u32..10) {
                    0..=5 => {
                        let home = DiskId(rng.gen_range(0..disks));
                        let at = SimTime::from_nanos(rng.gen_range(0..3 * lap_ns));
                        let want = rng.gen_range(0..=n as usize);
                        let alive: Vec<bool> = (0..cubs).map(|_| rng.gen_bool(0.85)).collect();
                        let ranked: Vec<u32> = b
                            .rank_holders(home, at, want, |c| alive[c.index()])
                            .collect();
                        let want_ranked = model_rank(&rings, home, at, want, &alive);
                        let want_shards: Vec<u32> = want_ranked.iter().map(|&(_, j)| j).collect();
                        assert_eq!(ranked, want_shards, "rank {home:?} at {at}");
                        reach(
                            0,
                            want_ranked
                                .windows(2)
                                .any(|w| w[0].0 == w[1].0 && w[0].0 > 0),
                        );
                        next_key += 1;
                        let vs = block(next_key, rng.gen_range(1u64..4));
                        let disks: Vec<DiskId> = std::iter::once(0)
                            .chain(ranked.iter().copied())
                            .map(|j| stripe.disk_after(home, j))
                            .collect();
                        for d in &disks {
                            reach(1, rings[d.index()].load_at(pos(at)).bits_per_sec() > 0);
                            rings[d.index()]
                                .insert(vs.instance, pos(at), vs.bitrate, false)
                                .expect("unbounded");
                        }
                        let shards = b.reserve(&vs, home, at, ranked.into_iter());
                        live.push(Held {
                            vs,
                            home,
                            at,
                            shards,
                            disks,
                        });
                    }
                    6..=8 if !live.is_empty() => {
                        let h = live.swap_remove(rng.gen_range(0..live.len()));
                        reach(2, cut);
                        release(&mut b, &mut rings, h);
                    }
                    _ => {
                        // A power cut: the cub's primary entries release
                        // what they hold, all at once.
                        let cub = CubId(rng.gen_range(0..cubs));
                        cut = true;
                        let (gone, kept) =
                            live.drain(..).partition(|h| stripe.cub_of(h.home) == cub);
                        live = kept;
                        for h in gone {
                            release(&mut b, &mut rings, h);
                        }
                    }
                }
                for d in 0..disks {
                    for slot in 0..u64::from(disks) {
                        let want = rings[d as usize].load_at(bpt.mul_u64(slot)).bits_per_sec();
                        assert_eq!(slot_load(&b, d, slot), want, "disk {d} slot {slot}");
                    }
                }
            }
            for h in std::mem::take(&mut live) {
                release(&mut b, &mut rings, h);
            }
            for d in 0..disks {
                for slot in 0..u64::from(disks) {
                    assert_eq!(
                        slot_load(&b, d, slot),
                        0,
                        "disk {d} slot {slot} after release"
                    );
                }
            }
        });
    }
}
