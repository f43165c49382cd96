//! The service pipeline's data: the geometry of the [`PieceSpec`]
//! constructors, the pacing the send derives from a kind, and the
//! lifetime of the acting successor's cover memory.

use tiger_core::cub::service::PieceSpec;
use tiger_core::{Backend, Message, RedundancyMode, TigerConfig, TigerSystem};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, DiskId, StripeConfig, ViewerId};
use tiger_sched::{SlotId, StreamKind, ViewerState};
use tiger_sim::{Bandwidth, ByteSize, SimDuration, SimTime};
use tiger_trace::TraceEvent;

fn rate() -> Bandwidth {
    Bandwidth::from_mbit_per_sec(2)
}

#[test]
fn piece_geometry_tiles_the_block_play_time() {
    // A block whose size no decluster factor in 2..=8 divides, so the
    // payload ceiling is exercised.
    let block = ByteSize::from_bytes(250_001);
    let home = DiskId(3);
    // The sosp97 block play time (1 s), on a ring wide enough for 2k coded
    // shards at every k.
    let cfg_with = |d, redundancy| {
        let mut cfg = TigerConfig::sosp97();
        cfg.stripe = StripeConfig::new(16, 1, d);
        cfg.redundancy = redundancy;
        cfg
    };
    for d in 1..=8u32 {
        let sys = TigerSystem::new(cfg_with(d, RedundancyMode::Mirrored));
        let params = &sys.world().params;
        let bpt = params.block_play_time();
        let end_of = |s: &PieceSpec| s.offset + s.duration;
        let mirrored = Backend::new(&cfg_with(d, RedundancyMode::Mirrored));
        let coded = Backend::new(&cfg_with(d, RedundancyMode::Coded));
        // A service keeps no pacing time: the send derives it from the
        // entry's kind, which `Cub::admit` rewrote to the row's.
        let sent =
            |backend: &Backend, s: &PieceSpec| PieceSpec::pacing(params, backend.shards(), s.kind);
        // Piece `i` of the block under `backend`, from its holder's disk.
        let piece = |backend: &Backend, i| {
            let local = params.stripe().local_index_of(backend.holder(home, i));
            PieceSpec::piece(params, backend, block, home, i, local)
        };

        // Mirror pieces: back to back, the last ending at block_due + bpt
        // (less the nanoseconds integer division drops).
        let pieces: Vec<PieceSpec> = (0..d).map(|i| piece(&mirrored, i)).collect();
        for (s, i) in pieces.iter().zip(0..) {
            let kind = StreamKind::Mirror {
                failed_disk: home,
                piece: i,
            };
            assert_eq!(s.kind, kind);
            assert_eq!(s.dating_disk, home);
            assert_eq!(s.disk_local, 0, "one disk per cub");
            assert_eq!((s.read_leads, s.late_guard), (3, true));
            assert_eq!(s.duration, bpt.div_u64(u64::from(d)));
            assert_eq!(sent(&mirrored, s), s.duration, "the send's pacing");
            assert_eq!(s.offset, s.duration.mul_u64(u64::from(i)), "d={d}");
            // A shielded piece is the mirror piece on the spare's disk
            // that mirrors the failed home's local index: only the disk
            // differs.
            let local = params.stripe().local_index_of(home);
            let shielded = PieceSpec::piece(params, &mirrored, block, home, i, local);
            assert_eq!(
                shielded,
                PieceSpec {
                    disk_local: local,
                    ..*s
                }
            );
        }
        assert!(pieces.windows(2).all(|w| w[0].offset < w[1].offset));
        let last = end_of(pieces.last().expect("d >= 1"));
        assert!(
            last <= bpt && (bpt - last).as_nanos() < u64::from(d),
            "d={d}"
        );
        let bytes: u64 = pieces.iter().map(|s| u64::from(s.payload)).sum();
        assert!(bytes >= block.as_bytes(), "d={d}: pieces carry {bytes}");

        // Coded shards 1..2k: staggered so that even the highest ends
        // inside the play window, whichever k the coordinator picks.
        let (k, n) = (d, 2 * d);
        let shards: Vec<PieceSpec> = (1..n).map(|j| piece(&coded, j)).collect();
        for (s, j) in shards.iter().zip(1..) {
            let kind = StreamKind::Coded {
                home_disk: home,
                shard: j,
            };
            assert_eq!(s.kind, kind);
            assert_eq!(s.dating_disk, home);
            assert_eq!(s.disk_local, 0, "one disk per cub");
            assert_eq!((s.read_leads, s.late_guard), (3, true));
            assert_eq!(s.duration, bpt.div_u64(u64::from(k)));
            assert_eq!(sent(&coded, s), s.duration, "the send's pacing");
            // The same share of the block as the mirror piece of that
            // index, on the coded stagger.
            if j < d {
                let m = &pieces[j as usize];
                assert_eq!((s.duration, s.payload), (m.duration, m.payload));
            }
        }
        if k > 1 {
            assert!(shards.windows(2).all(|w| w[0].offset < w[1].offset));
        }
        let last = end_of(shards.last().expect("n >= 2"));
        assert!(
            last <= bpt && (bpt - last).as_nanos() < u64::from(n),
            "k={k}"
        );
        let any_k: u64 = (shards.iter().take(k as usize))
            .map(|s| u64::from(s.payload))
            .sum();
        assert!(any_k >= block.as_bytes(), "k={k}: k shards carry {any_k}");

        // The home's own send: the whole block under mirroring; under the
        // coded backend shard 0 — a shard's share, at the due time itself.
        let whole = PieceSpec::primary(params, block, home, 1);
        assert_eq!(
            (whole.offset, whole.duration, u64::from(whole.payload)),
            (SimDuration::ZERO, bpt, block.as_bytes())
        );
        assert_eq!((whole.read_leads, whole.late_guard), (2, false));
        assert_eq!(sent(&mirrored, &whole), whole.duration);
        let shard0 = PieceSpec::primary(params, block, home, k);
        assert_eq!(shard0.kind, StreamKind::Primary);
        assert_eq!(sent(&coded, &shard0), shard0.duration);
        assert_eq!(
            (shard0.offset, shard0.duration, shard0.payload),
            (SimDuration::ZERO, shards[0].duration, shards[0].payload)
        );
    }
}

/// An 8-cub mirrored ring with cub 3 dead and declared, and a crafted
/// primary record for the *last* block of a file, homed on cub 3: its
/// acting successor (cub 4) covers it, and — the advanced record being
/// past end-of-file — accepts no primary of its own, so once the mirror
/// piece has gone out nothing but the cover memory stands between a
/// re-delivered copy and a second cover.
fn covered_last_block() -> (TigerSystem, ViewerState) {
    let mut cfg = TigerConfig::small_test();
    cfg.stripe = StripeConfig::new(8, 1, 2);
    cfg.num_clients = 8;
    cfg.disk = cfg.disk.without_blips();
    cfg.deadman_timeout = SimDuration::from_millis(1_500);
    let mut sys = TigerSystem::new(cfg);
    sys.enable_trace(1 << 16);
    let (file, last) = (20..28)
        .find_map(|secs| {
            let file = sys.add_file(rate(), SimDuration::from_secs(secs));
            let last = BlockNum(sys.world().catalog.get(file)?.num_blocks - 1);
            (sys.world().catalog.locate(file, last)?.cub == CubId(3)).then_some((file, last))
        })
        .expect("eight consecutive lengths end on every cub once");
    sys.fail_cub_at(SimTime::from_secs(1), CubId(3));
    sys.run_until(SimTime::from_secs(6));
    assert!(sys.cubs()[4].believes_failed(CubId(3)));
    let vs = ViewerState {
        instance: ViewerInstance {
            viewer: ViewerId(900),
            incarnation: 0,
        },
        client: sys.world().client_node(0).0,
        file,
        position: last,
        slot: SlotId(sys.world().params.capacity() - 1),
        play_seq: 7,
        bitrate: rate(),
        kind: StreamKind::Primary,
    };
    (sys, vs)
}

fn deliver_to_successor(sys: &mut TigerSystem, vs: ViewerState) {
    sys.deliver(CubId(4), sys.now(), Message::ViewerState(vs));
}

fn covers(sys: &TigerSystem) -> usize {
    let created = |ev: &TraceEvent| matches!(ev, TraceEvent::MirrorCreate { viewer: 900, .. });
    sys.tracer()
        .records()
        .iter()
        .filter(|r| created(&r.ev))
        .count()
}

#[test]
fn cover_memory_outlives_the_block_by_the_retention_window() {
    let (mut sys, vs) = covered_last_block();
    let retention = sys.world().cfg.retired_retention();
    let due = sys
        .world()
        .params
        .slot_send_time(DiskId(3), vs.slot, sys.now());
    let blocks_before = sys.metrics().loss.blocks_scheduled;
    deliver_to_successor(&mut sys, vs);
    assert_eq!(covers(&sys), 1);

    // The piece has gone out and its service entry is reclaimed: from
    // here on only the cover memory refuses a copy. It must, for the
    // whole window — the forward passes in between prune nothing live.
    let half_pass = SimDuration::from_millis(600);
    for at in [due + SimDuration::from_secs(2), due + retention - half_pass] {
        sys.run_until(at);
        deliver_to_successor(&mut sys, vs);
        assert_eq!(covers(&sys), 1, "re-created inside the window, at {at}");
    }
    assert_eq!(sys.metrics().loss.blocks_scheduled, blocks_before + 1);

    // Past the window (and one forward pass) the entry is forgotten —
    // by age, not by how many blocks the cub has covered since.
    sys.run_until(due + retention + half_pass);
    deliver_to_successor(&mut sys, vs);
    assert_eq!(covers(&sys), 2, "entry outlived its window");
}
