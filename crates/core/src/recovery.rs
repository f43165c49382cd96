//! Rejoin replay-batch construction (the sub-interval rejoin of
//! Recovery v2).
//!
//! When a cub rejoins the ring, its predecessor replays the tail of its
//! retired log — the records it recently serviced — so the rejoiner
//! reconstructs in-flight viewer state immediately instead of waiting up
//! to a full forward interval for the records to circulate naturally.
//! The batch construction lives here, outside the cub, so the
//! `recovery/retired_replay` micro-benchmark can drive it against a
//! synthetic retired log without building a whole system.

use std::collections::{HashSet, VecDeque};

use tiger_layout::{BlockNum, CubId, FileId};
use tiger_sched::ViewerState;
use tiger_sim::{SimDuration, SimTime};

/// Drops retired-log entries older than `retention` before `now`, naming
/// each to `dropped` (the cub's per-instance record follows the log through
/// it). The log is in service order (ascending time; [`replay_batch`]
/// depends on it too), so what is too old is a prefix, and pruning costs
/// what it drops.
pub fn prune_retired(
    log: &mut VecDeque<(SimTime, ViewerState)>,
    now: SimTime,
    retention: SimDuration,
    mut dropped: impl FnMut(&ViewerState),
) {
    let horizon = now.saturating_sub(retention);
    while log.front().is_some_and(|(at, _)| *at < horizon) {
        let (_, vs) = log.pop_front().expect("front checked");
        dropped(&vs);
    }
}

/// Builds the batch a ring predecessor replays to a rejoining cub.
///
/// For the most recent retired-log sighting of each viewer, the record is
/// skipped ahead to the first position whose nominal send time clears
/// `now + clear_horizon`, then over positions owned by cubs still
/// believed failed ([`first_reachable`]). A record is kept
/// only if the surviving position lands on the rejoiner's disks: every
/// other living owner is already receiving the record through normal
/// circulation.
///
/// `clear_horizon` is the mirror-commitment frontier. While the rejoiner
/// was down, every position of its streams was taken over at *forward*
/// time — up to the maximum viewer-state lead before the position came
/// due (plus forwarding slack) the acting successor had already created
/// the mirror viewer state and committed the piece holders to serve it.
/// A replayed record claiming a position inside that frontier would have
/// the rejoiner serve a block the mirrors also serve — a double delivery.
/// Positions due beyond the frontier are forwarded only *after* the
/// rejoin flipped the ring's beliefs, so they go straight to the live
/// rejoiner and deduplicate with the replayed copy.
///
/// Receipt is idempotent on the rejoiner (already-served blocks,
/// play-sequence supersession, and late-arrival guards all discard
/// duplicates), so over-approximating the batch is safe; the filter only
/// bounds the message size.
#[allow(clippy::too_many_arguments)] // a pure reduction: log + clock + geometry + two oracles
pub fn replay_batch<'a>(
    retired: impl IntoIterator<Item = &'a (SimTime, ViewerState), IntoIter: DoubleEndedIterator>,
    now: SimTime,
    block_play_time: SimDuration,
    clear_horizon: SimDuration,
    ring_len: u32,
    locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
    believes_failed: impl Fn(CubId) -> bool,
    rejoiner: CubId,
) -> Vec<ViewerState> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    // Latest sighting per viewer wins: walk newest-first, emit the first
    // entry seen for each (slot, instance), then restore service order.
    for &(at, vs) in retired.into_iter().rev() {
        if !seen.insert((vs.slot, vs.instance)) {
            continue;
        }
        // The entry's block was serviced around `at`; the stream has
        // since advanced one position per block play time. The first
        // claimable position is the one past the commitment frontier.
        let behind = now.saturating_since(at) + clear_horizon;
        let k = (behind.as_nanos() / block_play_time.as_nanos()) as u32 + 1;
        match first_reachable(vs, k, ring_len, &locate, &believes_failed) {
            Some((cand, owner)) if owner == rejoiner => out.push(cand),
            _ => {}
        }
    }
    out.reverse();
    out
}

/// The §2.3 gap bridge's skip-to-reachable search: `vs` advanced `k`
/// positions, then on past each position whose owner is believed failed
/// (its block is lost), for at most one lap. Yields the record at the
/// first living owner's position, with that owner; `None` past end-of-file.
pub fn first_reachable(
    vs: ViewerState,
    k: u32,
    ring_len: u32,
    locate: impl Fn(FileId, BlockNum) -> Option<CubId>,
    believes_failed: impl Fn(CubId) -> bool,
) -> Option<(ViewerState, CubId)> {
    for k in k..k + ring_len {
        let cand = vs.advanced(k);
        let owner = locate(cand.file, cand.position)?;
        if !believes_failed(owner) {
            return Some((cand, owner));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ids::ViewerInstance;
    use tiger_sched::{SlotId, StreamKind};
    use tiger_sim::Bandwidth;

    fn vs(slot: u32, viewer: u64, position: u32) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: tiger_layout::ViewerId(viewer),
                incarnation: 0,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(position),
            slot: SlotId(slot),
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        }
    }

    /// 4-cub round-robin ownership over a 100-block file.
    fn owner(_file: FileId, pos: BlockNum) -> Option<CubId> {
        (pos.raw() < 100).then(|| CubId(pos.raw() % 4))
    }

    const NO_HORIZON: SimDuration = SimDuration::ZERO;

    #[test]
    fn keeps_only_rejoiner_owned_candidates_advanced_past_now() {
        let bpt = SimDuration::from_secs(1);
        // Serviced at t=10s, position 5 (owner 1). At t=12.5s the stream
        // is 2.5s along: k = 2 + 1 = 3 → position 8, owner 0.
        let retired = vec![(SimTime::from_secs(10), vs(0, 1, 5))];
        let now = SimTime::from_millis(12_500);
        let batch = replay_batch(
            &retired,
            now,
            bpt,
            NO_HORIZON,
            4,
            owner,
            |_| false,
            CubId(0),
        );
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(8));
        // The same entry aimed at a different rejoiner produces nothing:
        // position 8 is not cub 1's.
        let other = replay_batch(
            &retired,
            now,
            bpt,
            NO_HORIZON,
            4,
            owner,
            |_| false,
            CubId(1),
        );
        assert!(other.is_empty());
    }

    #[test]
    fn skips_believed_failed_owners_to_the_next_living_position() {
        let bpt = SimDuration::from_secs(1);
        let retired = vec![(SimTime::from_secs(10), vs(0, 1, 5))];
        let now = SimTime::from_millis(12_500);
        // Position 8's owner (cub 0) is believed failed; the bridge skips
        // to position 9 (owner 1).
        let batch = replay_batch(
            &retired,
            now,
            bpt,
            NO_HORIZON,
            4,
            owner,
            |c| c == CubId(0),
            CubId(1),
        );
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(9));
    }

    #[test]
    fn latest_sighting_per_viewer_wins_and_eof_entries_drop() {
        let bpt = SimDuration::from_secs(1);
        let retired = vec![
            (SimTime::from_secs(8), vs(0, 1, 3)),
            (SimTime::from_secs(10), vs(0, 1, 5)), // newer sighting of viewer 1
            (SimTime::from_secs(10), vs(1, 2, 98)), // advances past EOF (100)
        ];
        let now = SimTime::from_millis(12_500);
        let batch = replay_batch(
            &retired,
            now,
            bpt,
            NO_HORIZON,
            4,
            owner,
            |_| false,
            CubId(0),
        );
        // Viewer 1 contributes exactly one record, from its newer entry;
        // viewer 2's candidate (98 + 3 = 101) is past end-of-file.
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(8));
    }

    /// SplitMix64 — a hand-rolled generator so the property test needs
    /// no external dependency and stays deterministic per seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn retention_prunes_exactly_under_random_interleavings() {
        // Property: under any interleaving of services (appends) and
        // prune passes, the pruned log is *exactly* the full history
        // filtered to the retention window — nothing inside the window
        // is ever dropped, nothing outside it survives — and the replay
        // batch built from the pruned log matches the full history's
        // batch for every viewer sighted inside the window (pruning is
        // invisible to a rejoin that happens within detection time).
        let retention = SimDuration::from_secs(5);
        let bpt = SimDuration::from_secs(1);
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut pruned: VecDeque<(SimTime, ViewerState)> = VecDeque::new();
            let mut full: Vec<(SimTime, ViewerState)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut horizon = SimTime::ZERO;
            for _ in 0..200 {
                now += SimDuration::from_millis(rng.below(700));
                if rng.below(4) < 3 {
                    // Service: viewers advance one position per block
                    // play time, so the sighting's position tracks time.
                    let viewer = rng.below(6);
                    let pos = (now.as_nanos() / bpt.as_nanos()) as u32 % 60;
                    let entry = (now, vs(viewer as u32, viewer, pos));
                    pruned.push_back(entry);
                    full.push(entry);
                } else {
                    prune_retired(&mut pruned, now, retention, |_| {});
                    horizon = now.saturating_sub(retention);
                }
                let expect: Vec<_> = full
                    .iter()
                    .copied()
                    .filter(|&(at, _)| at >= horizon)
                    .collect();
                assert_eq!(pruned, expect, "seed {seed}: pruned log diverged");
                let sighted: HashSet<u64> =
                    pruned.iter().map(|(_, v)| v.instance.viewer.0).collect();
                for rejoiner in 0..4 {
                    let got = replay_batch(
                        &pruned,
                        now,
                        bpt,
                        NO_HORIZON,
                        4,
                        owner,
                        |_| false,
                        CubId(rejoiner),
                    );
                    let want: Vec<_> = replay_batch(
                        &full,
                        now,
                        bpt,
                        NO_HORIZON,
                        4,
                        owner,
                        |_| false,
                        CubId(rejoiner),
                    )
                    .into_iter()
                    .filter(|v| sighted.contains(&v.instance.viewer.0))
                    .collect();
                    assert_eq!(got, want, "seed {seed}: pruning changed the replay batch");
                }
            }
        }
    }

    #[test]
    fn clear_horizon_skips_mirror_committed_positions() {
        let bpt = SimDuration::from_secs(1);
        // Same entry as the first test, but with a 1.5s commitment
        // frontier: positions 8 and 9 (due 13s, 14s ≤ now + horizon)
        // may already be mirror-committed, so the first claimable
        // position is 10 — not cub 0's, so cub 0 gets nothing...
        let retired = vec![(SimTime::from_secs(10), vs(0, 1, 5))];
        let now = SimTime::from_millis(12_500);
        let horizon = SimDuration::from_millis(1_500);
        let batch = replay_batch(&retired, now, bpt, horizon, 4, owner, |_| false, CubId(0));
        assert!(batch.is_empty());
        // ...and cub 2 (position 10's owner) gets the claim instead.
        let batch = replay_batch(&retired, now, bpt, horizon, 4, owner, |_| false, CubId(2));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].position, BlockNum(10));
    }
}
