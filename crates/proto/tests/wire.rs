//! The wire format pinned to its bytes.
//!
//! The unit tests beside the codec check that a line survives a round
//! trip; a codec that wrote every line differently, but consistently,
//! would pass them. These tests pin what the lines *are*: the exact line
//! of every exemplar, a seeded round trip over every variant with the
//! edge values of every field, and a digest of a fixed sample's lines.
//! They were written against the hand-rolled codec and must pass
//! unedited against any rewrite of it.
//!
//! `TIGER_PROP_CASES=2000 cargo test -p tiger-proto --test wire` is the
//! CI depth of the generated round trip.

use std::hash::Hasher;
use std::sync::Arc;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, DiskId, FileId, ViewerId};
use tiger_proto::wire::{decode, encode, exemplars};
use tiger_proto::Message;
use tiger_sched::{Deschedule, SlotId, StreamKind, ViewerState};
use tiger_sim::check::check_cases;
use tiger_sim::{Bandwidth, DetHasher, SimRng, SimTime};

/// Every `exemplars()` message, as the line `encode` writes for it.
const EXEMPLAR_LINES: &[&str] = &[
    "VS 7,3,11,2,417,19,42,2000000,P",
    "VS 7,3,11,2,417,19,42,2000000,M:5:1",
    "VS 7,3,11,2,417,19,42,2000000,C:3:2",
    "VSB",
    "VSB 1,3,11,2,417,4,42,2000000,P 2,3,11,2,417,9,42,2000000,M:0:0",
    "DESCH 9,1 23 5",
    "START 6 12,0 3 120 1250000000",
    "ROUTED 6 12,0 3 120 1250000000 1",
    "ROUTED 6 12,0 3 0 0 0",
    "COMMIT 12,0 40 3 2000000000",
    "STOP 12,0",
    "FIN 12,0",
    "PING 2 3",
    "REJOIN 1 2",
    "RACK 0 -",
    "RACK 0 1,3",
    "RPLY 2",
    "RPLY 2 3,3,11,2,417,8,42,2000000,P 4,3,11,2,417,14,42,2000000,P",
    "NOTICE 3 1",
    "DATA 12,0 88 - 1 250000",
    "DATA 12,0 88 1 2 125000",
];

#[test]
fn exemplars_encode_to_their_documented_lines() {
    let got: Vec<String> = exemplars().iter().map(encode).collect();
    assert_eq!(got, EXEMPLAR_LINES);
}

/// A `u32` that is 0, `u32::MAX`, small, or anything, each often.
fn edge_u32(rng: &mut SimRng) -> u32 {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => u32::MAX,
        2 => rng.gen_range(1..100u32),
        _ => rng.next_u64() as u32,
    }
}

/// A `u64` that is 0, `u32::MAX`, `u64::MAX`, small, or anything.
fn edge_u64(rng: &mut SimRng) -> u64 {
    match rng.gen_range(0..5u32) {
        0 => 0,
        1 => u64::from(u32::MAX),
        2 => u64::MAX,
        3 => rng.gen_range(1..100u64),
        _ => rng.next_u64(),
    }
}

fn time(rng: &mut SimRng) -> SimTime {
    SimTime::from_nanos(edge_u64(rng))
}

fn instance(rng: &mut SimRng) -> ViewerInstance {
    ViewerInstance {
        viewer: ViewerId(edge_u64(rng)),
        incarnation: edge_u32(rng),
    }
}

fn kind(rng: &mut SimRng) -> StreamKind {
    match rng.gen_range(0..3u32) {
        0 => StreamKind::Primary,
        1 => StreamKind::Mirror {
            failed_disk: DiskId(edge_u32(rng)),
            piece: edge_u32(rng),
        },
        _ => StreamKind::Coded {
            home_disk: DiskId(edge_u32(rng)),
            shard: edge_u32(rng),
        },
    }
}

fn viewer_state(rng: &mut SimRng) -> ViewerState {
    ViewerState {
        instance: instance(rng),
        client: edge_u32(rng),
        file: FileId(edge_u32(rng)),
        position: BlockNum(edge_u32(rng)),
        slot: SlotId(edge_u32(rng)),
        play_seq: edge_u32(rng),
        bitrate: Bandwidth::from_bits_per_sec(edge_u64(rng)),
        kind: kind(rng),
    }
}

/// A batch of 0, 1..8 or 64 records.
fn batch(rng: &mut SimRng) -> Arc<[ViewerState]> {
    let n = match rng.gen_range(0..4u32) {
        0 => 0,
        1 => 64,
        _ => rng.gen_range(1..8usize),
    };
    (0..n).map(|_| viewer_state(rng)).collect()
}

/// An empty failed list, or 1..6 ids.
fn failed_list(rng: &mut SimRng) -> Arc<[u32]> {
    let n = match rng.gen_range(0..3u32) {
        0 => 0,
        _ => rng.gen_range(1..6usize),
    };
    (0..n).map(|_| edge_u32(rng)).collect()
}

/// The number of [`Message`] variants [`message`] draws from.
const VARIANTS: u32 = 14;

/// One message of variant `variant` (`0..VARIANTS`), its fields drawn.
fn message(rng: &mut SimRng, variant: u32) -> Message {
    match variant {
        0 => Message::ViewerState(viewer_state(rng)),
        1 => Message::ViewerStates(batch(rng)),
        2 => Message::Deschedule {
            request: Deschedule {
                instance: instance(rng),
                slot: SlotId(edge_u32(rng)),
            },
            hops_left: edge_u32(rng),
        },
        3 => Message::StartRequest {
            client: edge_u32(rng),
            instance: instance(rng),
            file: FileId(edge_u32(rng)),
            from_block: edge_u32(rng),
            requested_at: time(rng),
        },
        4 => Message::RoutedStart {
            client: edge_u32(rng),
            instance: instance(rng),
            file: FileId(edge_u32(rng)),
            from_block: edge_u32(rng),
            requested_at: time(rng),
            redundant: rng.gen_bool(0.5),
        },
        5 => Message::InsertCommitted {
            instance: instance(rng),
            slot: SlotId(edge_u32(rng)),
            file: FileId(edge_u32(rng)),
            first_send: time(rng),
        },
        6 => Message::StopRequest {
            instance: instance(rng),
        },
        7 => Message::ViewerFinished {
            instance: instance(rng),
        },
        8 => Message::DeadmanPing {
            from: CubId(edge_u32(rng)),
            life: edge_u32(rng),
        },
        9 => Message::RejoinRequest {
            from: CubId(edge_u32(rng)),
            life: edge_u32(rng),
        },
        10 => Message::RejoinAck {
            from: CubId(edge_u32(rng)),
            failed: failed_list(rng),
        },
        11 => Message::RetiredReplay {
            from: CubId(edge_u32(rng)),
            states: batch(rng),
        },
        12 => Message::FailureNotice {
            failed: CubId(edge_u32(rng)),
            life: edge_u32(rng),
        },
        _ => Message::StreamData {
            instance: instance(rng),
            block: edge_u32(rng),
            piece: rng.gen_bool(0.5).then(|| edge_u32(rng)),
            total_pieces: edge_u32(rng),
            bytes: edge_u64(rng),
        },
    }
}

#[test]
fn generated_messages_round_trip() {
    check_cases("wire_generated_messages_round_trip", 256, |rng| {
        for variant in 0..VARIANTS {
            let msg = message(rng, variant);
            let line = encode(&msg);
            assert_eq!(decode(&line), Some(msg), "line {line:?}");
        }
    });
}

/// The fixed sample: 10,000 messages from one seed, variants uniform.
fn sample() -> Vec<Message> {
    let mut rng = SimRng::from_seed(0x7167_6572_7769_7265);
    (0..10_000)
        .map(|_| {
            let variant = rng.gen_range(0..VARIANTS);
            message(&mut rng, variant)
        })
        .collect()
}

/// `DetHasher` over every sample line, each followed by a newline.
fn sample_digest() -> u64 {
    let mut h = DetHasher::default();
    for msg in sample() {
        h.write(encode(&msg).as_bytes());
        h.write_u8(b'\n');
    }
    h.finish()
}

/// The sample digest the hand-rolled codec wrote (under the normal
/// build's `DetHasher`; `--cfg tiger_alt_hash` changes its multiplier),
/// re-pinned when failure notices, rejoin requests and deadman pings
/// gained a life: the generator draws one more field for each, so the
/// whole sample moved.
const SAMPLE_DIGEST: u64 = 0x637f_eeae_4636_9d4f;

#[test]
fn a_fixed_sample_encodes_to_the_pinned_digest() {
    // The sample reaches every edge the generator is meant to draw.
    let sample = sample();
    let states = || {
        sample.iter().flat_map(|m| match m {
            Message::ViewerState(vs) => std::slice::from_ref(vs),
            Message::ViewerStates(b) | Message::RetiredReplay { states: b, .. } => b,
            _ => &[],
        })
    };
    let batch_lens: Vec<usize> = sample
        .iter()
        .filter_map(|m| match m {
            Message::ViewerStates(b) | Message::RetiredReplay { states: b, .. } => Some(b.len()),
            _ => None,
        })
        .collect();
    assert!(batch_lens.contains(&0) && batch_lens.contains(&64));
    assert!(states().any(|vs| vs.kind == StreamKind::Primary));
    assert!(states().any(|vs| matches!(vs.kind, StreamKind::Mirror { .. })));
    assert!(states().any(|vs| matches!(vs.kind, StreamKind::Coded { .. })));
    assert!(states().any(|vs| vs.slot.raw() == 0) && states().any(|vs| vs.slot.raw() == u32::MAX));
    assert!(states().any(|vs| vs.instance.viewer.raw() == u64::MAX));
    let times: Vec<u64> = sample
        .iter()
        .filter_map(|m| match m {
            Message::StartRequest { requested_at, .. } => Some(requested_at.as_nanos()),
            Message::InsertCommitted { first_send, .. } => Some(first_send.as_nanos()),
            _ => None,
        })
        .collect();
    assert!(times.contains(&0) && times.contains(&u64::MAX));
    assert!(sample
        .iter()
        .any(|m| matches!(m, Message::StreamData { piece: None, .. })));
    assert!(sample
        .iter()
        .any(|m| matches!(m, Message::RejoinAck { failed, .. } if failed.is_empty())));
    assert!(sample
        .iter()
        .any(|m| matches!(m, Message::DeadmanPing { from, .. } if from.raw() == u32::MAX)));
    assert!(sample
        .iter()
        .any(|m| matches!(m, Message::FailureNotice { life, .. } if *life == u32::MAX)));
    assert!(sample
        .iter()
        .any(|m| matches!(m, Message::DeadmanPing { life, .. } if *life == u32::MAX)));

    assert_eq!(sample_digest(), SAMPLE_DIGEST, "{:#018x}", sample_digest());
}
