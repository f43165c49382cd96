//! The lossless text wire format for [`Message`].
//!
//! One message is one line of space-separated ASCII tokens, tag first:
//!
//! ```text
//! VS <vs>                                  single viewer state
//! VSB <vs> <vs> ...                        viewer-state batch (may be empty)
//! DESCH <viewer>,<inc> <slot> <hops>       deschedule + hops left
//! START <client> <viewer>,<inc> <file> <from> <req-ns>
//! ROUTED <client> <viewer>,<inc> <file> <from> <req-ns> <0|1>
//! COMMIT <viewer>,<inc> <slot> <file> <first-send-ns>
//! STOP <viewer>,<inc>
//! FIN <viewer>,<inc>
//! PING <from>
//! REJOIN <from>
//! RACK <from> <c,c,...|->                  failure beliefs ('-' = none)
//! RPLY <from> <vs> <vs> ...                retired-log replay (may be empty)
//! NOTICE <failed>
//! DATA <viewer>,<inc> <block> <piece|-> <total> <bytes>
//! ```
//!
//! where `<vs>` is one comma-joined token
//! `viewer,inc,client,file,position,slot,play_seq,bitrate_bps,kind` and
//! `kind` is `P` (primary) or `M:<failed-disk>:<piece>` (mirror).
//!
//! The format is *lossless*: [`decode`] inverts [`encode`] exactly, and
//! re-encoding a decoded message reproduces the original bytes. The
//! exhaustive per-variant round-trip tests below are the gate a message
//! must pass before it is allowed to cross a real socket (`tiger-rt`).

use std::sync::Arc;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, DiskId, FileId, ViewerId};
use tiger_sched::{Deschedule, SlotId, StreamKind, ViewerState};
use tiger_sim::{Bandwidth, SimTime};

use crate::msg::Message;

/// Encodes a message as one wire line (no trailing newline).
pub fn encode(msg: &Message) -> String {
    let mut s = String::new();
    match msg {
        Message::ViewerState(vs) => {
            s.push_str("VS ");
            push_vs(&mut s, vs);
        }
        Message::ViewerStates(batch) => {
            s.push_str("VSB");
            for vs in batch.iter() {
                s.push(' ');
                push_vs(&mut s, vs);
            }
        }
        Message::Deschedule { request, hops_left } => {
            s.push_str("DESCH ");
            push_instance(&mut s, &request.instance);
            s.push_str(&format!(" {} {hops_left}", request.slot.raw()));
        }
        Message::StartRequest {
            client,
            instance,
            file,
            from_block,
            requested_at,
        } => {
            s.push_str(&format!("START {client} "));
            push_instance(&mut s, instance);
            s.push_str(&format!(
                " {} {from_block} {}",
                file.raw(),
                requested_at.as_nanos()
            ));
        }
        Message::RoutedStart {
            client,
            instance,
            file,
            from_block,
            requested_at,
            redundant,
        } => {
            s.push_str(&format!("ROUTED {client} "));
            push_instance(&mut s, instance);
            s.push_str(&format!(
                " {} {from_block} {} {}",
                file.raw(),
                requested_at.as_nanos(),
                u32::from(*redundant)
            ));
        }
        Message::InsertCommitted {
            instance,
            slot,
            file,
            first_send,
        } => {
            s.push_str("COMMIT ");
            push_instance(&mut s, instance);
            s.push_str(&format!(
                " {} {} {}",
                slot.raw(),
                file.raw(),
                first_send.as_nanos()
            ));
        }
        Message::StopRequest { instance } => {
            s.push_str("STOP ");
            push_instance(&mut s, instance);
        }
        Message::ViewerFinished { instance } => {
            s.push_str("FIN ");
            push_instance(&mut s, instance);
        }
        Message::DeadmanPing { from } => s.push_str(&format!("PING {}", from.raw())),
        Message::RejoinRequest { from } => s.push_str(&format!("REJOIN {}", from.raw())),
        Message::RejoinAck { from, failed } => {
            s.push_str(&format!("RACK {} ", from.raw()));
            if failed.is_empty() {
                s.push('-');
            } else {
                for (i, c) in failed.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&c.to_string());
                }
            }
        }
        Message::RetiredReplay { from, states } => {
            s.push_str(&format!("RPLY {}", from.raw()));
            for vs in states.iter() {
                s.push(' ');
                push_vs(&mut s, vs);
            }
        }
        Message::FailureNotice { failed } => s.push_str(&format!("NOTICE {}", failed.raw())),
        Message::StreamData {
            instance,
            block,
            piece,
            total_pieces,
            bytes,
        } => {
            s.push_str("DATA ");
            push_instance(&mut s, instance);
            match piece {
                Some(p) => s.push_str(&format!(" {block} {p} {total_pieces} {bytes}")),
                None => s.push_str(&format!(" {block} - {total_pieces} {bytes}")),
            }
        }
    }
    s
}

/// Decodes one wire line; `None` on any malformation.
pub fn decode(line: &str) -> Option<Message> {
    let mut it = line.split_ascii_whitespace();
    let tag = it.next()?;
    let msg = match tag {
        "VS" => {
            let vs = parse_vs(it.next()?)?;
            end(it)?;
            Message::ViewerState(vs)
        }
        "VSB" => {
            let mut batch = Vec::new();
            for tok in it {
                batch.push(parse_vs(tok)?);
            }
            Message::ViewerStates(Arc::from(batch))
        }
        "DESCH" => {
            let instance = parse_instance(it.next()?)?;
            let slot = SlotId(it.next()?.parse().ok()?);
            let hops_left = it.next()?.parse().ok()?;
            end(it)?;
            Message::Deschedule {
                request: Deschedule { instance, slot },
                hops_left,
            }
        }
        "START" => {
            let client = it.next()?.parse().ok()?;
            let instance = parse_instance(it.next()?)?;
            let file = FileId(it.next()?.parse().ok()?);
            let from_block = it.next()?.parse().ok()?;
            let requested_at = SimTime::from_nanos(it.next()?.parse().ok()?);
            end(it)?;
            Message::StartRequest {
                client,
                instance,
                file,
                from_block,
                requested_at,
            }
        }
        "ROUTED" => {
            let client = it.next()?.parse().ok()?;
            let instance = parse_instance(it.next()?)?;
            let file = FileId(it.next()?.parse().ok()?);
            let from_block = it.next()?.parse().ok()?;
            let requested_at = SimTime::from_nanos(it.next()?.parse().ok()?);
            let redundant = parse_bool(it.next()?)?;
            end(it)?;
            Message::RoutedStart {
                client,
                instance,
                file,
                from_block,
                requested_at,
                redundant,
            }
        }
        "COMMIT" => {
            let instance = parse_instance(it.next()?)?;
            let slot = SlotId(it.next()?.parse().ok()?);
            let file = FileId(it.next()?.parse().ok()?);
            let first_send = SimTime::from_nanos(it.next()?.parse().ok()?);
            end(it)?;
            Message::InsertCommitted {
                instance,
                slot,
                file,
                first_send,
            }
        }
        "STOP" => {
            let instance = parse_instance(it.next()?)?;
            end(it)?;
            Message::StopRequest { instance }
        }
        "FIN" => {
            let instance = parse_instance(it.next()?)?;
            end(it)?;
            Message::ViewerFinished { instance }
        }
        "PING" => {
            let from = CubId(it.next()?.parse().ok()?);
            end(it)?;
            Message::DeadmanPing { from }
        }
        "REJOIN" => {
            let from = CubId(it.next()?.parse().ok()?);
            end(it)?;
            Message::RejoinRequest { from }
        }
        "RACK" => {
            let from = CubId(it.next()?.parse().ok()?);
            let list = it.next()?;
            let failed: Vec<u32> = if list == "-" {
                Vec::new()
            } else {
                let mut v = Vec::new();
                for tok in list.split(',') {
                    v.push(tok.parse().ok()?);
                }
                v
            };
            end(it)?;
            Message::RejoinAck {
                from,
                failed: Arc::from(failed),
            }
        }
        "RPLY" => {
            let from = CubId(it.next()?.parse().ok()?);
            let mut states = Vec::new();
            for tok in it {
                states.push(parse_vs(tok)?);
            }
            Message::RetiredReplay {
                from,
                states: Arc::from(states),
            }
        }
        "NOTICE" => {
            let failed = CubId(it.next()?.parse().ok()?);
            end(it)?;
            Message::FailureNotice { failed }
        }
        "DATA" => {
            let instance = parse_instance(it.next()?)?;
            let block = it.next()?.parse().ok()?;
            let piece_tok = it.next()?;
            let piece = if piece_tok == "-" {
                None
            } else {
                Some(piece_tok.parse().ok()?)
            };
            let total_pieces = it.next()?.parse().ok()?;
            let bytes = it.next()?.parse().ok()?;
            end(it)?;
            Message::StreamData {
                instance,
                block,
                piece,
                total_pieces,
                bytes,
            }
        }
        _ => return None,
    };
    Some(msg)
}

/// Rejects trailing garbage: decoding must consume the whole line.
fn end<'a>(mut it: impl Iterator<Item = &'a str>) -> Option<()> {
    match it.next() {
        None => Some(()),
        Some(_) => None,
    }
}

fn parse_bool(tok: &str) -> Option<bool> {
    match tok {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn push_instance(s: &mut String, i: &ViewerInstance) {
    s.push_str(&format!("{},{}", i.viewer.raw(), i.incarnation));
}

fn parse_instance(tok: &str) -> Option<ViewerInstance> {
    let (v, inc) = tok.split_once(',')?;
    Some(ViewerInstance {
        viewer: ViewerId(v.parse().ok()?),
        incarnation: inc.parse().ok()?,
    })
}

fn push_vs(s: &mut String, vs: &ViewerState) {
    s.push_str(&format!(
        "{},{},{},{},{},{},{},{},",
        vs.instance.viewer.raw(),
        vs.instance.incarnation,
        vs.client,
        vs.file.raw(),
        vs.position.raw(),
        vs.slot.raw(),
        vs.play_seq,
        vs.bitrate.bits_per_sec(),
    ));
    match vs.kind {
        StreamKind::Primary => s.push('P'),
        StreamKind::Mirror { failed_disk, piece } => {
            s.push_str(&format!("M:{}:{piece}", failed_disk.raw()));
        }
        StreamKind::Coded { home_disk, shard } => {
            s.push_str(&format!("C:{}:{shard}", home_disk.raw()));
        }
    }
}

fn parse_vs(tok: &str) -> Option<ViewerState> {
    let mut parts = tok.split(',');
    let viewer = ViewerId(parts.next()?.parse().ok()?);
    let incarnation = parts.next()?.parse().ok()?;
    let client = parts.next()?.parse().ok()?;
    let file = FileId(parts.next()?.parse().ok()?);
    let position = BlockNum(parts.next()?.parse().ok()?);
    let slot = SlotId(parts.next()?.parse().ok()?);
    let play_seq = parts.next()?.parse().ok()?;
    let bitrate = Bandwidth::from_bits_per_sec(parts.next()?.parse().ok()?);
    let kind_tok = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    let kind = if kind_tok == "P" {
        StreamKind::Primary
    } else if let Some(rest) = kind_tok.strip_prefix("C:") {
        let (disk, shard) = rest.split_once(':')?;
        StreamKind::Coded {
            home_disk: DiskId(disk.parse().ok()?),
            shard: shard.parse().ok()?,
        }
    } else {
        let rest = kind_tok.strip_prefix("M:")?;
        let (disk, piece) = rest.split_once(':')?;
        StreamKind::Mirror {
            failed_disk: DiskId(disk.parse().ok()?),
            piece: piece.parse().ok()?,
        }
    };
    Some(ViewerState {
        instance: ViewerInstance {
            viewer,
            incarnation,
        },
        client,
        file,
        position,
        slot,
        play_seq,
        bitrate,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(viewer: u64, slot: u32, kind: StreamKind) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation: 3,
            },
            client: 11,
            file: FileId(2),
            position: BlockNum(417),
            slot: SlotId(slot),
            play_seq: 42,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind,
        }
    }

    fn inst(v: u64, inc: u32) -> ViewerInstance {
        ViewerInstance {
            viewer: ViewerId(v),
            incarnation: inc,
        }
    }

    /// One exemplar per [`Message`] variant, plus the interesting interior
    /// shapes (empty batch, mirror kind, empty failed list, `None` piece).
    fn exemplars() -> Vec<Message> {
        vec![
            Message::ViewerState(vs(7, 19, StreamKind::Primary)),
            Message::ViewerState(vs(
                7,
                19,
                StreamKind::Mirror {
                    failed_disk: DiskId(5),
                    piece: 1,
                },
            )),
            Message::ViewerState(vs(
                7,
                19,
                StreamKind::Coded {
                    home_disk: DiskId(3),
                    shard: 2,
                },
            )),
            Message::ViewerStates(Arc::from(Vec::<ViewerState>::new())),
            Message::ViewerStates(
                vec![
                    vs(1, 4, StreamKind::Primary),
                    vs(
                        2,
                        9,
                        StreamKind::Mirror {
                            failed_disk: DiskId(0),
                            piece: 0,
                        },
                    ),
                ]
                .into(),
            ),
            Message::Deschedule {
                request: Deschedule {
                    instance: inst(9, 1),
                    slot: SlotId(23),
                },
                hops_left: 5,
            },
            Message::StartRequest {
                client: 6,
                instance: inst(12, 0),
                file: FileId(3),
                from_block: 120,
                requested_at: SimTime::from_millis(1_250),
            },
            Message::RoutedStart {
                client: 6,
                instance: inst(12, 0),
                file: FileId(3),
                from_block: 120,
                requested_at: SimTime::from_millis(1_250),
                redundant: true,
            },
            Message::RoutedStart {
                client: 6,
                instance: inst(12, 0),
                file: FileId(3),
                from_block: 0,
                requested_at: SimTime::ZERO,
                redundant: false,
            },
            Message::InsertCommitted {
                instance: inst(12, 0),
                slot: SlotId(40),
                file: FileId(3),
                first_send: SimTime::from_secs(2),
            },
            Message::StopRequest {
                instance: inst(12, 0),
            },
            Message::ViewerFinished {
                instance: inst(12, 0),
            },
            Message::DeadmanPing { from: CubId(2) },
            Message::RejoinRequest { from: CubId(1) },
            Message::RejoinAck {
                from: CubId(0),
                failed: Arc::from(Vec::<u32>::new()),
            },
            Message::RejoinAck {
                from: CubId(0),
                failed: vec![1u32, 3].into(),
            },
            Message::RetiredReplay {
                from: CubId(2),
                states: Arc::from(Vec::<ViewerState>::new()),
            },
            Message::RetiredReplay {
                from: CubId(2),
                states: vec![
                    vs(3, 8, StreamKind::Primary),
                    vs(4, 14, StreamKind::Primary),
                ]
                .into(),
            },
            Message::FailureNotice { failed: CubId(3) },
            Message::StreamData {
                instance: inst(12, 0),
                block: 88,
                piece: None,
                total_pieces: 1,
                bytes: 250_000,
            },
            Message::StreamData {
                instance: inst(12, 0),
                block: 88,
                piece: Some(1),
                total_pieces: 2,
                bytes: 125_000,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_byte_equal() {
        for msg in exemplars() {
            let line = encode(&msg);
            let back = decode(&line).unwrap_or_else(|| panic!("line failed to decode: {line}"));
            assert_eq!(msg, back, "decode diverged for {line}");
            assert_eq!(encode(&back), line, "re-encode not byte-equal for {line}");
        }
    }

    #[test]
    fn exemplars_cover_every_variant() {
        // Compile-time-ish completeness check: the match below fails to
        // build if a variant is added, and the assert fails if an exemplar
        // for it is missing above.
        let tag = |m: &Message| match m {
            Message::ViewerState(_) => 0usize,
            Message::ViewerStates(_) => 1,
            Message::Deschedule { .. } => 2,
            Message::StartRequest { .. } => 3,
            Message::RoutedStart { .. } => 4,
            Message::InsertCommitted { .. } => 5,
            Message::StopRequest { .. } => 6,
            Message::ViewerFinished { .. } => 7,
            Message::DeadmanPing { .. } => 8,
            Message::RejoinRequest { .. } => 9,
            Message::RejoinAck { .. } => 10,
            Message::RetiredReplay { .. } => 11,
            Message::FailureNotice { .. } => 12,
            Message::StreamData { .. } => 13,
        };
        let mut seen = [false; 14];
        for m in exemplars() {
            seen[tag(&m)] = true;
        }
        assert!(seen.iter().all(|&s| s), "missing exemplar: {seen:?}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "NOPE 1",
            "VS",
            "VS 1,2,3",
            "PING",
            "PING x",
            "PING 1 trailing",
            "RACK 0",
            "RACK 0 1,,2",
            "RPLY",
            "RPLY 0 1,2,3",
            "DESCH 1,0 5",
            "DATA 1,0 88 ? 1 10",
            "ROUTED 1 2,0 3 0 5 2",
            "VS 1,2,3,4,5,6,7,8,P,extra",
        ] {
            assert!(decode(bad).is_none(), "accepted malformed line: {bad:?}");
        }
    }

    #[test]
    fn newline_free_encoding() {
        for msg in exemplars() {
            let line = encode(&msg);
            assert!(
                !line.contains('\n') && !line.is_empty(),
                "wire lines must be single non-empty lines: {line:?}"
            );
        }
    }
}
