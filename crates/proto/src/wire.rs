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
//! PING <from> <life>
//! REJOIN <from> <life>
//! RACK <from> <c,c,...|->                  failure beliefs ('-' = none)
//! RPLY <from> <vs> <vs> ...                retired-log replay (may be empty)
//! NOTICE <failed> <life>
//! DATA <viewer>,<inc> <block> <piece|-> <total> <bytes>
//! ```
//!
//! where `<vs>` is one comma-joined token
//! `viewer,inc,client,file,position,slot,play_seq,bitrate_bps,kind` and
//! `kind` is `P` (primary), `M:<failed-disk>:<piece>` (mirror) or
//! `C:<home-disk>:<shard>` (coded).
//!
//! The grammar is the spec; the `wire_messages!` table is its one
//! declaration in code. A row names a variant's tag and fields in line
//! order; each field type's `Field` impl writes and reads its tokens.
//!
//! The format is *lossless*: [`decode`] inverts [`encode`] exactly, and
//! accepts only what [`encode`] writes — a line that would re-encode to
//! other bytes (a leading zero, a sign, a doubled space) is rejected. The
//! round-trip tests below and the byte pins in `tests/wire.rs` are the
//! gate a message must pass before it may cross a real socket (`tiger-rt`).

use std::fmt::Write;
use std::str::{Split, SplitAsciiWhitespace};
use std::sync::Arc;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, DiskId, FileId, ViewerId};
use tiger_sched::{Deschedule, SlotId, StreamKind, ViewerState};
use tiger_sim::{Bandwidth, SimTime};

use crate::msg::Message;

type Tokens<'a> = SplitAsciiWhitespace<'a>;

/// One field of a message line.
trait Field: Sized {
    /// Appends the field: each of its tokens after one space.
    fn put(&self, s: &mut String);
    /// Takes the field from the line's remaining tokens. What follows a
    /// field's parts is left to [`decode`]'s comparison to reject.
    fn take(t: &mut Tokens) -> Option<Self>;
}

fn num<T: std::str::FromStr>(part: Option<&str>) -> Option<T> {
    part?.parse().ok()
}

/// One decimal token: a number, an id newtype's raw value, a [`SimTime`]
/// in nanoseconds, or a `bool` as `0` or `1` (a decoded `2` re-encodes as
/// `1`, so [`decode`] refuses it).
macro_rules! decimal_fields {
    ($($ty:ty as $raw:ty: $to:expr, $from:expr;)*) => {$(
        impl Field for $ty {
            fn put(&self, s: &mut String) {
                let _ = write!(s, " {}", $to(*self));
            }
            fn take(t: &mut Tokens) -> Option<Self> {
                num::<$raw>(t.next()).map($from)
            }
        }
    )*};
}
decimal_fields! {
    u32 as u32: u32::from, u32::from;
    u64 as u64: u64::from, u64::from;
    CubId as u32: CubId::raw, CubId;
    FileId as u32: FileId::raw, FileId;
    SlotId as u32: SlotId::raw, SlotId;
    SimTime as u64: SimTime::as_nanos, SimTime::from_nanos;
    bool as u8: u8::from, |n| n != 0;
}

/// `<viewer>,<inc>`.
impl Field for ViewerInstance {
    fn put(&self, s: &mut String) {
        let _ = write!(s, " {},{}", self.viewer.0, self.incarnation);
    }
    fn take(t: &mut Tokens) -> Option<Self> {
        instance(&mut t.next()?.split(','))
    }
}

/// Takes `<viewer>,<inc>` from a token's comma-separated parts.
fn instance(p: &mut Split<char>) -> Option<ViewerInstance> {
    Some(ViewerInstance {
        viewer: ViewerId(num(p.next())?),
        incarnation: num(p.next())?,
    })
}

/// `<viewer>,<inc> <slot>`.
impl Field for Deschedule {
    fn put(&self, s: &mut String) {
        self.instance.put(s);
        self.slot.put(s);
    }
    fn take(t: &mut Tokens) -> Option<Self> {
        Some(Deschedule {
            instance: Field::take(t)?,
            slot: Field::take(t)?,
        })
    }
}

/// One `<vs>` token.
impl Field for ViewerState {
    fn put(&self, s: &mut String) {
        self.instance.put(s);
        let (file, pos, slot) = (self.file.0, self.position.0, self.slot.0);
        let (client, seq, bps) = (self.client, self.play_seq, self.bitrate.bits_per_sec());
        let _ = write!(s, ",{client},{file},{pos},{slot},{seq},{bps},");
        let _ = match self.kind {
            StreamKind::Primary => write!(s, "P"),
            StreamKind::Mirror { failed_disk, piece } => write!(s, "M:{}:{piece}", failed_disk.0),
            StreamKind::Coded { home_disk, shard } => write!(s, "C:{}:{shard}", home_disk.0),
        };
    }
    fn take(t: &mut Tokens) -> Option<Self> {
        // Struct fields evaluate in the order written, which is the
        // token's part order.
        let mut p = t.next()?.split(',');
        Some(ViewerState {
            instance: instance(&mut p)?,
            client: num(p.next())?,
            file: FileId(num(p.next())?),
            position: BlockNum(num(p.next())?),
            slot: SlotId(num(p.next())?),
            play_seq: num(p.next())?,
            bitrate: Bandwidth::from_bits_per_sec(num(p.next())?),
            kind: kind(p.next())?,
        })
    }
}

/// `P`, `M:<failed-disk>:<piece>` or `C:<home-disk>:<shard>`.
fn kind(part: Option<&str>) -> Option<StreamKind> {
    let mut k = part?.split(':');
    match (k.next()?, num(k.next()).map(DiskId), num(k.next())) {
        ("P", None, None) => Some(StreamKind::Primary),
        ("M", Some(failed_disk), Some(piece)) => Some(StreamKind::Mirror { failed_disk, piece }),
        ("C", Some(home_disk), Some(shard)) => Some(StreamKind::Coded { home_disk, shard }),
        _ => None,
    }
}

/// `-` for `None`.
impl Field for Option<u32> {
    fn put(&self, s: &mut String) {
        match self {
            Some(n) => n.put(s),
            None => s.push_str(" -"),
        }
    }
    fn take(t: &mut Tokens) -> Option<Self> {
        match t.next()? {
            "-" => Some(None),
            tok => num(Some(tok)).map(Some),
        }
    }
}

/// A comma list, or `-` when empty.
impl Field for Arc<[u32]> {
    fn put(&self, s: &mut String) {
        s.push_str(if self.is_empty() { " -" } else { " " });
        for (i, c) in self.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(s, "{sep}{c}");
        }
    }
    fn take(t: &mut Tokens) -> Option<Self> {
        match t.next()? {
            "-" => Some([].into()),
            list => list.split(',').map(|c| num(Some(c))).collect(),
        }
    }
}

/// The rest of the line, one `<vs>` token a record.
impl Field for Arc<[ViewerState]> {
    fn put(&self, s: &mut String) {
        for vs in self.iter() {
            vs.put(s);
        }
    }
    fn take(t: &mut Tokens) -> Option<Self> {
        t.map(|vs| Field::take(&mut vs.split_ascii_whitespace()))
            .collect()
    }
}

/// The message table: `tag => Variant (field)` or
/// `tag => Variant { field, ... }`, fields in line order. Generates
/// [`encode`] and [`decode_tokens`].
macro_rules! wire_messages {
    ($($tag:literal => $variant:ident $fields:tt,)*) => {
        /// Encodes a message as one wire line (no trailing newline).
        pub fn encode(msg: &Message) -> String {
            let mut s = String::new();
            match msg {
                $(Message::$variant $fields => {
                    s.push_str($tag);
                    wire_messages!(@put s $fields);
                })*
            }
            s
        }

        /// Reads a line's fields; [`decode`] rejects what they leave unread.
        fn decode_tokens(line: &str) -> Option<Message> {
            let mut t = line.split_ascii_whitespace();
            match t.next()? {
                $($tag => {
                    wire_messages!(@take t $fields);
                    Some(Message::$variant $fields)
                })*
                _ => None,
            }
        }
    };
    (@put $s:ident ($($f:ident),*)) => { $(Field::put($f, &mut $s);)* };
    (@put $s:ident {$($f:ident),*}) => { $(Field::put($f, &mut $s);)* };
    (@take $t:ident ($($f:ident),*)) => { $(let $f = Field::take(&mut $t)?;)* };
    (@take $t:ident {$($f:ident),*}) => { $(let $f = Field::take(&mut $t)?;)* };
}

wire_messages! {
    "VS" => ViewerState(vs),
    "VSB" => ViewerStates(batch),
    "DESCH" => Deschedule { request, hops_left },
    "START" => StartRequest { client, instance, file, from_block, requested_at },
    "ROUTED" => RoutedStart { client, instance, file, from_block, requested_at, redundant },
    "COMMIT" => InsertCommitted { instance, slot, file, first_send },
    "STOP" => StopRequest { instance },
    "FIN" => ViewerFinished { instance },
    "PING" => DeadmanPing { from, life },
    "REJOIN" => RejoinRequest { from, life },
    "RACK" => RejoinAck { from, failed },
    "RPLY" => RetiredReplay { from, states },
    "NOTICE" => FailureNotice { failed, life },
    "DATA" => StreamData { instance, block, piece, total_pieces, bytes },
}

/// Decodes one wire line; `None` on any malformation, and on any line
/// [`encode`] would not have written.
pub fn decode(line: &str) -> Option<Message> {
    let msg = decode_tokens(line)?;
    (encode(&msg) == line).then_some(msg)
}

/// One message per [`Message`] variant, plus the interesting interior
/// shapes (empty batch, each stream kind, empty failed list, `None`
/// piece): the round-trip tests' inputs, and the seeds the decoder
/// mutation property in `tests/properties.rs` mutates.
pub fn exemplars() -> Vec<Message> {
    let inst = |v: u64, inc: u32| ViewerInstance {
        viewer: ViewerId(v),
        incarnation: inc,
    };
    let vs = |viewer: u64, slot: u32, kind: StreamKind| ViewerState {
        instance: inst(viewer, 3),
        client: 11,
        file: FileId(2),
        position: BlockNum(417),
        slot: SlotId(slot),
        play_seq: 42,
        bitrate: Bandwidth::from_mbit_per_sec(2),
        kind,
    };
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
        Message::DeadmanPing {
            from: CubId(2),
            life: 3,
        },
        Message::RejoinRequest {
            from: CubId(1),
            life: 2,
        },
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
        Message::FailureNotice {
            failed: CubId(3),
            life: 1,
        },
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

#[cfg(test)]
mod tests {
    use super::*;

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
            // Parse, but are not what `encode` writes.
            "PING 01",
            "PING +1",
            "PING  1",
            "RACK 0 +1,02",
            "VS 7,3,11,2,417,19,42,2000000,M:05:1",
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
