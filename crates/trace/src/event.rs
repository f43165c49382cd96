//! The trace event vocabulary and its on-disk line format.
//!
//! Events carry primitive fields (`u32`/`u64`/`bool`) rather than the
//! layout/sched newtypes so that `tiger-trace` sits below every protocol
//! crate in the dependency graph; call sites convert with `.raw()`. The
//! field names keep the protocol vocabulary (`slot`, `viewer`, `inc`,
//! `disk`) so dumps read like the paper.
//!
//! A dump is plain text, one [`TraceRecord`] per line:
//!
//! ```text
//! <seq> <at-nanos> c<cub> <event-name> <key>=<value> ...
//! ```
//!
//! with `ctrl` in place of `c<cub>` for controller-side events
//! ([`CTRL`]). Lines starting with `#` are comments. The format is
//! lossless: [`TraceRecord::parse_line`] inverts [`TraceRecord::to_line`]
//! exactly and accepts nothing else, which is what lets `trace_timeline`
//! re-render and diff dumps long after the run that produced them.

use std::fmt::Write as _;

use tiger_sim::kv::clauses;
use tiger_sim::SimTime;

/// Pseudo cub id for events recorded by the controller (which is not a
/// cub but participates in the protocol: start routing, deschedule
/// fan-out). Rendered as `ctrl` in dumps.
pub const CTRL: u32 = u32::MAX;

/// Field value conversion for the wire format: every event field is one
/// of `u32`/`u64`/`bool`, carried as a decimal `u64` in dump lines
/// (`bool` as `0`/`1`). A raw value that does not fit its field decodes
/// to `None`, so every accepted line re-encodes to itself.
trait Field: Copy {
    fn into_raw(self) -> u64;
    fn from_raw(v: u64) -> Option<Self>;
}

impl Field for u64 {
    fn into_raw(self) -> u64 {
        self
    }
    fn from_raw(v: u64) -> Option<Self> {
        Some(v)
    }
}

impl Field for u32 {
    fn into_raw(self) -> u64 {
        u64::from(self)
    }
    fn from_raw(v: u64) -> Option<Self> {
        u32::try_from(v).ok()
    }
}

impl Field for bool {
    fn into_raw(self) -> u64 {
        u64::from(self)
    }
    fn from_raw(v: u64) -> Option<Self> {
        match v {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

macro_rules! trace_events {
    ($(
        $(#[$meta:meta])*
        $variant:ident => $name:literal { $( $field:ident : $ty:ty ),* $(,)? },
    )*) => {
        /// One structured protocol event. See the variant docs for which
        /// handler records each; the kebab-case name after `=>` in the
        /// source is the wire name used in dump lines.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$meta])* $variant { $( $field: $ty ),* }, )*
        }

        impl TraceEvent {
            /// The wire name (kebab-case) of this event.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $name, )*
                }
            }

            /// The event's fields as `(key, raw value)` pairs, in
            /// declaration order (which is the dump-line order).
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                match *self {
                    $( TraceEvent::$variant { $( $field ),* } => {
                        vec![ $( (stringify!($field), Field::into_raw($field)) ),* ]
                    } )*
                }
            }

            /// Rebuilds an event from its wire name and `(key, value)`
            /// pairs; `None` if the name is unknown, a field is absent, or
            /// a value does not fit its field.
            fn from_parts(name: &str, fields: &[(&str, u64)]) -> Option<TraceEvent> {
                let get = |key: &str| fields.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                match name {
                    $( $name => Some(TraceEvent::$variant {
                        $( $field: Field::from_raw(get(stringify!($field))?)? ),*
                    }), )*
                    _ => None,
                }
            }
        }
    };
}

trace_events! {
    /// A forward-pass batch of viewer states sent to the ring successor
    /// (`second` = the redundant second-successor copy of §4.1.1).
    VsForward => "vs-forward" { dst: u32, count: u32, second: bool },
    /// First sighting of a viewer state: accepted into the schedule view.
    VsAccept => "vs-accept" { slot: u32, viewer: u64, inc: u32, play_seq: u32, position: u64 },
    /// A viewer state that arrived again (double-forwarding) and was
    /// dropped idempotently.
    VsDuplicate => "vs-duplicate" { slot: u32, viewer: u64, inc: u32, play_seq: u32 },
    /// A viewer state refused because a deschedule hold covers its slot.
    VsBlocked => "vs-blocked" { slot: u32, viewer: u64, inc: u32 },
    /// A viewer state retained as shadow state only (not locally served).
    VsShadow => "vs-shadow" { slot: u32, viewer: u64, inc: u32 },
    /// A viewer state refused because another instance owns the slot.
    VsConflict => "vs-conflict" { slot: u32, viewer: u64, inc: u32 },
    /// A viewer state discarded as too old to be useful (outside the
    /// vstate lead window).
    VsLate => "vs-late" { slot: u32, viewer: u64, inc: u32, play_seq: u32 },
    /// A deschedule applied: `first` = first time this cub saw it,
    /// `killed` = active services it terminated, `hops_left` = remaining
    /// ring forwards.
    DeschedApply => "desched-apply" { slot: u32, viewer: u64, inc: u32, first: bool, killed: u32, hops_left: u32 },
    /// A deschedule hold aged out of the view (hold expiry, §4.1.2).
    DeschedExpire => "desched-expire" { slot: u32, viewer: u64, inc: u32 },
    /// An insert attempt that found a free owned slot and committed.
    InsertCommit => "insert-commit" { slot: u32, viewer: u64, inc: u32, disk: u32 },
    /// An insert attempt that found no free owned slot in its window.
    InsertMiss => "insert-miss" { viewer: u64, inc: u32, disk: u32 },
    /// A deadman ping sent to the ring successor.
    DeadmanPing => "deadman-ping" { to: u32 },
    /// A deadman check that declared the predecessor failed after
    /// `silence_ns` of silence (strictly greater than the timeout).
    DeadmanDeclare => "deadman-declare" { failed: u32, silence_ns: u64 },
    /// A failure notice received (or self-originated) for a cub.
    FailureNotice => "failure-notice" { failed: u32 },
    /// This cub, as acting successor, took over schedule ownership from
    /// a failed cub.
    MirrorTakeover => "mirror-takeover" { failed_cub: u32 },
    /// A mirror viewer state fabricated to cover a failed disk's slot.
    MirrorCreate => "mirror-create" { slot: u32, viewer: u64, inc: u32, failed_disk: u32 },
    /// A mirror viewer state accepted for service of a declustered piece.
    MirrorAccept => "mirror-accept" { slot: u32, viewer: u64, inc: u32, piece: u32 },
    /// Coded-backend repair: the acting successor re-drove a dead home's
    /// slot by choosing `k` surviving shard holders (any-k-of-2k decode
    /// replaces the fixed mirror-partner lookup).
    CodedRepair => "coded-repair" { slot: u32, viewer: u64, inc: u32, failed_disk: u32 },
    /// A coded shard served while the block's home cub is believed
    /// failed — the degraded-read path of the coded backend.
    DegradedPieceRead => "degraded-piece-read" { slot: u32, viewer: u64, inc: u32, shard: u32 },
    /// A block read issued to a disk.
    DiskIssue => "disk-issue" { slot: u32, viewer: u64, inc: u32, disk: u32 },
    /// A block read completed.
    DiskDone => "disk-done" { slot: u32, viewer: u64, inc: u32 },
    /// A network send came due (`ok` = the block was ready in buffer).
    SendDue => "send-due" { slot: u32, viewer: u64, inc: u32, ok: bool },
    /// A network send completed.
    SendDone => "send-done" { slot: u32, viewer: u64, inc: u32 },
    /// Controller routed a start request (`redundant` = `u32::MAX` when
    /// no second copy was sent).
    CtrlRouteStart => "ctrl-route-start" { viewer: u64, inc: u32, primary: u32, redundant: u32 },
    /// Controller launched a deschedule toward the owning cub.
    CtrlRouteDesched => "ctrl-route-desched" { viewer: u64, inc: u32, slot: u32, target: u32 },
    /// A cub was power-cut by the simulation (fault injection).
    PowerCut => "power-cut" { cub: u32 },
    /// Fault injection dropped a message on the `src -> dst` link
    /// (`partition` = a scheduled cut, not a probabilistic loss).
    NetDrop => "net-drop" { src: u32, dst: u32, partition: bool },
    /// Fault injection delayed a message by `extra_ns` beyond its sampled
    /// latency.
    NetDelay => "net-delay" { src: u32, dst: u32, extra_ns: u64 },
    /// Fault injection delivered a control message twice.
    NetDup => "net-dup" { src: u32, dst: u32 },
    /// Fault injection failed one disk read transiently (the disk stays
    /// alive; the block is covered by mirror/failover accounting).
    DiskTransient => "disk-transient" { slot: u32, viewer: u64, inc: u32, disk: u32 },
    /// Fault injection killed one disk for good — distinct from a cub
    /// power-cut: the cub keeps running and pinging.
    DiskDeath => "disk-death" { cub: u32, disk: u32 },
    /// Fault injection froze a cub: it processes nothing until resume.
    CubFreeze => "cub-freeze" { cub: u32 },
    /// A frozen cub resumed and works through its deferred events.
    CubResume => "cub-resume" { cub: u32 },
    /// A cub that learned it was declared dead while stalled fenced
    /// itself off (its streams are already covered by the successor).
    CubFenced => "cub-fenced" { cub: u32 },
    /// A windowed fault clause (link/partition/disk window) opened.
    FaultStart => "fault-start" { clause: u32 },
    /// A windowed fault clause closed (partitions heal here).
    FaultEnd => "fault-end" { clause: u32 },
    /// A failed/fenced cub restarted with empty schedule state and began
    /// the rejoin protocol.
    CubRestart => "cub-restart" { cub: u32 },
    /// A neighbor granted `count` schedule records to a rejoining cub
    /// (the bounded-view exchange of the rejoin protocol).
    RejoinGrant => "rejoin-grant" { to: u32, count: u32 },
    /// A rejoined cub sent its first primary block: its schedule slice is
    /// warm again and mirror catch-up may end.
    RejoinDone => "rejoin-done" { cub: u32 },
    /// A ring predecessor replayed `count` retired-log tail entries to a
    /// rejoining cub (`to`), advanced to their next due positions — the
    /// sub-interval rejoin path (§2.3 gap bridging applied to rejoin).
    RetiredReplay => "retired-replay" { to: u32, count: u32 },
    /// A live restripe began executing `moves` background block moves.
    RestripeStart => "restripe-start" { moves: u32 },
    /// A restripe pass found every remaining move blocked (dead or
    /// partitioned endpoints); `pending` moves wait for recovery.
    RestripeStall => "restripe-stall" { pending: u32 },
    /// All moves committed: the system cut over to the new stripe layout
    /// after moving `moved` blocks.
    RestripeCutover => "restripe-cutover" { moved: u32 },
    /// A shrink drain finished for one departing cub: all `moved` of its
    /// primary blocks have landed on survivors via the mirror lane.
    ShrinkDrain => "shrink-drain" { cub: u32, moved: u32 },
    /// A drained cub was fenced out of the stripe at shrink cut-over and
    /// returned to the spare pool.
    ShrinkFence => "shrink-fence" { cub: u32 },
    /// A registered spare finished absorbing all `count` shadow copies of
    /// one exposed decluster span — the mirror pieces of index `piece`
    /// homed on failed `disk` — and now serves that span as interim
    /// mirror capacity while awaiting cut-over. Traced per span, not per
    /// disk: spans whose surviving source died mid-copy park forever.
    SpareShadow => "spare-shadow" { spare: u32, disk: u32, piece: u32, count: u32 },
    /// A workload plan's flash crowd reached its onset: demand on `title`
    /// surges to `peak_x10`/10 × its base rate (recorded by the workload
    /// driver, not the system — a timeline marker for correlating churn).
    WorkgenBurst => "workgen-burst" { title: u32, peak_x10: u32 },
    /// A viewer's session machine restarted delivery: `kind` 1 = resume
    /// after a pause (at the high-water mark), 2 = seek. `to_block` is
    /// where the new incarnation `inc` starts.
    SessionTransition => "session-transition" { viewer: u64, inc: u32, kind: u32, to_block: u32 },
}

/// One recorded event: global ring sequence number, simulation time, and
/// the cub (or [`CTRL`]) that recorded it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic per-run sequence number (survives ring wraparound, so
    /// gaps in a dump reveal how many events were dropped).
    pub seq: u64,
    /// Simulation time of the event.
    pub at: SimTime,
    /// Recording cub, or [`CTRL`].
    pub cub: u32,
    /// The event itself.
    pub ev: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one dump line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{} {} ", self.seq, self.at.as_nanos());
        if self.cub == CTRL {
            s.push_str("ctrl");
        } else {
            let _ = write!(s, "c{}", self.cub);
        }
        let _ = write!(s, " {}", self.ev.name());
        for (k, v) in self.ev.fields() {
            let _ = write!(s, " {k}={v}");
        }
        s
    }

    /// Parses one dump line; `None` on any malformation, and on any line
    /// [`TraceRecord::to_line`] would not have written (a leading zero, a
    /// field out of order, twice or unknown).
    pub fn parse_line(line: &str) -> Option<TraceRecord> {
        let mut it = line.split_ascii_whitespace();
        let seq = it.next()?.parse().ok()?;
        let at = SimTime::from_nanos(it.next()?.parse().ok()?);
        let cub_tok = it.next()?;
        let cub = if cub_tok == "ctrl" {
            CTRL
        } else {
            cub_tok.strip_prefix('c')?.parse().ok()?
        };
        let name = it.next()?;
        let mut fields = Vec::new();
        for kv in it {
            let (k, v) = kv.split_once('=')?;
            fields.push((k, v.parse().ok()?));
        }
        let ev = TraceEvent::from_parts(name, &fields)?;
        let rec = TraceRecord { seq, at, cub, ev };
        (rec.to_line() == line).then_some(rec)
    }
}

/// Parses a whole dump (as produced by `Tracer::dump`), skipping blank
/// and `#`-comment lines. Errors name the first offending line.
pub fn parse_dump(text: &str) -> Result<Vec<TraceRecord>, String> {
    clauses(text)
        .map(|(n, line)| {
            TraceRecord::parse_line(line)
                .ok_or_else(|| format!("unparseable trace line {n}: {line:?}"))
        })
        .collect()
}

/// One event of every kind, each with the cub that records it: the
/// round-trip tests' inputs, and the seeds the decoder mutation property
/// in `tests/properties.rs` mutates.
pub fn sample_events() -> Vec<(u32, TraceEvent)> {
    vec![
        (
            0,
            TraceEvent::VsForward {
                dst: 1,
                count: 3,
                second: false,
            },
        ),
        (
            1,
            TraceEvent::VsAccept {
                slot: 7,
                viewer: 4,
                inc: 0,
                play_seq: 2,
                position: 19,
            },
        ),
        (
            1,
            TraceEvent::VsDuplicate {
                slot: 7,
                viewer: 4,
                inc: 0,
                play_seq: 2,
            },
        ),
        (
            1,
            TraceEvent::VsBlocked {
                slot: 7,
                viewer: 4,
                inc: 1,
            },
        ),
        (
            2,
            TraceEvent::VsShadow {
                slot: 9,
                viewer: 5,
                inc: 0,
            },
        ),
        (
            2,
            TraceEvent::VsConflict {
                slot: 9,
                viewer: 6,
                inc: 0,
            },
        ),
        (
            2,
            TraceEvent::VsLate {
                slot: 9,
                viewer: 6,
                inc: 0,
                play_seq: 40,
            },
        ),
        (
            0,
            TraceEvent::DeschedApply {
                slot: 3,
                viewer: 4,
                inc: 0,
                first: true,
                killed: 1,
                hops_left: 5,
            },
        ),
        (
            0,
            TraceEvent::DeschedExpire {
                slot: 3,
                viewer: 4,
                inc: 0,
            },
        ),
        (
            3,
            TraceEvent::InsertCommit {
                slot: 11,
                viewer: 8,
                inc: 2,
                disk: 6,
            },
        ),
        (
            3,
            TraceEvent::InsertMiss {
                viewer: 8,
                inc: 2,
                disk: 6,
            },
        ),
        (0, TraceEvent::DeadmanPing { to: 1 }),
        (
            2,
            TraceEvent::DeadmanDeclare {
                failed: 1,
                silence_ns: 5_000_000_001,
            },
        ),
        (2, TraceEvent::FailureNotice { failed: 1 }),
        (2, TraceEvent::MirrorTakeover { failed_cub: 1 }),
        (
            2,
            TraceEvent::MirrorCreate {
                slot: 5,
                viewer: 4,
                inc: 0,
                failed_disk: 1,
            },
        ),
        (
            3,
            TraceEvent::MirrorAccept {
                slot: 5,
                viewer: 4,
                inc: 0,
                piece: 1,
            },
        ),
        (
            2,
            TraceEvent::CodedRepair {
                slot: 5,
                viewer: 4,
                inc: 0,
                failed_disk: 1,
            },
        ),
        (
            3,
            TraceEvent::DegradedPieceRead {
                slot: 5,
                viewer: 4,
                inc: 0,
                shard: 2,
            },
        ),
        (
            0,
            TraceEvent::DiskIssue {
                slot: 2,
                viewer: 4,
                inc: 0,
                disk: 0,
            },
        ),
        (
            0,
            TraceEvent::DiskDone {
                slot: 2,
                viewer: 4,
                inc: 0,
            },
        ),
        (
            0,
            TraceEvent::SendDue {
                slot: 2,
                viewer: 4,
                inc: 0,
                ok: true,
            },
        ),
        (
            0,
            TraceEvent::SendDone {
                slot: 2,
                viewer: 4,
                inc: 0,
            },
        ),
        (
            CTRL,
            TraceEvent::CtrlRouteStart {
                viewer: 4,
                inc: 0,
                primary: 0,
                redundant: u32::MAX,
            },
        ),
        (
            CTRL,
            TraceEvent::CtrlRouteDesched {
                viewer: 4,
                inc: 0,
                slot: 2,
                target: 0,
            },
        ),
        (CTRL, TraceEvent::PowerCut { cub: 1 }),
        (
            CTRL,
            TraceEvent::NetDrop {
                src: 1,
                dst: 3,
                partition: true,
            },
        ),
        (
            CTRL,
            TraceEvent::NetDelay {
                src: 1,
                dst: 0,
                extra_ns: 20_000_000,
            },
        ),
        (CTRL, TraceEvent::NetDup { src: 0, dst: 2 }),
        (
            2,
            TraceEvent::DiskTransient {
                slot: 4,
                viewer: 4,
                inc: 0,
                disk: 1,
            },
        ),
        (CTRL, TraceEvent::DiskDeath { cub: 2, disk: 1 }),
        (CTRL, TraceEvent::CubFreeze { cub: 0 }),
        (CTRL, TraceEvent::CubResume { cub: 0 }),
        (2, TraceEvent::CubFenced { cub: 2 }),
        (CTRL, TraceEvent::FaultStart { clause: 0 }),
        (CTRL, TraceEvent::FaultEnd { clause: 0 }),
        (CTRL, TraceEvent::CubRestart { cub: 1 }),
        (2, TraceEvent::RejoinGrant { to: 1, count: 12 }),
        (0, TraceEvent::RetiredReplay { to: 1, count: 5 }),
        (1, TraceEvent::RejoinDone { cub: 1 }),
        (CTRL, TraceEvent::RestripeStart { moves: 96 }),
        (CTRL, TraceEvent::RestripeStall { pending: 4 }),
        (CTRL, TraceEvent::RestripeCutover { moved: 96 }),
        (CTRL, TraceEvent::ShrinkDrain { cub: 5, moved: 48 }),
        (CTRL, TraceEvent::ShrinkFence { cub: 5 }),
        (
            CTRL,
            TraceEvent::SpareShadow {
                spare: 6,
                disk: 2,
                piece: 1,
                count: 24,
            },
        ),
        (
            CTRL,
            TraceEvent::WorkgenBurst {
                title: 7,
                peak_x10: 400,
            },
        ),
        (
            0,
            TraceEvent::SessionTransition {
                viewer: 4,
                inc: 1,
                kind: 2,
                to_block: 120,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips_through_the_line_format() {
        for (i, (cub, ev)) in sample_events().into_iter().enumerate() {
            let rec = TraceRecord {
                seq: i as u64,
                at: SimTime::from_nanos(1_000_000 * i as u64),
                cub,
                ev,
            };
            let line = rec.to_line();
            let back = TraceRecord::parse_line(&line)
                .unwrap_or_else(|| panic!("line failed to parse: {line}"));
            assert_eq!(rec, back, "round-trip diverged for {line}");
        }
    }

    #[test]
    fn controller_events_render_as_ctrl() {
        let rec = TraceRecord {
            seq: 9,
            at: SimTime::from_nanos(500),
            cub: CTRL,
            ev: TraceEvent::PowerCut { cub: 2 },
        };
        assert_eq!(rec.to_line(), "9 500 ctrl power-cut cub=2");
    }

    #[test]
    fn parse_dump_skips_comments_and_rejects_garbage() {
        let good = "# header\n\n0 100 c0 deadman-ping to=1\n";
        let recs = parse_dump(good).expect("good dump parses");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ev, TraceEvent::DeadmanPing { to: 1 });

        assert!(parse_dump("0 100 c0 no-such-event x=1").is_err());
        assert!(
            parse_dump("0 100 c0 deadman-ping").is_err(),
            "missing field"
        );
        assert!(parse_dump("not a trace").is_err());
        assert!(parse_dump("0 100 c0 vs-shadow slot=1 viewer=7 inc=0").is_ok());
        assert!(
            parse_dump("0 100 c0 vs-shadow slot=4294967297 viewer=7 inc=0").is_err(),
            "slot does not fit a u32"
        );
        assert!(parse_dump("0 100 c0 send-due slot=1 viewer=7 inc=0 ok=1").is_ok());
        assert!(
            parse_dump("0 100 c0 send-due slot=1 viewer=7 inc=0 ok=2").is_err(),
            "a bool is 0 or 1"
        );
        // Parse, but are not what `to_line` writes.
        for bad in [
            "0 100 c0 deadman-ping to=1 junk=5",
            "0 100 c0 deadman-ping to=1 to=2",
            "0 100 c0 vs-shadow inc=0 viewer=7 slot=1",
            "00 0100 c00 deadman-ping to=01",
        ] {
            assert!(parse_dump(bad).is_err(), "accepted {bad:?}");
        }
    }
}
