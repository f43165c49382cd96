//! Viewer-state and deschedule records (paper §4.1.1–§4.1.2).
//!
//! "A viewer state contains the address of the viewer, the file being
//! played, the viewer's position in the file, the schedule slot number, the
//! play sequence number (how far the viewer has gotten into the current
//! play request), and some other bookkeeping information."
//!
//! Receiving either record type is idempotent; a deschedule's semantics are
//! "If this instance of viewer is in this schedule slot, remove the
//! viewer."

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, DiskId, FileId, ViewerId};
use tiger_sim::Bandwidth;

use crate::params::SlotId;

/// Whether a schedule entry describes primary service or failed-mode mirror
/// service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Normal service from primary copies.
    Primary,
    /// Mirror service: this entry describes sending piece `piece` of each
    /// block that the failed disk would have served (§4.1.1, mirror viewer
    /// states).
    Mirror {
        /// The failed disk being covered.
        failed_disk: DiskId,
        /// Which declustered piece this entry's holder sends.
        piece: u32,
    },
    /// Coded-shard service (the `tiger-coded` backend): this entry
    /// describes sending shard `shard` of each block homed on
    /// `home_disk`. Unlike mirror service, coded entries also appear in
    /// *healthy* operation — every block is assembled from `k` of its
    /// `2k` shards, and the home's coordinator picks the holders.
    Coded {
        /// The disk the block is homed on (shard 0's disk).
        home_disk: DiskId,
        /// Which coded shard this entry's holder sends (`1..2k`; shard 0
        /// is served by the home's own Primary entry).
        shard: u32,
    },
}

/// A viewer-state record: the unit of schedule information passed around
/// the ring of cubs.
///
/// The paper's record is ~100 bytes on the wire; [`ViewerState::WIRE_BYTES`]
/// is used by the network model for the control-traffic metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewerState {
    /// The viewer play-request instance this entry serves.
    pub instance: ViewerInstance,
    /// Network node id of the viewer's client machine.
    pub client: u32,
    /// The file being played.
    pub file: FileId,
    /// The next block of the file to send.
    pub position: BlockNum,
    /// The schedule slot the viewer occupies.
    pub slot: SlotId,
    /// How many blocks of the current play request have been scheduled
    /// ("how far the viewer has gotten into the current play request").
    pub play_seq: u32,
    /// The stream's bitrate (equal to the system rate in a single-bitrate
    /// server).
    pub bitrate: Bandwidth,
    /// Primary or mirror service.
    pub kind: StreamKind,
}

impl ViewerState {
    /// Wire size of a viewer-state message (§3.3: "about the size of the
    /// comparable message sent from cub to cub … 100 bytes").
    pub const WIRE_BYTES: u64 = 100;

    /// The `(slot, viewer, incarnation)` triple most trace events carry.
    #[inline]
    pub fn trace_key(&self) -> (u32, u64, u32) {
        let i = self.instance;
        (self.slot.raw(), i.viewer.raw(), i.incarnation)
    }

    /// Whether `self` carries the same or newer information than `other`
    /// for the same (slot, instance, kind) — the idempotence/duplicate
    /// test: "Receiving a viewer state is idempotent: Duplicates are
    /// ignored."
    pub fn supersedes(&self, other: &ViewerState) -> bool {
        self.slot == other.slot
            && self.instance == other.instance
            && self.kind == other.kind
            && self.play_seq >= other.play_seq
    }

    /// The record advanced by `n` blocks (as the next disks in the ring
    /// will see it).
    pub fn advanced(&self, n: u32) -> ViewerState {
        ViewerState {
            position: BlockNum(self.position.raw() + n),
            play_seq: self.play_seq + n,
            ..*self
        }
    }
}

/// A primary [`ViewerState`] as a cub's tables keep it: the record without
/// its kind, which is always [`StreamKind::Primary`], and with
/// [`ViewerInstance`]'s padding folded away, 40 bytes against 56. Built
/// only from a primary record, and [`PrimaryRecord::vs`] gives it back
/// exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrimaryRecord {
    viewer: ViewerId,
    incarnation: u32,
    client: u32,
    file: FileId,
    position: BlockNum,
    slot: SlotId,
    play_seq: u32,
    bitrate: Bandwidth,
}

const _: () = assert!(std::mem::size_of::<PrimaryRecord>() == 40);

impl PrimaryRecord {
    /// `vs` without its kind; `None` unless it is a primary record.
    #[inline]
    pub fn new(vs: &ViewerState) -> Option<Self> {
        matches!(vs.kind, StreamKind::Primary).then_some(PrimaryRecord {
            viewer: vs.instance.viewer,
            incarnation: vs.instance.incarnation,
            client: vs.client,
            file: vs.file,
            position: vs.position,
            slot: vs.slot,
            play_seq: vs.play_seq,
            bitrate: vs.bitrate,
        })
    }

    /// The record it was built from.
    #[inline]
    pub fn vs(&self) -> ViewerState {
        ViewerState {
            instance: self.instance(),
            client: self.client,
            file: self.file,
            position: self.position,
            slot: self.slot,
            play_seq: self.play_seq,
            bitrate: self.bitrate,
            kind: StreamKind::Primary,
        }
    }

    /// [`ViewerState::instance`].
    #[inline]
    pub fn instance(&self) -> ViewerInstance {
        ViewerInstance {
            viewer: self.viewer,
            incarnation: self.incarnation,
        }
    }

    /// [`ViewerState::slot`].
    #[inline]
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// [`ViewerState::play_seq`].
    #[inline]
    pub fn play_seq(&self) -> u32 {
        self.play_seq
    }
}

/// A deschedule request (§4.1.2): "If this instance of viewer is in this
/// schedule slot, remove the viewer."
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Deschedule {
    /// The viewer instance to remove.
    pub instance: ViewerInstance,
    /// The slot it is believed to occupy.
    pub slot: SlotId,
}

impl Deschedule {
    /// Wire size of a deschedule message.
    pub const WIRE_BYTES: u64 = 40;

    /// The one deschedule that kills `vs`: `d.matches(vs)` exactly when
    /// `d == Deschedule::of(vs)`, which is what lets a set of held
    /// deschedules be probed by key instead of scanned.
    pub fn of(vs: &ViewerState) -> Self {
        Deschedule {
            instance: vs.instance,
            slot: vs.slot,
        }
    }

    /// Whether this deschedule kills the given viewer state.
    ///
    /// A mirror viewer state derives from the same instance/slot, so the
    /// deschedule kills it too (when a viewer stops, failed-mode service
    /// for it must also stop).
    pub fn matches(&self, vs: &ViewerState) -> bool {
        self.instance == vs.instance && self.slot == vs.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(slot: u32, viewer: u64, incarnation: u32, play_seq: u32) -> ViewerState {
        ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(viewer),
                incarnation,
            },
            client: 7,
            file: FileId(3),
            position: BlockNum(play_seq),
            slot: SlotId(slot),
            play_seq,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        }
    }

    #[test]
    fn supersedes_requires_same_identity() {
        let a = vs(5, 1, 0, 10);
        assert!(a.supersedes(&vs(5, 1, 0, 10)), "exact duplicate");
        assert!(a.supersedes(&vs(5, 1, 0, 9)), "newer play_seq");
        assert!(!a.supersedes(&vs(5, 1, 0, 11)), "older play_seq");
        assert!(!a.supersedes(&vs(6, 1, 0, 10)), "different slot");
        assert!(!a.supersedes(&vs(5, 2, 0, 10)), "different viewer");
        assert!(!a.supersedes(&vs(5, 1, 1, 10)), "different incarnation");
    }

    #[test]
    fn mirror_and_primary_records_are_distinct() {
        let a = vs(5, 1, 0, 10);
        let mut m = a;
        m.kind = StreamKind::Mirror {
            failed_disk: DiskId(9),
            piece: 2,
        };
        assert!(!a.supersedes(&m));
        assert!(!m.supersedes(&a));
        assert!(m.supersedes(&m.clone()));
    }

    #[test]
    fn advanced_moves_position_and_seq() {
        let a = vs(5, 1, 0, 10);
        let b = a.advanced(3);
        assert_eq!(b.position, BlockNum(13));
        assert_eq!(b.play_seq, 13);
        assert_eq!(b.slot, a.slot);
        assert!(b.supersedes(&a));
    }

    #[test]
    fn deschedule_matches_instance_and_slot_only() {
        let a = vs(5, 1, 0, 10);
        let d = Deschedule {
            instance: a.instance,
            slot: SlotId(5),
        };
        assert!(d.matches(&a));
        assert!(d.matches(&a.advanced(4)), "matches any play_seq");
        let mut m = a;
        m.kind = StreamKind::Mirror {
            failed_disk: DiskId(9),
            piece: 0,
        };
        assert!(d.matches(&m), "kills derived mirror entries too");
        assert!(!d.matches(&vs(6, 1, 0, 10)), "wrong slot");
        assert!(!d.matches(&vs(5, 1, 1, 10)), "wrong incarnation");
        for other in [a, m, vs(6, 1, 0, 10), vs(5, 1, 1, 10), vs(5, 2, 0, 10)] {
            assert_eq!(d.matches(&other), d == Deschedule::of(&other));
        }
    }
}
