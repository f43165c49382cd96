//! Control-plane messages.
//!
//! Wire sizes are estimates used for the control-traffic metric of
//! Figures 8/9 (the paper cites ~100 bytes for a viewer-state message and
//! measured < 21 KB/s per cub at full load).

use std::sync::Arc;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, FileId};
use tiger_sched::{Deschedule, SlotId, ViewerState};
use tiger_sim::SimTime;

/// Fixed per-message framing overhead (headers), in bytes.
pub const FRAME_BYTES: u64 = 40;

/// A control-plane message between machines.
///
/// Messages travel the simulated network by value: every delivery event
/// owns its `Message`, and double-forwarding (§4.1.1) sends the same
/// payload to two receivers. The two viewer-state carriers are therefore
/// shaped for cheap cloning on the event-loop hot path: a single record
/// rides inline ([`Message::ViewerState`], no allocation at all) and a
/// batch rides behind an [`Arc`] (cloning the message for the second
/// forward is a refcount bump, not a `Vec` copy).
///
/// On a real transport the same messages travel as text lines; see
/// [`crate::wire`] for the lossless encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A single viewer-state record (the mirror-chain and redundant-start
    /// paths forward one record at a time).
    ViewerState(ViewerState),
    /// A batch of viewer-state records, grouped per §4.1.1 to reduce
    /// communications overhead.
    ViewerStates(Arc<[ViewerState]>),
    /// A deschedule request with its remaining propagation hops.
    Deschedule {
        /// The request itself.
        request: Deschedule,
        /// Ring hops left before the request is "more than maxVStateLead in
        /// front of the slot" and stops propagating.
        hops_left: u32,
    },
    /// A client asks the controller to start playing `file`.
    StartRequest {
        /// The requesting client's network node id.
        client: u32,
        /// The viewer instance (allocated by the client).
        instance: ViewerInstance,
        /// The file to play.
        file: FileId,
        /// First block to play (0 for the beginning; a seek or resume
        /// starts mid-file).
        from_block: u32,
        /// When the client issued the request (for latency measurement).
        requested_at: SimTime,
    },
    /// The controller routes a start to the cub holding the first block
    /// (`redundant = false`) and its successor (`redundant = true`).
    RoutedStart {
        /// The requesting client's network node id.
        client: u32,
        /// The viewer instance.
        instance: ViewerInstance,
        /// The file to play.
        file: FileId,
        /// First block to play.
        from_block: u32,
        /// When the client issued the request.
        requested_at: SimTime,
        /// Whether the receiver is the redundant (successor) holder.
        redundant: bool,
    },
    /// A cub tells the controller a viewer was committed into a slot
    /// (the controller needs the slot to route a later deschedule).
    InsertCommitted {
        /// The committed viewer instance.
        instance: ViewerInstance,
        /// The slot it occupies.
        slot: SlotId,
        /// The file being played.
        file: FileId,
        /// The send time of the viewer's first block.
        first_send: SimTime,
    },
    /// A client asks the controller to stop a viewer.
    StopRequest {
        /// The viewer instance to stop.
        instance: ViewerInstance,
    },
    /// A cub tells the controller a viewer reached end-of-file and left the
    /// schedule (§4.1.2: "Handling end-of-file is straightforward").
    ViewerFinished {
        /// The finished viewer instance.
        instance: ViewerInstance,
    },
    /// Deadman heartbeat from a cub to its successor.
    DeadmanPing {
        /// The sender.
        from: CubId,
        /// Its life: the successor, the cub that would declare it, learns
        /// each of its restarts here.
        life: u32,
    },
    /// A restarted cub announces it is back: receivers clear their failure
    /// belief about it and re-baseline their deadman clocks; its ring
    /// neighbours answer with [`Message::RejoinAck`], and the mirror
    /// partner covering its disks opens a bounded hand-back window.
    RejoinRequest {
        /// The rejoining cub.
        from: CubId,
        /// Its life, raised by each restart: a notice naming an older one
        /// is stale.
        life: u32,
    },
    /// A ring neighbour's reply to [`Message::RejoinRequest`]: the
    /// neighbour's current failure beliefs, so the rejoiner (which restarts
    /// with an empty belief table) learns which cubs are down without
    /// waiting a full deadman timeout per failure.
    RejoinAck {
        /// The replying neighbour.
        from: CubId,
        /// Raw ids of cubs the neighbour currently believes failed.
        failed: Arc<[u32]>,
    },
    /// A ring predecessor's retired-log tail, replayed to a rejoining cub
    /// alongside [`Message::RejoinAck`]: each record is already advanced
    /// to its next due position on the rejoiner's disks, so the rejoiner
    /// reconstructs its in-flight viewer state immediately instead of
    /// waiting up to a full forward interval for natural circulation
    /// (§2.3 gap bridging applied to rejoin).
    RetiredReplay {
        /// The replaying predecessor.
        from: CubId,
        /// Advanced viewer-state records owned by the rejoiner.
        states: Arc<[ViewerState]>,
    },
    /// A cub announces that it has declared `failed` dead.
    FailureNotice {
        /// The failed cub.
        failed: CubId,
        /// The life of `failed` the declarer knew: a receiver that has
        /// seen a later one (a rejoin) drops the notice.
        life: u32,
    },
    /// One block (or mirror piece) of stream data arriving at a client.
    /// Carried outside the control-byte accounting (it is data plane).
    StreamData {
        /// The viewer instance the data belongs to.
        instance: ViewerInstance,
        /// Block number within the file.
        block: u32,
        /// Mirror piece number, or `None` for a whole primary block.
        piece: Option<u32>,
        /// Total pieces the block was split into (1 for primary).
        total_pieces: u32,
        /// Payload bytes in this delivery.
        bytes: u64,
    },
}

impl Message {
    /// Estimated wire size, for the control-traffic metric. Stream data is
    /// *not* control traffic and returns 0 here (it is accounted on the
    /// NIC as data bytes).
    pub fn control_bytes(&self) -> u64 {
        match self {
            Message::ViewerState(_) => FRAME_BYTES + ViewerState::WIRE_BYTES,
            Message::ViewerStates(v) => FRAME_BYTES + ViewerState::WIRE_BYTES * v.len() as u64,
            Message::Deschedule { .. } => FRAME_BYTES + Deschedule::WIRE_BYTES,
            Message::StartRequest { .. } | Message::RoutedStart { .. } => FRAME_BYTES + 60,
            Message::InsertCommitted { .. } => FRAME_BYTES + 30,
            Message::StopRequest { .. } => FRAME_BYTES + 20,
            Message::ViewerFinished { .. } => FRAME_BYTES + 20,
            Message::DeadmanPing { .. } => FRAME_BYTES + 8,
            Message::RejoinRequest { .. } => FRAME_BYTES + 8,
            Message::RejoinAck { failed, .. } => FRAME_BYTES + 8 + 4 * failed.len() as u64,
            Message::RetiredReplay { states, .. } => {
                FRAME_BYTES + 8 + ViewerState::WIRE_BYTES * states.len() as u64
            }
            Message::FailureNotice { .. } => FRAME_BYTES + 8,
            Message::StreamData { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_viewer_states_amortize_framing() {
        let vs = dummy_vs();
        let one = Message::ViewerStates(vec![vs].into()).control_bytes();
        let ten = Message::ViewerStates(vec![vs; 10].into()).control_bytes();
        assert!(ten < 10 * one, "batching must beat individual sends");
        assert_eq!(ten, FRAME_BYTES + 10 * ViewerState::WIRE_BYTES);
    }

    #[test]
    fn singleton_viewer_state_matches_batch_of_one() {
        // The allocation-free singleton must be indistinguishable on the
        // wire from a one-element batch, so switching send paths cannot
        // perturb the control-traffic metric.
        let vs = dummy_vs();
        assert_eq!(
            Message::ViewerState(vs).control_bytes(),
            Message::ViewerStates(vec![vs].into()).control_bytes(),
        );
    }

    #[test]
    fn stream_data_is_not_control_traffic() {
        let m = Message::StreamData {
            instance: ViewerInstance::default(),
            block: 0,
            piece: None,
            total_pieces: 1,
            bytes: 250_000,
        };
        assert_eq!(m.control_bytes(), 0);
    }

    fn dummy_vs() -> ViewerState {
        use tiger_layout::BlockNum;
        use tiger_sched::StreamKind;
        use tiger_sim::Bandwidth;
        ViewerState {
            instance: ViewerInstance::default(),
            client: 0,
            file: FileId(0),
            position: BlockNum(0),
            slot: SlotId(0),
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind: StreamKind::Primary,
        }
    }
}
