//! Simulation events.
//!
//! These are *driver-side* inputs: the DES translates each one into
//! typed messages or timer expiries for the sans-io machines in
//! `tiger_proto` (the thread/socket driver in `tiger-rt` feeds the same
//! machines from real sockets and wall-clock deadlines instead — see
//! `docs/PROTOCOL.md` for the driver contract).

use tiger_layout::CubId;
use tiger_net::NetNode;

use tiger_proto::msg::Message;

use crate::copy::Lane;

/// A token identifying one scheduled block (or mirror-piece) service on a
/// cub: the key into the cub's active-service table.
pub type ServiceToken = u64;

/// Everything that can happen in a Tiger simulation.
#[derive(Clone, Debug)]
pub enum Event {
    /// A control message arrives at a node.
    Deliver {
        /// The destination node.
        dst: NetNode,
        /// The message.
        msg: Message,
    },
    /// Time to issue the disk read for service `token` (two or three
    /// scheduling leads before the block is due at the network; a full
    /// buffer pool makes it wait, down to one).
    ReadIssue {
        /// The cub that should read.
        cub: CubId,
        /// The service the read belongs to.
        token: ServiceToken,
    },
    /// A cub's buffer-pool floor timer: the reads still waiting for a
    /// buffer at their hard floor (one scheduling lead before the send)
    /// go out regardless. One chain a cub, alive while reads wait.
    PoolFloor {
        /// The cub whose pool it is.
        cub: CubId,
    },
    /// A disk read issued by `cub` for service `token` completed.
    DiskDone {
        /// The cub whose disk finished.
        cub: CubId,
        /// The service the read belongs to.
        token: ServiceToken,
    },
    /// Service `token`'s block is due at the network.
    SendDue {
        /// The servicing cub.
        cub: CubId,
        /// The service to transmit.
        token: ServiceToken,
    },
    /// A paced block transmission finishes (frees NIC bandwidth and
    /// delivers the data to the client).
    SendDone {
        /// The sending cub.
        cub: CubId,
        /// The completed service.
        token: ServiceToken,
    },
    /// Periodic viewer-state forwarding pass on a cub (batching).
    ForwardPass {
        /// The cub running the pass.
        cub: CubId,
    },
    /// A cub attempts to insert queued start requests into owned slots.
    InsertAttempt {
        /// The attempting cub.
        cub: CubId,
    },
    /// Periodic deadman heartbeat send.
    DeadmanPing {
        /// The pinging cub.
        cub: CubId,
    },
    /// Periodic deadman silence check.
    DeadmanCheck {
        /// The checking cub.
        cub: CubId,
    },
    /// Fault injection: power-cut a cub.
    FailCub {
        /// The cub to kill.
        cub: CubId,
    },
    /// Fault injection: kill one disk on a living cub — distinct from
    /// [`Event::FailCub`]: the cub keeps running (and pinging), so no
    /// deadman fires and no mirror takeover covers the lost content.
    FailDisk {
        /// The cub owning the disk.
        cub: CubId,
        /// The cub-local disk index.
        disk_local: u32,
    },
    /// Fault injection: record a trace marker (freeze/resume instants,
    /// fault-window open/close) without touching any protocol state.
    FaultNote {
        /// The cub to record the marker on (or `tiger_trace::CTRL`).
        cub: u32,
        /// The marker event.
        ev: tiger_trace::TraceEvent,
    },
    /// Fault injection: power-cut the (primary) controller.
    FailController,
    /// Recovery: restart a crashed/fenced/power-cut cub with empty schedule
    /// state; it re-learns its slots via the rejoin protocol.
    RestartCub {
        /// The cub to restart.
        cub: CubId,
    },
    /// Live restripe: begin executing the next queued step's planned block
    /// moves in the background of the stream schedule.
    RestripeStart,
    /// Background copy: periodic pump of one lane's pipeline — issue
    /// eligible background reads (idle source disk, pacing rest elapsed).
    /// Re-armed every 100 ms while the lane has work; a tick left over
    /// from a finished chain is dropped by the lane's due-time guard
    /// instead of doubling the next campaign's pump rate.
    CopyTick {
        /// The lane to pump: restripe moves or spare-shield copies.
        lane: Lane,
    },
    /// Background copy: the read of job `idx` completed on its source
    /// disk; the data now transfers over the network (or re-queues if
    /// the source died with the read in flight).
    CopyRead {
        /// The lane the job belongs to.
        lane: Lane,
        /// Index into that lane's job list.
        idx: u32,
    },
    /// Background copy: job `idx` arrived at its destination machine and
    /// commits there. The restripe lane cuts over when its last move
    /// lands; the shield lane marks a span ready when its last piece does.
    CopyArrive {
        /// The lane the job belongs to.
        lane: Lane,
        /// Index into that lane's job list.
        idx: u32,
    },
    /// Workload: a client issues a start request for a file.
    ClientStart {
        /// The client node index (0-based among clients).
        client: u32,
        /// The file to request.
        file: tiger_layout::FileId,
        /// First block to play.
        from_block: u32,
        /// The pre-allocated viewer instance.
        instance: tiger_layout::ids::ViewerInstance,
    },
    /// Workload: a client issues a stop request for a viewer.
    ClientStop {
        /// The viewer instance to stop.
        instance: tiger_layout::ids::ViewerInstance,
    },
    /// Workload: resume a paused viewer from where it left off (VCR
    /// resume). The new play instance bumps the incarnation number.
    ClientResume {
        /// The paused viewer instance.
        instance: tiger_layout::ids::ViewerInstance,
    },
    /// Workload: jump a playing viewer to a new position (VCR seek): stop
    /// the current instance and start a new incarnation at `to_block`.
    ClientSeek {
        /// The viewer instance to move.
        instance: tiger_layout::ids::ViewerInstance,
        /// The block to jump to.
        to_block: u32,
    },
    /// Workload: a scripted plan's operation comes due. The event loop
    /// runs (and counts) it as the `ClientStart`, `ClientStop`,
    /// `ClientResume` or `ClientSeek` it stands for (`crate::demand`).
    Scripted {
        /// The operation's index in the system's script store.
        op: u32,
    },
}

impl Event {
    /// The event kinds' names, in declaration order.
    pub const KIND_NAMES: [&'static str; 24] = [
        "Deliver",
        "ReadIssue",
        "PoolFloor",
        "DiskDone",
        "SendDue",
        "SendDone",
        "ForwardPass",
        "InsertAttempt",
        "DeadmanPing",
        "DeadmanCheck",
        "FailCub",
        "FailDisk",
        "FaultNote",
        "FailController",
        "RestartCub",
        "RestripeStart",
        "CopyTick",
        "CopyRead",
        "CopyArrive",
        "ClientStart",
        "ClientStop",
        "ClientResume",
        "ClientSeek",
        "Scripted",
    ];

    /// This event's kind, an index into [`Event::KIND_NAMES`].
    pub fn kind(&self) -> usize {
        match self {
            Event::Deliver { .. } => 0,
            Event::ReadIssue { .. } => 1,
            Event::PoolFloor { .. } => 2,
            Event::DiskDone { .. } => 3,
            Event::SendDue { .. } => 4,
            Event::SendDone { .. } => 5,
            Event::ForwardPass { .. } => 6,
            Event::InsertAttempt { .. } => 7,
            Event::DeadmanPing { .. } => 8,
            Event::DeadmanCheck { .. } => 9,
            Event::FailCub { .. } => 10,
            Event::FailDisk { .. } => 11,
            Event::FaultNote { .. } => 12,
            Event::FailController => 13,
            Event::RestartCub { .. } => 14,
            Event::RestripeStart => 15,
            Event::CopyTick { .. } => 16,
            Event::CopyRead { .. } => 17,
            Event::CopyArrive { .. } => 18,
            Event::ClientStart { .. } => 19,
            Event::ClientStop { .. } => 20,
            Event::ClientResume { .. } => 21,
            Event::ClientSeek { .. } => 22,
            Event::Scripted { .. } => 23,
        }
    }
}

// Every pending event fills a queue slot of this size, 10-40 k of them at
// full scale: box a rare variant's fat payload rather than raise this.
const _: () = assert!(std::mem::size_of::<Event>() <= 64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_the_variants_names() {
        let cub = CubId(0);
        let events = [
            Event::ReadIssue { cub, token: 0 },
            Event::PoolFloor { cub },
            Event::DiskDone { cub, token: 0 },
            Event::DeadmanCheck { cub },
            Event::FailController,
            Event::RestripeStart,
            Event::CopyTick { lane: Lane::Shield },
            Event::ClientSeek {
                instance: tiger_layout::ids::ViewerInstance {
                    viewer: tiger_layout::ids::ViewerId(0),
                    incarnation: 0,
                },
                to_block: 0,
            },
        ];
        for ev in events {
            let name = Event::KIND_NAMES[ev.kind()];
            assert!(format!("{ev:?}").starts_with(name), "{ev:?}");
        }
    }
}
