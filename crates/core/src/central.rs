//! The centralized-scheduler baseline (paper §3.3).
//!
//! "In a centrally scheduled system, the controller would have to track the
//! entire schedule. … the controller would have to maintain a send rate of
//! 3-4 Mbytes/s of control traffic through the TCP stack to the roughly
//! 1000 cubs. Reliable and timely transmission of this much data through
//! TCP, particularly to that many destinations, is probably beyond the
//! capability of the class of personal computers used to construct a Tiger
//! system."
//!
//! This module materializes that design so the scalability bench can put
//! real numbers next to the distributed implementation: a controller that
//! owns the whole [`DiskSchedule`] and streams one per-block command to the
//! relevant cub for every slot crossing.

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, FileId, ViewerId};
use tiger_proto::msg::FRAME_BYTES;
use tiger_sched::{DiskSchedule, ScheduleParams, SlotId, StreamKind, ViewerState};
use tiger_sim::{Bandwidth, SimDuration, SimTime};

use crate::cpu::CpuModel;

/// Per-block command size in the centralized design (§3.3: "If the message
/// that the controller sends instructing a cub to deliver a block to a
/// viewer is 100 bytes long…").
pub const COMMAND_BYTES: u64 = 100;

/// Bytes per second the central controller must transmit to keep `streams`
/// streams fed, with one `COMMAND_BYTES` command per stream per block play
/// time, plus TCP framing per command.
pub fn central_control_send_rate(streams: u64, block_play_time: SimDuration) -> f64 {
    (streams as f64) * (COMMAND_BYTES + FRAME_BYTES) as f64 / block_play_time.as_secs_f64()
}

/// Statistics from a centralized-controller window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CentralStats {
    /// Streams being served.
    pub streams: u32,
    /// Controller control-plane send rate, bytes/s.
    pub ctrl_bytes_per_sec: f64,
    /// Controller messages/s.
    pub ctrl_msgs_per_sec: f64,
    /// Modelled controller CPU load (saturates at 1.0).
    pub ctrl_cpu: f64,
}

/// A centrally scheduled Tiger: the controller owns the global schedule
/// and drives every cub with per-block commands.
#[derive(Debug)]
pub struct CentralSystem {
    params: ScheduleParams,
    schedule: DiskSchedule,
    cpu: CpuModel,
    next_viewer: u64,
}

impl CentralSystem {
    /// Creates an empty centrally-scheduled system.
    pub fn new(params: ScheduleParams) -> Self {
        CentralSystem {
            schedule: DiskSchedule::new(params.clone()),
            params,
            cpu: CpuModel::pentium133(),
            next_viewer: 0,
        }
    }

    /// The schedule parameters.
    pub fn params(&self) -> &ScheduleParams {
        &self.params
    }

    /// Starts a viewer: the controller scans its global schedule for the
    /// first free slot after the file's start-disk pointer and fills it.
    /// Returns the slot, or `None` when the schedule is full.
    pub fn start_viewer(
        &mut self,
        file: FileId,
        bitrate: Bandwidth,
        now: SimTime,
    ) -> Option<SlotId> {
        let from = self.params.slot_under_disk(tiger_layout::DiskId(0), now);
        let slot = self.schedule.first_free_from(from)?;
        let instance = ViewerInstance {
            viewer: ViewerId(self.next_viewer),
            incarnation: 0,
        };
        self.next_viewer += 1;
        let vs = ViewerState {
            instance,
            client: 0,
            file,
            position: BlockNum(0),
            slot,
            play_seq: 0,
            bitrate,
            kind: StreamKind::Primary,
        };
        self.schedule
            .insert(vs, now)
            .expect("first_free_from returned a free slot");
        Some(slot)
    }

    /// Streams currently scheduled.
    pub fn streams(&self) -> u32 {
        self.schedule.occupancy()
    }

    /// Simulates one measurement window: the controller emits one command
    /// per occupied slot per block play time and the model reports its
    /// load. (The command stream is deterministic, so this is computed in
    /// closed form rather than event-by-event.)
    pub fn window_stats(&self) -> CentralStats {
        let streams = self.schedule.occupancy();
        let bps = central_control_send_rate(u64::from(streams), self.params.block_play_time());
        let msgs = f64::from(streams) / self.params.block_play_time().as_secs_f64();
        CentralStats {
            streams,
            ctrl_bytes_per_sec: bps,
            ctrl_msgs_per_sec: msgs,
            // Every command is controller work, unlike the distributed
            // design where the controller only sees start/stop requests.
            ctrl_cpu: self.cpu.controller_load(0.0, msgs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::StripeConfig;
    use tiger_sim::ByteSize;

    fn params(cubs: u32) -> ScheduleParams {
        ScheduleParams::derive(
            StripeConfig::new(cubs, 4, 4),
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            SimDuration::from_nanos(92_954_226),
            Bandwidth::from_mbit_per_sec(135),
        )
    }

    #[test]
    fn paper_scalability_number() {
        // §3.3: 40,000 streams at 100 bytes/command ≈ 4 MB/s of control
        // sends (we add framing, so a bit more).
        let rate = central_control_send_rate(40_000, SimDuration::from_secs(1));
        assert!((4.0e6..6.0e6).contains(&rate), "rate {rate}");
    }

    #[test]
    fn start_takes_a_slot() {
        let mut c = CentralSystem::new(params(4));
        c.start_viewer(FileId(0), Bandwidth::from_mbit_per_sec(2), SimTime::ZERO)
            .expect("capacity available");
        assert_eq!(c.streams(), 1);
    }

    #[test]
    fn controller_load_grows_with_streams() {
        let mut c = CentralSystem::new(params(14));
        let mut prev = c.window_stats().ctrl_cpu;
        for _ in 0..4 {
            for _ in 0..100 {
                c.start_viewer(FileId(0), Bandwidth::from_mbit_per_sec(2), SimTime::ZERO);
            }
            let cur = c.window_stats();
            assert!(cur.ctrl_cpu > prev, "load must grow with streams");
            prev = cur.ctrl_cpu;
        }
        // In contrast, the distributed controller's load is constant in
        // stream count (see CpuModel::controller_load tests).
    }

    #[test]
    fn schedule_full_rejects() {
        let p = params(2);
        let cap = p.capacity();
        let mut c = CentralSystem::new(p);
        for _ in 0..cap {
            assert!(c
                .start_viewer(FileId(0), Bandwidth::from_mbit_per_sec(2), SimTime::ZERO)
                .is_some());
        }
        assert!(c
            .start_viewer(FileId(0), Bandwidth::from_mbit_per_sec(2), SimTime::ZERO)
            .is_none());
    }
}
