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
//! The command stream of such a controller is deterministic — one command
//! per stream per block play time — so its cost is a closed form.

use tiger_proto::msg::FRAME_BYTES;
use tiger_sim::SimDuration;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scalability_number() {
        // §3.3: 40,000 streams at 100 bytes/command ≈ 4 MB/s of control
        // sends (we add framing, so a bit more).
        let rate = central_control_send_rate(40_000, SimDuration::from_secs(1));
        assert!((4.0e6..6.0e6).contains(&rate), "rate {rate}");
    }
}
