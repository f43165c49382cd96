//! Switched-network model for the Tiger reproduction (paper §2.1).
//!
//! A Tiger system's machines hang off a switched (ATM in the testbed)
//! network. The properties the schedule-management protocol actually relies
//! on, and which this model provides, are:
//!
//! * **In-order reliable control channels** between any two machines
//!   ("Tiger uses TCP to control the communication links between cubs, so
//!   messages sent directly from one cub to another arrive in order",
//!   §4.1.3) — modelled as per-`(src, dst)` FIFO delivery with sampled
//!   latency, monotonized so a later send never arrives earlier.
//! * **Bounded, jittery latency** — the single-bitrate ownership protocol
//!   requires "the block play time must be bigger than the largest expected
//!   inter-cub communication latency" (§4.1.3).
//! * **Per-NIC output bandwidth** — stream blocks are transmitted *paced at
//!   the stream bitrate over one block play time* (Figure 4; also §5's
//!   startup-latency accounting, where 1 s of the 1.8 s minimum is block
//!   transmission). The NIC tracks the sum of active stream rates and flags
//!   overcommit.
//! * **Control-traffic accounting** — Figures 8/9 plot control bytes/s from
//!   one cub to all others; every control send is metered at the sender.

pub mod latency;
pub mod network;
pub mod nic;

pub use latency::LatencyModel;
pub use network::{NetError, NetNode, Network, Sent};
pub use nic::Nic;
