//! Real-transport driver: the sans-io protocol machines over OS threads
//! and loopback sockets.
//!
//! The DES in `tiger-core` is one driver for the `tiger-proto` state
//! machines; this crate is the second. Each cub becomes an OS thread
//! owning a loopback UDP socket, messages travel as the lossless text
//! wire format from [`tiger_proto::wire`], and timers are wall-clock
//! deadlines measured from a shared epoch `Instant`. The machines —
//! [`tiger_proto::RingMachine`] and friends — are byte-for-byte the same
//! code the simulator runs, which is the point: any divergence between
//! the two drivers is a driver bug, not a protocol ambiguity.
//!
//! The DES stays the oracle. [`conformance`] reduces a trace from either
//! driver to its *protocol decisions* — failure declarations, belief
//! adoptions, takeovers, fences, hand-back grants — normalized per ring
//! lane with sequence numbers and timestamps dropped (wall clocks and
//! virtual clocks measure different silences; the decisions must still
//! agree). `scripts/ci.sh` runs the crash-rejoin scenario under both
//! drivers and fails on any decision divergence.

pub mod conformance;
pub mod driver;

pub use conformance::{decision_lanes, render_decisions};
pub use driver::{run_crash_rejoin, CrashRejoinScript, RtRun};
