//! The Tiger distributed schedule-management protocol (paper §4).
//!
//! This crate animates the pure schedule structures of `tiger-sched` into
//! the full distributed system: cubs that hold bounded views and forward
//! viewer-state records around the ring (doubly, idempotently), a
//! controller that routes start/stop requests, clients that verify timely
//! delivery, a deadman failure detector with declustered-mirror takeover,
//! the ownership-window insertion protocol of the single-bitrate system,
//! the two-phase reservation insertion of the multiple-bitrate network
//! schedule, and the centralized-scheduler baseline of §3.3.
//!
//! Everything runs on the deterministic event queue of `tiger-sim`; a run
//! is a pure function of `(TigerConfig, workload, seed)`.
//!
//! # Quick start
//!
//! ```
//! use tiger_core::{TigerConfig, TigerSystem};
//! use tiger_sim::{Bandwidth, SimDuration, SimTime};
//!
//! // A small two-cub system with one short file.
//! let mut cfg = TigerConfig::small_test();
//! cfg.seed = 7;
//! let mut sys = TigerSystem::new(cfg);
//! let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(8));
//! let client = sys.add_client();
//! sys.request_start(SimTime::from_millis(10), client, file);
//! sys.run_until(SimTime::from_secs(30));
//! let report = sys.client_report(client);
//! assert_eq!(report.completed_viewers, 1);
//! assert_eq!(report.blocks_missing, 0);
//! ```

pub mod backend;
pub mod central;
pub mod client;
pub mod config;
pub mod controller;
pub mod copy;
pub mod cpu;
pub mod cub;
pub mod event;
pub mod mbr;
pub mod metrics;
mod pool;
pub mod reconfig;
pub mod recovery;
pub mod shield;
pub mod system;

pub use backend::Backend;
pub use central::central_control_send_rate;
pub use client::{Client, ClientReport};
pub use config::{ForwardingPolicy, TigerConfig};
pub use controller::Controller;
pub use cpu::CpuModel;
pub use cub::Cub;
pub use mbr::{MbrConfig, MbrDistStats, MbrSystem};
pub use metrics::{LossReport, Metrics, WindowSample};
pub use reconfig::RestripeStep;
pub use shield::ShieldMap;
pub use system::TigerSystem;
pub use tiger_layout::RedundancyMode;
pub use tiger_proto::msg::Message;
