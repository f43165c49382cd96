//! # Tiger: distributed schedule management for a striped video fileserver
//!
//! A from-scratch Rust reproduction of *Distributed Schedule Management in
//! the Tiger Video Fileserver* (Bolosky, Fitzgerald, Douceur — SOSP 1997):
//! the "coherent hallucination" protocol by which a ring of commodity
//! machines ("cubs") jointly maintain a global streaming schedule that no
//! machine ever materializes, plus every substrate it runs on — striped
//! and declustered-mirror data layout, a calibrated multi-zone disk model,
//! a switched (ATM-like) network, the single-bitrate disk schedule and the
//! multiple-bitrate network schedule, failure detection and mirror
//! takeover, and the centralized baseline the paper argues against.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel
//! * [`disk`] — multi-zone disk drive model
//! * [`net`] — switched network model
//! * [`layout`] — striping, declustered mirroring, block index, restriper
//! * [`sched`] — schedules, viewer-state records, bounded views
//! * [`faults`] — deterministic fault plans, injectors, and invariants
//! * [`core`] — cubs, controller, clients, the distributed protocol
//! * [`trace`] — ring-buffer protocol event tracing and timeline tooling
//! * [`workload`] — workload generators and §5 experiment drivers
//! * [`bench`](mod@bench) — the experiment catalogue ([`bench::fleet::standard_jobs`],
//!   run by the one experiment binary, `fleet`), bench runner, and
//!   snapshot tooling
//!
//! ## Quick start
//!
//! ```
//! use tiger::core::{TigerConfig, TigerSystem};
//! use tiger::sim::{Bandwidth, SimDuration, SimTime};
//!
//! let mut cfg = TigerConfig::small_test();
//! cfg.disk = cfg.disk.without_blips();
//! let mut sys = TigerSystem::new(cfg);
//! let film = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(10));
//! let client = sys.add_client();
//! sys.request_start(SimTime::from_millis(50), client, film);
//! sys.run_until(SimTime::from_secs(30));
//! assert_eq!(sys.client_report(client).completed_viewers, 1);
//! ```

pub use tiger_bench as bench;
pub use tiger_core as core;
pub use tiger_disk as disk;
pub use tiger_faults as faults;
pub use tiger_layout as layout;
pub use tiger_net as net;
pub use tiger_sched as sched;
pub use tiger_sim as sim;
pub use tiger_trace as trace;
pub use tiger_workload as workload;
