//! `tiger-perf`: the end-to-end benchmark harness (see `README.md`).
//!
//! The `perf` bin is a thin argument parser over this library so the
//! self-tests under `tests/` can run workloads in process.

pub mod host;
pub mod json;
pub mod layers;
pub mod measure;
pub mod once;
pub mod probes;
pub mod refclock;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
