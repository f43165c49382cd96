//! Workload generators and experiment drivers reproducing the paper's §5
//! evaluation.
//!
//! Every fault-injected or plan-driven experiment is a
//! [`scenario::Scenario`] run by [`scenario::run`], which checks the Tiger
//! invariants on every run; its figures are functions of the
//! [`scenario::Run`]. The closed-loop ramps of Figures 8–10 keep drivers
//! of their own ([`run_ramp`], [`run_startup`]). The bench crate's jobs
//! run these and print the tables the paper reports.

pub mod catalog;
pub mod driven;
pub mod ramp;
pub mod scenario;
pub mod startup;

pub use catalog::{populate_catalog, CatalogSpec};
pub use driven::{drive_plan, DriveStats};
pub use ramp::{run_ramp, RampConfig, RampResult};
pub use scenario::{chaos_digest, run, workgen_digest, CurvePoint, Demand, Run, Scenario};
pub use startup::{run_startup, StartupConfig, StartupResult};
