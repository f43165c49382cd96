//! tiger-workgen: declarative, deterministic workload generation for the
//! Tiger simulator.
//!
//! A [`WorkloadPlan`] declares *who asks for what, when* — the demand-side
//! twin of `tiger-faults`' `FaultPlan`. Plans are parsed from a
//! line-oriented text format and compile against the system seed's
//! `"workgen"` RNG subtree into three composable seeded generators:
//!
//! - [`Popularity`] — per-title choice: Zipf or uniform base distribution
//!   (O(1) alias-table sampling) with additive, exponentially-decaying
//!   flash-crowd overlays;
//! - [`Arrivals`] — the arrival process: base Poisson rate with optional
//!   MMPP-style burst and diurnal raised-cosine modulation, sampled
//!   exactly by Ogata thinning; flash crowds add surge population;
//! - [`SessionSampler`] — per-viewer VCR behavior: competing pause /
//!   seek / abandon hazards with exponential dwells, forked per arrival
//!   ordinal so scripts are independent of viewer count and thread count.
//!
//! Everything is pure data until [`WorkloadPlan::compile`], and every
//! sample is a deterministic function of `(plan, seed)` — the same
//! contract the rest of the simulator keeps, so workload sweeps stay
//! bit-identical across fleet thread counts. Plans can embed
//! `fault <clause>` lines to compose demand with a `tiger-faults` plan in
//! one file. See `docs/WORKLOADS.md` for the grammar.

pub mod arrival;
pub mod plan;
pub mod popularity;
pub mod session;

pub use arrival::Arrivals;
pub use plan::{
    load_plan_file, parse_rate, ArrivalSpec, Burst, CompiledWorkload, Diurnal, FlashCrowd,
    PopularitySpec, SessionSpec, WorkloadPlan,
};
pub use popularity::{CompiledCrowd, Popularity};
pub use session::{SessionEvent, SessionMachine, SessionOp, SessionSampler, MAX_OPS_PER_VIEWER};
