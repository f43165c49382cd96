//! Benchmark harness for the Tiger reproduction.
//!
//! One binary per paper artifact (see `DESIGN.md` §4 for the index):
//!
//! | target | artifact |
//! |---|---|
//! | `fig8_unfailed` | Figure 8: loads with no cubs failed |
//! | `fig9_failed` | Figure 9: loads with one cub failed |
//! | `fig10_startup` | Figure 10: stream startup latency vs schedule load |
//! | `loss_rates` | §5 text: delivered-block loss rates |
//! | `reconfig` | §5 text: power-cut reconfiguration window |
//! | `scalability` | §3.3: centralized vs distributed control traffic |
//! | `capacity` | §5 text: capacity derivation (10.75 streams/disk → 602) |
//! | `ablation_decluster` | §2.3: decluster-factor tradeoff |
//! | `ablation_forwarding` | §4.1.1: single vs double forwarding |
//! | `ablation_lead` | §4.1.1: viewer-state lead sensitivity |
//! | `ablation_fragmentation` | §3.2: network-schedule fragmentation |
//! | `ablation_mbr` | §4.2: two-phase insertion latency hiding (message-level, four latency models) |
//! | `ablation_deadman` | §5: loss window vs deadman timeout |
//! | `ablation_admission` | §5: the disabled admission-control code, re-enabled |
//! | `ablation_coded` | coded vs mirrored redundancy under the flash crowd, equal storage (docs/CODED.md) |
//! | `hotspot` | §2.2: striping absorbs single-file demand spikes |
//! | `chaos` | fault-injection campaigns (tiger-faults) checked against the Tiger invariants |
//! | `workloads` | canonical tiger-workgen demand plans: blocking / conflict / churn under skew, surges, VCR churn, diurnal swing |
//!
//! Micro-benches for the schedule operations themselves live in `benches/`
//! (the §5 premise that schedule management cost is negligible next to
//! data movement), driven by the in-tree [`runner`] so the workspace needs
//! no registry crates and emits machine-readable JSON for the
//! `BENCH_*.json` trajectory.

pub mod chaos;
pub mod coded;
pub mod fleet;
pub mod runner;
pub mod workloads;

use tiger_core::TigerConfig;
use tiger_sim::SimDuration;

/// The full-scale §5 system configuration used by every figure bench.
pub fn sosp_tiger() -> TigerConfig {
    TigerConfig::sosp97()
}

/// The paper's settle time per ramp step.
pub fn settle() -> SimDuration {
    SimDuration::from_secs(50)
}

/// Prints a standard header naming the artifact being regenerated.
pub fn header(artifact: &str, paper_says: &str) {
    println!("==============================================================");
    println!("{artifact}");
    println!("paper: {paper_says}");
    println!("==============================================================");
}
