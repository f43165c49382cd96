//! Benchmark harness for the Tiger reproduction.
//!
//! One experiment binary, `fleet`, over one catalogue,
//! [`fleet::standard_jobs`]: every paper artifact and ablation is a job
//! named for its golden under `results/` (`DESIGN.md` §4 maps each to its
//! paper section).
//!
//! ```text
//! fleet --list                                   # the catalogue
//! fleet --filter fig8_unfailed --scale full      # one job, paper scale
//! fleet --threads 2 --goldens results            # regenerate every golden
//! ```
//!
//! | job | artifact |
//! |---|---|
//! | `fig8_unfailed` | Figure 8: loads with no cubs failed |
//! | `fig9_failed` | Figure 9: loads with one cub failed |
//! | `fig10_startup` | Figure 10: stream startup latency vs schedule load |
//! | `loss_rates` | §5 text: delivered-block loss rates |
//! | `reconfig` | §5 text: power-cut reconfiguration window |
//! | `scalability` | §3.3: centralized vs distributed control traffic |
//! | `capacity` | §5 text: capacity derivation (10.75 streams/disk → 602) and its multi-seed measurement |
//! | `hotspot` | §2.2: striping absorbs single-file demand spikes |
//! | `hotspot_plan` | the same measurement under a `tiger-workgen` plan file (`--plan FILE`) |
//! | `ablation_decluster` | §2.3: decluster-factor tradeoff |
//! | `ablation_forwarding` | §4.1.1: single vs double forwarding |
//! | `ablation_lead` | §4.1.1: viewer-state lead sensitivity |
//! | `ablation_fragmentation` | §3.2: network-schedule fragmentation |
//! | `ablation_mbr` | §4.2: two-phase insertion latency hiding (message-level, four latency models) |
//! | `ablation_deadman` | §5: loss window vs deadman timeout |
//! | `ablation_admission` | §5: the disabled admission-control code, re-enabled |
//! | `ablation_coded` | coded vs mirrored redundancy under the flash crowd, equal storage (docs/CODED.md) |
//! | `chaos` | fault-injection campaigns (tiger-faults) checked against the Tiger invariants |
//! | `workloads` | canonical tiger-workgen demand plans: blocking / conflict / churn under skew, surges, VCR churn, diurnal swing |
//! | `workload_flashcrowd_blocking` | the flash-crowd plan alone, for its blocking-probability curve |
//!
//! The other binaries are tools, not experiments: `trace_timeline`
//! renders trace dumps (and the three timeline goldens), `bench_compare`
//! sets two micro-bench runs side by side.
//!
//! Micro-benches for the schedule operations themselves live in `benches/`
//! (the §5 premise that schedule management cost is negligible next to
//! data movement), driven by the in-tree [`runner`] so the workspace needs
//! no registry crates. Each row is a median in reference nanoseconds
//! ([`refclock`]); one run is `cargo bench -q -p tiger-bench > A.json`
//! (`-- view/` for one group), and an A/B is two such runs, parent and
//! change, read with `bench_compare A.json B.json`. Nothing is checked
//! in and nothing gates: a PR cites the rows it moved.

pub mod chaos;
pub mod coded;
pub mod fleet;
pub mod hotspot;
pub mod refclock;
pub mod runner;
pub mod workloads;

/// The standard header naming the artifact a report regenerates.
pub fn header(artifact: &str, paper_says: &str) -> String {
    const RULE: &str = "==============================================================";
    format!("{RULE}\n{artifact}\npaper: {paper_says}\n{RULE}\n")
}
