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
//! The reports live by family: [`figures`] (Figures 8–10 and the §5
//! text's numbers), [`ablations`], [`hotspot`], [`chaos`], [`workloads`]
//! and [`coded`]. Each runs its points through `fleet::sweep` and prints
//! every table through `table::Table`; each job's header names the
//! artifact it regenerates.
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

pub mod ablations;
pub mod chaos;
pub mod coded;
pub mod figures;
pub mod fleet;
pub mod hotspot;
pub mod refclock;
pub mod runner;
mod table;
pub mod workloads;

/// The standard header naming the artifact a report regenerates.
pub fn header(artifact: &str, paper_says: &str) -> String {
    const RULE: &str = "==============================================================";
    format!("{RULE}\n{artifact}\npaper: {paper_says}\n{RULE}\n")
}
