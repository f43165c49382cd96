//! The coded-vs-mirrored redundancy ablation (PAPERS.md, coded-storage
//! comparison; docs/CODED.md).
//!
//! Both backends spend exactly 2x storage per block — mirroring stores a
//! full secondary copy in `decluster` pieces, the coded backend stores
//! `2k` shards of `B/k` bytes with any-`k` reconstruction — so the
//! comparison isolates the *placement and service* policy at equal
//! overhead. Two canonical plans (from [`crate::workloads::plans`])
//! drive each backend:
//!
//! * `flash-crowd` — the correlated single-title surge, reduced to the
//!   blocking-probability-vs-time curve (§2.2's figure of merit). The
//!   report prints both backends' curves side by side and checks that
//!   the coded peak does not exceed the mirrored peak (at the test
//!   system's `k = 2`, coded worst-case service time is lower, so the
//!   same hardware admits more of the surge).
//! * `flashcrowd-crash` — the same surge with a cub crash at the crest,
//!   reduced to the chaos digest; the full invariant set (1–6) is
//!   enforced on both backends under degraded service, as on every run.
//!
//! Every point is a pure function of `(plan, backend, seed)`; the sweep
//! shards through `fleet::sweep` and is bit-identical at any thread
//! count.

use tiger_core::RedundancyMode;
use tiger_workload::CurvePoint;

use crate::fleet::{at, sweep, ExpReport, Scale};
use crate::table::Table;
use crate::workloads::{p_block, plans, run_point};

/// The redundancy ablation: {flash-crowd, flashcrowd-crash} x
/// {mirrored, coded} at equal (2x) storage overhead.
pub fn ablation_coded_report(scale: Scale, threads: usize) -> ExpReport {
    let all = plans();
    let surge = all
        .iter()
        .find(|(n, _)| *n == "flash-crowd")
        .expect("catalogue has the flash-crowd plan");
    let crash = all
        .iter()
        .find(|(n, _)| *n == "flashcrowd-crash")
        .expect("catalogue has the composed plan");
    let seed = 1997u64;
    let points: Vec<(&str, String, RedundancyMode)> = [surge, crash]
        .iter()
        .flat_map(|(name, tmpl)| {
            [RedundancyMode::Mirrored, RedundancyMode::Coded]
                .into_iter()
                .map(move |mode| (*name, tmpl(scale), mode))
        })
        .collect();
    let runs = sweep(&points, threads, |(name, text, mode)| {
        let (result, violations) = run_point(text, *mode, seed);
        (result, at(format!("{name} {}", mode.name()), violations))
    });
    let results = &runs.results;

    let mut out = Table::new(points.iter().zip(results))
        .note(format!("(seed {seed}, small-test system, 2x storage both)"))
        .left("plan", |((name, ..), _)| name.to_string())
        .left("backend", |((.., mode), _)| mode.name().to_string())
        .left("outcome", |(_, r)| r.digest.clone())
        .render();

    // Side-by-side blocking-probability curves for the surge. Both runs
    // see the identical arrival sequence (demand is a pure function of
    // the plan and seed); only admission differs.
    let (mirrored, coded) = (&results[0].curve, &results[1].curve);
    out += &format!("\nflash-crowd blocking-probability curve (mirrored vs coded, seed {seed}):\n");
    let blocking = |pt: Option<&CurvePoint>| pt.map_or((0, 0.0), |p| (p.blocked, p_block(p)));
    // (t, arrivals, mirrored and coded (blocked, p_block)) a bucket.
    let buckets = (0..mirrored.len().max(coded.len())).map(|i| {
        let (m, c) = (mirrored.get(i), coded.get(i));
        let (t, arrivals) = m.or(c).map_or((0, 0), |p| (p.t_secs, p.arrivals));
        (t, arrivals, blocking(m), blocking(c))
    });
    out += &Table::new(buckets)
        .right("t_bucket", |b| format!("{}s", b.0))
        .right("arrivals", |b| b.1.to_string())
        .right("m_blocked", |b| b.2 .0.to_string())
        .right("m_p_block", |b| format!("{:.4}", b.2 .1))
        .right("c_blocked", |b| b.3 .0.to_string())
        .right("c_p_block", |b| format!("{:.4}", b.3 .1))
        .render();

    let peak = |curve: &[CurvePoint]| curve.iter().map(p_block).fold(0.0, f64::max);
    // The whole run as one bucket.
    let overall = |curve: &[CurvePoint]| {
        let (arrivals, blocked) = curve
            .iter()
            .fold((0, 0), |(a, b), p| (a + p.arrivals, b + p.blocked));
        p_block(&CurvePoint {
            t_secs: 0,
            arrivals,
            blocked,
        })
    };
    let (m_peak, c_peak) = (peak(mirrored), peak(coded));
    let (m_all, c_all) = (overall(mirrored), overall(coded));
    let bad = runs.violations();
    let verdict = |pass| if pass { "PASS" } else { "FAIL" };
    let blocks_no_more = c_peak <= m_peak && c_all <= m_all;
    let (m_missing, c_missing) = (results[2].missing, results[3].missing);
    out += &format!(
        "\nblocking probability: mirrored peak {m_peak:.4} overall {m_all:.4}  \
         coded peak {c_peak:.4} overall {c_all:.4}\n\
         check: coded blocking <= mirrored (peak and overall) at equal storage: {}\n\
         check: chaos invariants 1-6 on both backends under the crash: {}\n\n\
         shape: at k = 2 the coded backend's worst-case slot work (two \
         half-block shard reads) undercuts mirroring's full block + piece, \
         so the same disks admit more of the surge; under the crash coded \
         misses {c_missing} blocks against mirroring's {m_missing}. At k = 4 \
         the relation flips — see docs/CODED.md. violations: {bad}.\n",
        verdict(blocks_no_more),
        verdict(bad == 0),
    );
    let mut report = runs.report(out);
    report.ok &= blocks_no_more;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_coded_report_is_thread_count_invariant() {
        let one = ablation_coded_report(Scale::Quick, 1);
        let three = ablation_coded_report(Scale::Quick, 3);
        assert_eq!(one.output, three.output);
        assert!(one.ok, "ablation checks failed:\n{}", one.output);
    }

    #[test]
    fn coded_peak_does_not_exceed_mirrored_at_quick_scale() {
        let report = ablation_coded_report(Scale::Quick, 2);
        assert!(
            report
                .output
                .contains("coded blocking <= mirrored (peak and overall) at equal storage: PASS"),
            "{}",
            report.output
        );
    }
}
