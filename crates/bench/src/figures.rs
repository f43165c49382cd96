//! The paper's §5 figures and the numbers its text reports: the Figure
//! 8/9 load ramps, Figure 10's startup latencies, the loss rates, the
//! capacity derivation, the power-cut reconfiguration window, and §3.3's
//! centralized-vs-distributed control traffic.

use tiger_core::{central_control_send_rate, CpuModel, Metrics, TigerConfig, WindowSample};
use tiger_faults::FaultPlan;
use tiger_layout::{CubId, MirrorPlacement, StripeConfig};
use tiger_sim::{SimDuration, SimTime};
use tiger_workload::{
    run, run_ramp, run_startup, CatalogSpec, Demand, RampConfig, RampResult, Scenario,
    StartupConfig, StartupResult,
};

use crate::fleet::{sweep, ExpReport, Scale};
use crate::table::Table;

/// The Figure 8/9 series under `# title`: streams on the x-axis, loads on
/// the left axis, control traffic on the right.
pub fn ramp_table(title: &str, windows: &[WindowSample]) -> String {
    let mut out = format!("# {title}\n");
    out += &Table::new(windows)
        .right("streams", |w| w.streams.to_string())
        .right("cub_cpu%", |w| format!("{:.1}", w.cub_cpu * 100.0))
        .right("ctrl_cpu%", |w| format!("{:.2}", w.controller_cpu * 100.0))
        .right("disk_load%", |w| format!("{:.1}", w.disk_load * 100.0))
        .right("nic_util%", |w| format!("{:.1}", w.nic_utilization * 100.0))
        .right("ctrl_traffic_B/s", |w| {
            format!("{:.0}", w.control_bytes_per_sec)
        })
        .render();
    out
}

/// The Figure 10 series: per load bin, the starts' mean, min and max
/// latency and the count of >20 s outliers.
fn startup_table(result: &StartupResult) -> String {
    let edges = [
        0.0, 0.55, 0.65, 0.75, 0.825, 0.875, 0.925, 0.965, 0.99, 1.01,
    ];
    // (lo, hi, latencies) a non-empty bin.
    let rows = edges.windows(2).filter_map(|bin| {
        let (lo, hi) = (bin[0], bin[1]);
        let in_bin = result.samples.iter().filter(|(l, _)| *l >= lo && *l < hi);
        let samples: Vec<f64> = in_bin.map(|&(_, s)| s).collect();
        (!samples.is_empty()).then_some((lo, hi, samples))
    });
    let mut out = "# Figure 10: stream startup latency vs schedule load\n".to_string();
    out += &Table::new(rows)
        .left("load_bin", |(lo, hi, _)| format!("{lo:.2}-{hi:.2}"))
        .right("n", |(_, _, s)| s.len().to_string())
        .right("mean_s", |(_, _, s)| {
            format!("{:.2}", s.iter().sum::<f64>() / s.len() as f64)
        })
        .right("min_s", |(_, _, s)| {
            format!("{:.2}", s.iter().copied().fold(f64::INFINITY, f64::min))
        })
        .right("max_s", |(_, _, s)| {
            format!("{:.2}", s.iter().copied().fold(0.0f64, f64::max))
        })
        .right(">20s", |(_, _, s)| {
            s.iter().filter(|&&s| s > 20.0).count().to_string()
        })
        .render();
    out
}

fn metrics_of(result: &RampResult) -> Metrics {
    Metrics {
        windows: result.windows.clone(),
        loss: result.loss.clone(),
        start_latencies: result.start_latencies.clone(),
        ..Metrics::default()
    }
}

/// One ramp and the violations its omniscient checker found.
fn checked_ramp(cfg: &RampConfig) -> (RampResult, Vec<String>) {
    let mut result = run_ramp(cfg);
    let violations = std::mem::take(&mut result.violations);
    (result, violations)
}

fn ramp_summary(result: &RampResult, failed: bool) -> String {
    let loss = &result.loss;
    let rate = match loss.one_in() {
        Some(n) => format!("1 in {n}"),
        None => format!("none of {}", loss.blocks_scheduled),
    };
    let (sent, missed) = if failed {
        let missed = format!(" ({} of them mirror pieces)", loss.mirror_missed);
        (" (incl. mirror pieces)", missed)
    } else {
        ("", String::new())
    };
    // Where the run's events went, per block (or mirror piece) sent.
    let per_send = |n: u64| n as f64 / loss.blocks_sent.max(1) as f64;
    let total: u64 = result.events_by_kind.iter().map(|&(_, n)| n).sum();
    let by_kind: Vec<String> = result
        .events_by_kind
        .iter()
        .map(|&(kind, n)| format!("{kind} {:.2}", per_send(n)))
        .collect();
    format!(
        "blocks scheduled: {}  sent{sent}: {}  server missed: {}{missed}  ({rate})\n\
         client-observed missing: {}  received: {}\n\
         peak read-ahead buffers: {:.1} MB (testbed cache: 20 MB/cub)\n\
         reads that waited for a buffer: {}  issued at their floor, over the cache: {}\n\
         events dispatched per send: {:.2} ({})\n",
        loss.blocks_scheduled,
        loss.blocks_sent,
        loss.server_missed,
        result.client_missing,
        result.client_received,
        result.peak_buffers as f64 / 1e6,
        result.reads_waited,
        result.reads_forced,
        per_send(total),
        by_kind.join(", "),
    )
}

/// Figure 8, the unfailed ramp (§5), or — `failed` — Figure 9, the same
/// ramp with one cub failed throughout. One simulation — nothing to
/// shard — but part of the fleet so it runs concurrently with every other
/// job.
pub fn ramp_report(scale: Scale, failed: bool) -> ExpReport {
    let cfg = match scale {
        Scale::Full => {
            let base = if failed {
                RampConfig::fig9
            } else {
                RampConfig::fig8
            };
            // A hold at the top lets the final insertions land (near 100%
            // load they can take most of the 56 s schedule, §5); the failed
            // test ran a further hour at 602 streams.
            let hold = SimDuration::from_secs(if failed { 3_600 } else { 100 });
            RampConfig {
                hold_at_peak: hold,
                ..base(TigerConfig::sosp97(), SimDuration::from_secs(50))
            }
        }
        Scale::Quick => quick_ramp(TigerConfig::small_test(), failed),
    };
    let title = match (scale, failed) {
        (Scale::Full, false) => "Figure 8 (unfailed ramp to 602)",
        (Scale::Full, true) => {
            "Figure 9 (cub 5 failed; disk/control columns report mirroring cub 6)"
        }
        (Scale::Quick, false) => "Figure 8 (unfailed ramp, quick scale)",
        (Scale::Quick, true) => "Figure 9 (one failed cub, quick scale)",
    };
    let ramp = sweep(&[cfg], 1, checked_ramp);
    let result = &ramp.results[0];
    let out = ramp_table(title, &result.windows) + "\n" + &ramp_summary(result, failed);
    ExpReport {
        metrics: vec![metrics_of(result)],
        ..ramp.report(out)
    }
}

/// The paper ramps shrunk to the unit-test scale used across the repo:
/// Figure 8's on the small-test system, or — `failed` — Figure 9's, with
/// cub 2 dead throughout and mirroring cub 3 reporting.
fn quick_ramp(tiger: TigerConfig, failed: bool) -> RampConfig {
    let settle = SimDuration::from_secs(15);
    let unfailed = RampConfig {
        catalog: CatalogSpec::sized_for(SimDuration::from_secs(120), 4),
        step: 8,
        target: Some(24),
        ..RampConfig::fig8(tiger, settle)
    };
    if !failed {
        return unfailed;
    }
    RampConfig {
        failed_cub: Some(CubId(2)),
        target: Some(16),
        hold_at_peak: SimDuration::from_secs(30),
        ..unfailed
    }
}

/// Figure 10: stream startup latency vs schedule load, combining an
/// unfailed and a failed run as the paper did ("This graph combines the
/// stream starts from both the failed and non-failed tests").
pub fn fig10_report(scale: Scale, threads: usize) -> ExpReport {
    let (unfailed, victim) = match scale {
        Scale::Full => (
            StartupConfig {
                probes_per_load: 100,
                ..StartupConfig::fig10(TigerConfig::sosp97())
            },
            CubId(5),
        ),
        Scale::Quick => (
            StartupConfig {
                catalog: CatalogSpec::sized_for(SimDuration::from_secs(300), 8),
                loads: vec![0.5, 0.9],
                probes_per_load: 8,
                ..StartupConfig::fig10(TigerConfig::small_test())
            },
            CubId(2),
        ),
    };
    let mut failed = unfailed.clone();
    failed.failed_cub = Some(victim);
    failed.tiger.seed += 1;
    let runs = sweep(&[unfailed, failed], threads, |cfg| {
        let result = run_startup(cfg);
        (result.samples, result.violations)
    });
    let combined = StartupResult {
        samples: runs.results.concat(),
        violations: Vec::new(),
    };

    let mut out = startup_table(&combined);
    out += &format!(
        "\ntotal starts: {}\n\
         min latency: {:.2} s (paper: ~1.8 s)\n\
         max latency: {:.2} s (paper: some took ~the full 56 s schedule)\n\
         mean at 90-100% load: {:.2} s (paper: <5 s at 95%)\n\
         >20 s outliers: {}\n",
        combined.samples.len(),
        combined.min(),
        combined.max(),
        combined.mean_in(0.90, 1.01).unwrap_or(f64::NAN),
        combined.count_above(20.0),
    );
    ExpReport {
        metrics: vec![Metrics {
            start_latencies: combined.samples,
            ..Metrics::default()
        }],
        ..runs.report(out)
    }
}

/// §5 delivered-block loss rates: the unfailed ramp held long enough to
/// accumulate a few million blocks, and the failed ramp with the paper's
/// hour at 602 streams. (Paper: 1 in ~275,000 unfailed, 1 in 78,000 over
/// the failed ramp, 1 in ~40,000 over the failed hour, "spread over the
/// entire test, rather than being clustered at the highest load".)
pub fn loss_rates_report(scale: Scale, threads: usize) -> ExpReport {
    let hold = |secs, base| RampConfig {
        hold_at_peak: SimDuration::from_secs(secs),
        ..base
    };
    let settle = SimDuration::from_secs(50);
    let ramps = match scale {
        Scale::Full => [
            hold(5_400, RampConfig::fig8(TigerConfig::sosp97(), settle)),
            hold(3_600, RampConfig::fig9(TigerConfig::sosp97(), settle)),
        ],
        Scale::Quick => [
            hold(60, quick_ramp(TigerConfig::small_test(), false)),
            hold(60, quick_ramp(TigerConfig::small_test(), true)),
        ],
    };
    let ramps = sweep(&ramps, threads, checked_ramp);
    let (u, f) = (&ramps.results[0], &ramps.results[1]);
    let one_in = |r: &RampResult| r.loss.one_in().map_or("inf".into(), |n| n.to_string());
    let out = format!(
        "unfailed: scheduled {}  missed {}  rate 1 in {}\n\
         failed:   scheduled {}  missed {} ({} mirror pieces)  rate 1 in {}\n\n\
         shape check: failed-mode loss rate should exceed unfailed (paper: ~4-7x);\n\
         client-observed missing blocks — unfailed: {}  failed: {}\n\
         buffer-cache hit rate — unfailed: {:.4}%  failed: {:.4}%  (paper: <0.05%)\n",
        u.loss.blocks_scheduled,
        u.loss.server_missed,
        one_in(u),
        f.loss.blocks_scheduled,
        f.loss.server_missed,
        f.loss.mirror_missed,
        one_in(f),
        u.client_missing,
        f.client_missing,
        u.cache_hit_rate * 100.0,
        f.cache_hit_rate * 100.0
    );
    ExpReport {
        metrics: ramps.results.iter().map(metrics_of).collect(),
        ..ramps.report(out)
    }
}

/// The §5 power-cut at 50% load, at paper scale or on the small-test
/// system, with everything but the deadman timeout fixed.
pub(crate) fn power_cut(scale: Scale) -> Scenario {
    let (tiger, catalog, cut, run_to) = match scale {
        Scale::Full => (
            TigerConfig::sosp97(),
            CatalogSpec::sosp97(),
            "crash c5 at=120s",
            240,
        ),
        Scale::Quick => (
            TigerConfig::small_test(),
            CatalogSpec::sized_for(SimDuration::from_secs(100), 4),
            "crash c2 at=40s",
            80,
        ),
    };
    Scenario {
        demand: Demand::half_load(&tiger),
        tiger,
        catalog,
        faults: FaultPlan::parse(cut).expect("the power cut parses"),
        run_to: SimTime::from_secs(run_to),
    }
}

/// §5 reconfiguration time: "We loaded the system to 50% of capacity and
/// cut the power to a cub. We inspected the clients' logs and found about
/// 8 seconds between the earliest and latest lost block."
pub fn reconfig_report(scale: Scale, threads: usize) -> ExpReport {
    let cut = [power_cut(scale)];
    let runs = sweep(&cut, threads, |scenario| {
        let r = run(scenario);
        let streams = r.sys.controller().active_streams();
        let found = (r.detection_secs(), r.lost_blocks().count(), r.loss_span());
        ((streams, found, r.loss_window_secs()), r.violations)
    });
    let (streams, (detection, lost, span), window) = runs.results[0];
    let out = format!(
        "streams at cut:          {streams}\n\
         deadman detection:       {:.2} s after the cut (timeout {:?})\n\
         blocks lost:             {lost}\n\
         earliest lost block due: {:.2} s  latest: {:.2} s\n\
         loss window:             {window:.2} s (paper: ~8 s)\n",
        detection.unwrap_or(f64::NAN),
        cut[0].tiger.deadman_timeout,
        span.map_or(f64::NAN, |(e, _)| e),
        span.map_or(f64::NAN, |(_, l)| l),
    );
    runs.report(out)
}

/// One unfailed ramp to capacity on a ring of `cubs`; returns the streams
/// admitted and cub 0's control traffic over the last window, and the
/// run's violations.
fn distributed_per_cub_traffic(scale: Scale, cubs: u32) -> ((u32, f64), Vec<String>) {
    let (mut tiger, disks, decluster, settle) = match scale {
        Scale::Full => (TigerConfig::sosp97(), 4, 4, SimDuration::from_secs(25)),
        Scale::Quick => (TigerConfig::small_test(), 1, 2, SimDuration::from_secs(15)),
    };
    tiger.stripe = StripeConfig::new(cubs, disks, decluster);
    tiger.num_clients = (cubs * 3).max(8);
    // Files must outlast the whole ramp so streams do not decay to EOF.
    let capacity_estimate = cubs * disks * 11;
    let ramp_len = settle.mul_u64(u64::from(capacity_estimate / 30 + 2));
    let cfg = RampConfig {
        catalog: CatalogSpec::sized_for(ramp_len, 16),
        settle,
        ..RampConfig::fig8(tiger, settle)
    };
    let result = run_ramp(&cfg);
    let last = result.windows.last().expect("windows");
    (
        (last.streams, last.control_bytes_per_sec),
        result.violations,
    )
}

/// §3.3, why schedule management is distributed: a centralized controller
/// must push one ~100-byte command per stream per block play time — 3-4
/// MB/s at 40,000 streams, "probably beyond the capability of the class
/// of personal computers used to construct a Tiger system" — while the
/// distributed design's per-cub control traffic stays constant as the
/// system grows.
pub fn scalability_report(scale: Scale, threads: usize) -> ExpReport {
    let mut out = "-- centralized controller (analytic, 100 B commands + framing) --\n".to_string();
    for streams in [602u64, 4_000, 10_000, 40_000] {
        let rate = central_control_send_rate(streams, SimDuration::from_secs(1)) / 1e6;
        out += &format!("{streams:>7} streams -> controller must send {rate:>10.2} MB/s\n");
    }
    let params = TigerConfig::sosp97().schedule_params();
    let (streams, bpt) = (params.capacity(), params.block_play_time());
    // Every command is controller work, unlike the distributed design
    // where the controller only sees start and stop requests.
    let commands_per_sec = f64::from(streams) / bpt.as_secs_f64();
    out += &format!(
        "\n-- centralized controller (closed form at the §5 capacity) --\n\
         {streams} streams -> {:.1} KB/s control sends, controller CPU {:.1}%\n\n\
         -- distributed (measured per-cub viewer-state traffic) --\n",
        central_control_send_rate(u64::from(streams), bpt) / 1e3,
        CpuModel::pentium133().controller_load(0.0, commands_per_sec) * 100.0
    );
    let rings: &[u32] = match scale {
        Scale::Full => &[7, 14, 28],
        Scale::Quick => &[4, 8],
    };
    let measured = sweep(rings, threads, |&cubs| {
        distributed_per_cub_traffic(scale, cubs)
    });
    out += &Table::new(rings.iter().zip(&measured.results))
        .right("cubs", |(cubs, _)| cubs.to_string())
        .right("streams", |(_, (streams, _))| streams.to_string())
        .right("per-cub control B/s", |(_, (_, rate))| format!("{rate:.0}"))
        .render();
    out += "\nnote: per-cub traffic tracks streams *per cub* (constant as the \
         system scales out), while the central controller's rate tracks \
         *total* streams.\n";
    measured.report(out)
}

/// §5 capacity: the analytic derivation ("each of the disks is capable of
/// delivering about 10.75 primary streams while doing its part in
/// covering for a failed peer. Thus, the 56 disks in the system can
/// deliver at most 602 streams"), always for the §5 testbed, then the
/// failed-mode section measured over several workload seeds — one full
/// ramp per seed, merged in seed order.
pub fn capacity_report(scale: Scale, threads: usize) -> ExpReport {
    let tiger = TigerConfig::sosp97();
    let params = tiger.schedule_params();
    let mut out = format!(
        "worst-case block service work: {:?}\n\
         streams per disk (worst case): {:.2}  (paper: 10.75)\n\
         block service time (lengthened): {:?}\n\
         schedule length: {:?}  (block play time x {} disks)\n\
         system capacity: {} streams  (paper: 602)\n\
         bandwidth reserved for failed mode: {:.1}%  (paper: a fifth at decluster 4)\n\
         storage: 56 x 2.25 GB disks, half for primaries = {:.1} hours of 2 Mbit/s content \
         (paper: slightly more than 64 hours)\n\n",
        tiger.disk_worst_read(),
        tiger.disk.streams_per_disk(
            tiger.block_size(),
            tiger.block_play_time,
            tiger.stripe.decluster,
            true,
        ),
        params.block_service_time(),
        params.schedule_len(),
        tiger.stripe.num_disks(),
        params.capacity(),
        MirrorPlacement::new(tiger.stripe).reserved_bandwidth_fraction() * 100.0,
        56.0 * 2.25e9 / 2.0 / 250_000.0 / 3600.0
    );

    let seeds: &[u64] = match scale {
        Scale::Full => &[1997, 42, 7],
        Scale::Quick => &[1997, 42],
    };
    let settle = SimDuration::from_secs(25);
    let ramps: Vec<RampConfig> = seeds
        .iter()
        .map(|&seed| {
            let mut ramp = match scale {
                Scale::Full => RampConfig {
                    catalog: CatalogSpec::sized_for(SimDuration::from_secs(600), 16),
                    settle,
                    hold_at_peak: SimDuration::from_secs(120),
                    ..RampConfig::fig9(TigerConfig::sosp97(), settle)
                },
                Scale::Quick => quick_ramp(TigerConfig::small_test(), true),
            };
            ramp.tiger.seed = seed;
            ramp
        })
        .collect();
    let ramps = sweep(&ramps, threads, checked_ramp);
    out.push_str("-- measured at full failed-mode load (mirroring cub), per workload seed --\n");
    let last = ramps
        .results
        .iter()
        .map(|r| r.windows.last().expect("windows"));
    out += &Table::new(seeds.iter().zip(last))
        .right("seed", |(seed, _)| seed.to_string())
        .right("streams", |(_, w)| w.streams.to_string())
        .right("mirror_disk_load%", |(_, w)| {
            format!("{:.1}", w.disk_load * 100.0)
        })
        .right("mean_nic_util%", |(_, w)| {
            format!("{:.1}", w.nic_utilization * 100.0)
        })
        .render();
    out += "\nshape: the capacity figures are workload-seed independent — the \
         schedule admits the same stream count and the mirroring cub's duty \
         cycle stays in the same band across seeds.\n\
         (paper: mirroring-cub disks >95% duty cycle; >13.4 MB/s sends \
         at 135 Mbit/s NIC = >79% utilization)\n";
    ExpReport {
        metrics: ramps.results.iter().map(metrics_of).collect(),
        ..ramps.report(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_table_has_one_row_per_window() {
        let window = |secs, streams, scale: f64| WindowSample {
            at: SimTime::from_secs(secs),
            streams,
            cub_cpu: 0.1 * scale,
            controller_cpu: 0.01,
            disk_load: 0.12 * scale,
            control_bytes_per_sec: 900.0 * scale,
            nic_utilization: 0.03 * scale,
        };
        let table = ramp_table("Figure 8", &[window(50, 30, 1.0), window(100, 60, 2.0)]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "# Figure 8");
        assert!(lines[2].trim_start().starts_with("30"));
        assert!(lines[3].trim_start().starts_with("60"));
        // Every column is right-aligned, so the header and rows end together.
        assert!(lines[1..].iter().all(|l| l.len() == lines[1].len()));
    }

    #[test]
    fn startup_table_bins_samples_and_leaves_out_empty_bins() {
        let result = StartupResult {
            samples: vec![(0.5, 1.8), (0.51, 2.0), (0.95, 25.0)],
            violations: Vec::new(),
        };
        // Seven of the nine bins hold no sample and print no row.
        assert_eq!(
            startup_table(&result),
            "# Figure 10: stream startup latency vs schedule load\n\
             load_bin   n  mean_s  min_s  max_s  >20s\n\
             0.00-0.55  2    1.90   1.80   2.00     0\n\
             0.93-0.96  1   25.00  25.00  25.00     1\n"
        );
    }
}
