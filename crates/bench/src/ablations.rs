//! The ablations: each sweeps one design choice of the paper (decluster
//! factor, forwarding, viewer-state lead, start quantization, two-phase
//! insertion, deadman timeout, admission control) over a few settings.

use tiger_core::{ForwardingPolicy, MbrConfig, MbrDistStats, MbrSystem, TigerConfig};
use tiger_faults::FaultPlan;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, DiskId, MirrorPlacement, StripeConfig, ViewerId};
use tiger_net::LatencyModel;
use tiger_sched::{NetEntryId, NetworkSchedule, ScheduleParams};
use tiger_sim::{Bandwidth, ByteSize, RngTree, SimDuration, SimRng, SimTime};
use tiger_workload::{run, run_startup, CatalogSpec, Demand, Scenario, StartupConfig};

use crate::figures::power_cut;
use crate::fleet::{sweep, ExpReport, Scale};
use crate::table::Table;

/// §2.3 decluster-factor tradeoff. Analytic (no simulation), so scale
/// changes nothing; the four factors still shard across workers.
pub fn decluster_report(_scale: Scale, threads: usize) -> ExpReport {
    let disk = tiger_disk::DiskProfile::sosp97();
    let rows = sweep(&[1u32, 2, 4, 8], threads, |&d| {
        let stripe = StripeConfig::new(14, 4, d);
        let placement = MirrorPlacement::new(stripe);
        let worst = disk.worst_case_read(ByteSize::from_bytes(250_000), d, true);
        let params = ScheduleParams::derive(
            stripe,
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            worst,
            Bandwidth::from_mbit_per_sec(135),
        );
        let reserved = placement.reserved_bandwidth_fraction() * 100.0;
        let exposure = placement.second_failure_exposure(DiskId(20)).len();
        let (capacity, service) = (params.capacity(), params.block_service_time());
        ((d, reserved, exposure, capacity, service), Vec::new())
    });
    let mut out = Table::new(&rows.results)
        .right("decluster", |r| r.0.to_string())
        .right("reserved_bw%", |r| format!("{:.1}", r.1))
        .right("exposure(disks)", |r| r.2.to_string())
        .right("capacity(56 disks)", |r| r.3.to_string())
        .left("svc_time", |r| format!("{:?}", r.4))
        .render();
    out += "\nshape: higher decluster -> less reserved bandwidth (higher capacity) \
         but wider two-failure exposure.\n";
    rows.report(out)
}

/// One film of `secs` seconds: what the forwarding and lead ablations
/// play to every viewer.
fn one_film(secs: u64) -> CatalogSpec {
    CatalogSpec {
        files: 1,
        duration: SimDuration::from_secs(secs),
        bitrate: Bandwidth::from_mbit_per_sec(2),
    }
}

/// §4.1.1 single vs double forwarding: three independent failure runs.
pub fn forwarding_report(scale: Scale, threads: usize) -> ExpReport {
    let points = [
        ("single, no recovery", ForwardingPolicy::Single, false),
        ("single + go-back", ForwardingPolicy::Single, true),
        ("double (paper)", ForwardingPolicy::Double, true),
    ];
    let (base, starts, crash, run_to, film) = match scale {
        Scale::Full => (TigerConfig::sosp97(), 100, "crash c5 at=60s", 260, 240),
        Scale::Quick => (TigerConfig::small_test(), 24, "crash c2 at=30s", 120, 100),
    };
    // (missing, starved tail, cub 0's control bytes) a row.
    let rows = sweep(&points, threads, |&(_, forwarding, gap_recovery)| {
        let r = run(&Scenario {
            tiger: TigerConfig {
                forwarding,
                gap_recovery,
                ..base.clone()
            },
            catalog: one_film(film),
            demand: Demand::Paced {
                starts,
                every: SimDuration::from_millis(180),
            },
            faults: FaultPlan::parse(crash).expect("the crash parses"),
            run_to: SimTime::from_secs(run_to),
        });
        let viewers = r.sys.clients().iter().flat_map(|c| c.viewers());
        let tail: u64 = viewers.map(|(_, v)| u64::from(v.tail_missing())).sum();
        let node = r.sys.shared().cub_node(CubId(0));
        let bytes = r.sys.shared().net.total_control_bytes(node);
        let missing = r.sys.all_clients_report().blocks_missing;
        ((missing, tail, bytes), r.violations)
    });
    let mut out = Table::new(points.iter().zip(&rows.results))
        .left("policy", |((label, ..), _)| label.to_string())
        .right("missing_blocks", |(_, r)| r.0.to_string())
        .right("starved_tail_blocks", |(_, r)| r.1.to_string())
        .right("cub0_control_bytes", |(_, r)| r.2.to_string())
        .render();
    let [bare, go_back, double] = [0, 1, 2].map(|i| rows.results[i]);
    let fewer = if double.0 < go_back.0 {
        "fewer"
    } else {
        "no fewer"
    };
    out += &format!(
        "\ncontrol-traffic ratio single/double: {:.2} (paper: single would have \
         halved viewer-state sends)\n\
         shape: bare single forwarding leaves {} tail blocks starved (a stream \
         whose record died with the cub never resumes); the go-back machinery \
         the paper deemed not worth building recovers them. Across the failure \
         double forwarding loses {fewer} blocks than single + go-back ({} against {}), \
         for {:.1}x the viewer-state bytes.\n",
        go_back.2 as f64 / double.2 as f64,
        bare.1,
        double.0,
        go_back.0,
        double.2 as f64 / go_back.2 as f64,
    );
    rows.report(out)
}

/// §4.1.1 viewer-state lead sensitivity: four independent lead-gap runs.
/// Every `maxVStateLead` stays below the ring's schedule length (4 s on
/// the quick ring, 56 s at paper scale).
pub fn lead_report(scale: Scale, threads: usize) -> ExpReport {
    let (base, starts, points, run_to, film): (_, _, &[(u64, u64)], _, _) = match scale {
        Scale::Full => (
            TigerConfig::sosp97(),
            200,
            &[
                (800, 1_000), // barely above the scheduling lead, tiny gap
                (2_000, 3_000),
                (4_000, 9_000), // the paper's typical values
                (4_000, 20_000),
            ],
            260,
            240,
        ),
        Scale::Quick => (
            TigerConfig::small_test(),
            24,
            &[(800, 1_000), (1_000, 1_500), (1_000, 2_500), (1_000, 3_500)],
            80,
            60,
        ),
    };
    // (min and max lead in ms, missing, cub 0's control messages and
    // bytes, stalled streams) a row.
    let rows = sweep(points, threads, |&(min_ms, max_ms)| {
        let mut tiger = base.clone();
        tiger.disk = tiger.disk.without_blips(); // isolate protocol-induced lateness
        tiger.min_vstate_lead = SimDuration::from_millis(min_ms);
        tiger.max_vstate_lead = SimDuration::from_millis(max_ms);
        // The batching cadence the lead gap affords (§4.1.1), floored at a
        // sane minimum.
        tiger.forward_interval =
            SimDuration::from_millis((max_ms - min_ms) / 2).max(SimDuration::from_millis(100));
        let r = run(&Scenario {
            tiger,
            catalog: one_film(film),
            demand: Demand::Paced {
                starts,
                every: SimDuration::from_millis(90),
            },
            faults: FaultPlan::new(),
            run_to: SimTime::from_secs(run_to),
        });
        let node = r.sys.shared().cub_node(CubId(0));
        let net = &r.sys.shared().net;
        let missing = r.sys.all_clients_report().blocks_missing;
        let (msgs, bytes) = (net.total_control_msgs(node), net.total_control_bytes(node));
        let row = (min_ms, max_ms, missing, msgs, bytes, r.stalled().len());
        (row, r.violations)
    });
    let mut out = Table::new(&rows.results)
        .right("min_lead", |r| format!("{:.1}s", r.0 as f64 / 1e3))
        .right("max_lead", |r| format!("{:.1}s", r.1 as f64 / 1e3))
        .right("missing_blocks", |r| r.2.to_string())
        .right("cub0_msgs", |r| r.3.to_string())
        .right("cub0_bytes", |r| r.4.to_string())
        .right("bytes/msg", |r| format!("{:.1}", r.4 as f64 / r.3 as f64))
        .right("stalled", |r| r.5.to_string())
        .render();
    out += "\nshape: the paper's 4 s/9 s leads cut per-cub message counts several-fold \
         versus a tight gap, by amortizing framing over batched viewer states; \
         bytes/msg grows several-fold from the tightest cadence to the paper's gap.\n";
    rows.report(out)
}

struct ChurnStats {
    /// Mean number of arrival opportunities a viewer waits before its
    /// entry fits (1 = admitted at its first position).
    mean_tries: f64,
    /// Arrivals that never fit within the retry budget.
    gave_up: u64,
    fragmentation: f64,
    steady_streams: usize,
}

fn churn(quantum: Option<SimDuration>, seed: u64, churns: u32) -> ChurnStats {
    let capacity = Bandwidth::from_mbit_per_sec(24);
    let bpt = SimDuration::from_secs(1);
    let mut sched = NetworkSchedule::new(14, bpt, capacity, quantum);
    let ring_ns = sched.len_duration().as_nanos();
    let mut rng = RngTree::new(seed).fork("frag", 0);
    let rate = Bandwidth::from_mbit_per_sec(2);
    let mut live: Vec<(ViewerInstance, NetEntryId)> = Vec::new();
    let mut next_viewer = 0u64;
    let mut total_tries = 0u64;
    let mut admissions = 0u64;
    let mut gave_up = 0u64;
    const RETRIES: u64 = 40;

    // An arrival attempts positions derived from successive arrival
    // instants until one fits (each retry models waiting for a later
    // opportunity).
    let mut admit = |sched: &mut NetworkSchedule,
                     rng: &mut tiger_sim::SimRng,
                     live: &mut Vec<(ViewerInstance, NetEntryId)>|
     -> bool {
        let inst = ViewerInstance {
            viewer: ViewerId(next_viewer),
            incarnation: 0,
        };
        next_viewer += 1;
        for attempt in 1..=RETRIES {
            let arrival = rng.gen_range(0..ring_ns);
            let start_ns = match quantum {
                Some(q) => arrival.div_ceil(q.as_nanos()) * q.as_nanos() % ring_ns,
                None => arrival,
            };
            if let Ok(id) = sched.insert(inst, SimDuration::from_nanos(start_ns), rate, false) {
                live.push((inst, id));
                total_tries += attempt;
                admissions += 1;
                return true;
            }
        }
        gave_up += 1;
        false
    };

    // Fill to a high watermark (~93% of the 168-stream ceiling), then churn:
    // one departure, one arrival, repeatedly. Fragmentation shows up as
    // arrivals failing to reuse the bandwidth departures freed.
    let mut rng_fill = RngTree::new(seed).fork("frag-fill", 0);
    while live.len() < 156 {
        if !admit(&mut sched, &mut rng_fill, &mut live) {
            break;
        }
    }
    for _ in 0..churns {
        let idx = rng.gen_range(0..live.len());
        let (inst, _) = live.swap_remove(idx);
        sched.remove_instance(inst);
        admit(&mut sched, &mut rng, &mut live);
    }
    ChurnStats {
        mean_tries: total_tries as f64 / admissions.max(1) as f64,
        gave_up,
        fragmentation: sched.fragmentation(rate, SimDuration::from_millis(25)),
        steady_streams: sched.len(),
    }
}

/// The mean of `of` over one policy's runs, one a seed.
fn mean(runs: &[ChurnStats], of: fn(&ChurnStats) -> f64) -> f64 {
    runs.iter().map(of).sum::<f64>() / runs.len() as f64
}

/// §3.2 fragmentation vs start-time quantization: four policies × five
/// seeds = twenty independent churn runs, the widest shard fan-out in the
/// catalogue.
pub fn fragmentation_report(scale: Scale, threads: usize) -> ExpReport {
    let churns = match scale {
        Scale::Full => 2_000u32,
        Scale::Quick => 300,
    };
    let policies = [
        ("arbitrary", None),
        ("bpt/2 grid", Some(SimDuration::from_millis(500))),
        ("bpt/4 grid (paper)", Some(SimDuration::from_millis(250))),
        ("bpt/8 grid", Some(SimDuration::from_millis(125))),
    ];
    const SEEDS: u64 = 5;
    // Shard at (policy, seed) granularity; rows still aggregate per policy
    // in policy order, so output is independent of the shard interleaving.
    let points: Vec<(Option<SimDuration>, u64)> = policies
        .iter()
        .flat_map(|&(_, quantum)| (0..SEEDS).map(move |seed| (quantum, seed)))
        .collect();
    let stats = sweep(&points, threads, |&(quantum, seed)| {
        (churn(quantum, seed, churns), Vec::new())
    });
    // (label, the policy's runs, one a seed) a row.
    let rows = policies
        .iter()
        .zip(stats.results.chunks(SEEDS as usize))
        .map(|(&(label, _), runs)| (label, runs));
    let mut out = Table::new(rows)
        .note(format!("(mean of {SEEDS} seeds)"))
        .left("start policy", |(label, _)| label.to_string())
        .right("mean_tries", |(_, runs)| {
            format!("{:.2}", mean(runs, |s| s.mean_tries))
        })
        .right("gave_up", |(_, runs)| {
            runs.iter().map(|s| s.gave_up).sum::<u64>().to_string()
        })
        .right("fragmentation", |(_, runs)| {
            format!("{:.3}", mean(runs, |s| s.fragmentation))
        })
        .right("steady_streams", |(_, runs)| {
            format!("{:.1}", mean(runs, |s| s.steady_streams as f64))
        })
        .render();
    out += "\nshape: under identical churn near saturation, arbitrary starts give up \
         most often and sustain the fewest steady streams; quantized start \
         positions recover most of the lost admissions.\n";
    stats.report(out)
}

/// One 14-cub `MbrSystem` ring under the §4.2 insert storm: `inserts`
/// requests 40 ms apart, round-robin over the origins, rates drawn from
/// `rng`, 700 ms deadline. Returns the stats and cub 0's control bytes.
fn mbr_run(
    latency: LatencyModel,
    mut rng: SimRng,
    inserts: u64,
    horizon: SimDuration,
) -> (MbrDistStats, u64) {
    let mut cfg = MbrConfig::default_ring();
    cfg.latency = latency;
    let mut ring = MbrSystem::new(cfg, SimDuration::from_millis(MBR_DEADLINE_MS));
    let rates = [1u64, 2, 3, 4, 6];
    for i in 0..inserts {
        let rate = Bandwidth::from_mbit_per_sec(rates[rng.gen_range(0..rates.len())]);
        ring.request_insert(SimTime::from_millis(i * 40), (i % 14) as u32, rate);
    }
    ring.run_until(SimTime::ZERO + horizon);
    (ring.stats(), ring.control_bytes(0))
}

const MBR_DEADLINE_MS: u64 = 700;

fn hidden_pct(stats: &MbrDistStats) -> f64 {
    stats.hidden_confirms as f64 / stats.committed.max(1) as f64 * 100.0
}

/// §4.2 two-phase multiple-bitrate insertion: the message-level protocol
/// under four latency models, then the default ring on its own rate
/// draws — five independent rings in parallel.
pub fn mbr_report(scale: Scale, threads: usize) -> ExpReport {
    let (inserts, horizon) = match scale {
        Scale::Full => (600u64, SimDuration::from_secs(60)),
        Scale::Quick => (150, SimDuration::from_secs(15)),
    };
    let fixed = |ms| LatencyModel::fixed(SimDuration::from_millis(ms));
    // The sweep rows share one sequence of rate draws; the last ring is
    // the LAN row again on a second sequence.
    let points = [
        ("LAN 2-10 ms", LatencyModel::lan_default(), 11, "mbr-bench"),
        ("slow 50 ms fixed", fixed(50), 11, "mbr-bench"),
        ("WAN-ish 200 ms", fixed(200), 11, "mbr-bench"),
        ("too slow 400 ms", fixed(400), 11, "mbr-bench"),
        ("", LatencyModel::lan_default(), 23, "mbr-dist-bench"),
    ];
    let runs = sweep(&points, threads, |&(_, latency, seed, fork)| {
        let rng = RngTree::new(seed).fork(fork, 0);
        (mbr_run(latency, rng, inserts, horizon), Vec::new())
    });
    let (sweep_rows, lan) = runs.results.split_at(points.len() - 1);
    let mut out = Table::new(points.iter().zip(sweep_rows))
        .left("latency model", |((label, ..), _)| label.to_string())
        .right("deadline", |_| format!("{MBR_DEADLINE_MS}ms"))
        .right("committed", |(_, (s, _))| s.committed.to_string())
        .right("aborted", |(_, (s, _))| s.aborted.to_string())
        .right("rejected_local", |(_, (s, _))| s.rejected_local.to_string())
        .right("confirm_hidden%", |(_, (s, _))| {
            format!("{:.1}", hidden_pct(s))
        })
        .right("violations", |(_, (s, _))| s.violations.to_string())
        .render();
    let (stats, control_bytes) = &lan[0];
    out += &format!(
        "\n-- the LAN ring on a second sequence of rate draws, with its control traffic --\n\
         committed {}  aborted {}  rejected-local {}  confirm hidden {:.1}%  \
         capacity violations {}\n\
         per-cub reserve/commit control bytes: {control_bytes} (cub 0)\n\n\
         shape: within a switched LAN the confirm round trip hides behind the \
         ~60 ms disk read; only when latency approaches the deadline do \
         insertions abort (and release their reservations).\n",
        stats.committed,
        stats.aborted,
        stats.rejected_local,
        hidden_pct(stats),
        stats.violations,
    );
    runs.report(out)
}

/// §5 deadman timeout vs reconfiguration loss window: one power-cut run
/// per timeout. §5 measured "about 8 seconds between the earliest and
/// latest lost block"; if that window is detection latency plus the
/// mirror-state fill it shrinks with the timeout (at the price of false
/// positives under latency jitter), and each row is held against the
/// chaos campaigns' single-failure bound.
pub fn deadman_report(scale: Scale, threads: usize) -> ExpReport {
    let (timeouts, load_label): (&[u64], &str) = match scale {
        Scale::Full => (&[1_500, 3_000, 5_000, 8_000], "50% load, 301 streams"),
        Scale::Quick => (&[1_000, 2_000], "50% load, small test system"),
    };
    let cuts: Vec<Scenario> = timeouts
        .iter()
        .map(|&timeout_ms| {
            let mut s = power_cut(scale);
            if scale == Scale::Full {
                s.catalog = CatalogSpec::sized_for(SimDuration::from_secs(260), 16);
            }
            s.tiger.deadman_timeout = SimDuration::from_millis(timeout_ms);
            s
        })
        .collect();
    // (timeout, detection, loss window, bound, blocks lost) a row.
    let rows = sweep(&cuts, threads, |cut| {
        let r = run(cut);
        let (timeout, bound) = (cut.tiger.deadman_timeout, cut.tiger.loss_window());
        let (detection, window) = (r.detection_secs(), r.loss_window_secs());
        let lost = r.lost_blocks().count();
        let row = (timeout, detection, window, bound.as_secs_f64(), lost);
        (row, r.violations)
    });
    let mut out = Table::new(&rows.results)
        .note(format!("({load_label})"))
        .right("timeout", |r| format!("{:.1}s", r.0.as_secs_f64()))
        .right("detection_s", |r| format!("{:.2}", r.1.unwrap_or(f64::NAN)))
        .right("loss_window_s", |r| format!("{:.2}", r.2))
        .right("bound_s", |r| format!("{:.2}", r.3))
        .right("blocks_lost", |r| r.4.to_string())
        .left("", |r| if r.2 > r.3 { "over" } else { "" }.to_string())
        .render();
    out.push('\n');
    let over = rows.results.iter().filter(|r| r.2 > r.3).count();
    let secs = |ms: u64| ms as f64 / 1e3;
    let (low, high) = (timeouts[0], timeouts[timeouts.len() - 1]);
    let moved = rows.results[rows.results.len() - 1].2 - rows.results[0].2;
    let per_sec = moved / (secs(high) - secs(low));
    out += &format!(
        "shape: from a {:.1} s to a {:.1} s timeout the loss window moves {moved:.2} s \
         ({per_sec:.2} s per second of timeout): it {} the deadman timeout. {over} of {} \
         rows exceed bound_s, the single-failure bound the chaos campaigns hold a \
         clean crash to (TigerConfig::loss_window).\n",
        secs(low),
        secs(high),
        if per_sec >= 0.5 {
            "tracks"
        } else {
            "does not track"
        },
        rows.results.len(),
    );
    rows.report(out)
}

/// §5 admission-control ablation: the disabled safety valve re-enabled,
/// one startup experiment per policy.
pub fn admission_report(scale: Scale, threads: usize) -> ExpReport {
    let policies = [("disabled (paper's test)", None), ("90% limit", Some(0.9))];
    // (started, max latency, mean above 85% load, >20 s outliers) a row.
    let rows = sweep(&policies, threads, |&(_, limit)| {
        let (mut tiger, catalog, loads, probes) = match scale {
            Scale::Full => (
                TigerConfig::sosp97(),
                CatalogSpec::sized_for(SimDuration::from_secs(2_000), 64),
                vec![0.5, 0.8, 0.9, 0.95, 1.0],
                40,
            ),
            Scale::Quick => (
                TigerConfig::small_test(),
                CatalogSpec::sized_for(SimDuration::from_secs(300), 8),
                vec![0.5, 0.9],
                8,
            ),
        };
        tiger.admission_limit = limit;
        let result = run_startup(&StartupConfig {
            catalog,
            loads,
            probes_per_load: probes,
            failed_cub: None,
            tiger,
        });
        let (n, max) = (result.samples.len(), result.max());
        let mean_high = result.mean_in(0.85, 1.01).unwrap_or(f64::NAN);
        (
            (n, max, mean_high, result.count_above(20.0)),
            result.violations,
        )
    });
    let mut out = Table::new(policies.iter().zip(&rows.results))
        .left("admission", |((label, _), _)| label.to_string())
        .right("started", |(_, r)| r.0.to_string())
        .right("mean>85%load", |(_, r)| format!("{:.2}s", r.2))
        .right("max_latency", |(_, r)| format!("{:.2}s", r.1))
        .right(">20s_outliers", |(_, r)| r.3.to_string())
        .render();
    out += "\nshape: the limit trades availability (fewer admitted starts) for \
         bounded startup latency — the operational recommendation of §5.\n";
    rows.report(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decluster_report_is_thread_count_invariant() {
        let one = decluster_report(Scale::Quick, 1);
        let four = decluster_report(Scale::Quick, 4);
        assert_eq!(one.output, four.output);
        assert!(one.output.contains("decluster"));
    }

    #[test]
    fn fragmentation_report_is_thread_count_invariant() {
        let one = fragmentation_report(Scale::Quick, 1);
        let three = fragmentation_report(Scale::Quick, 3);
        assert_eq!(one.output, three.output);
    }
}
