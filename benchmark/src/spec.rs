//! The fixed vocabulary of the benchmark: workload names, end-to-end
//! metric names with unit, direction and bound, and per-layer metric
//! names. `BENCHMARK.json` at the repository root lists exactly these
//! (checked by `tests/harness.rs`); later issues refer to them verbatim.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "steady-full",
        why: "closed, 14 cubs at the Fig. 8 peak of 602 streams: pure per-block data plane, the baseline every other workload is read against",
    },
    WorkloadSpec {
        name: "failover",
        why: "steady-full with cub 5 dead (Fig. 9): declustered mirror pieces beside primary reads and doubled control traffic; a primary-path gain that costs the mirror path shows here",
    },
    WorkloadSpec {
        name: "vcr-churn",
        why: "open, 10 arrivals/s of fully interactive sessions: controller routing, ownership insertion and deschedule circulation dominate; per-block work is the minority",
    },
    WorkloadSpec {
        name: "scale-56",
        why: "closed, 56 cubs at capacity (2409 streams): the steady-full path at 4x state, for the per-stream cost curve and the flat per-cub control-traffic claim",
    },
    WorkloadSpec {
        name: "coded-k2",
        why: "closed, network-coded backend at decluster 2 with cub 5 dead: fan_out_coded, load-index holder ranking and degraded reads, the third service pipeline",
    },
];

/// An end-to-end metric: what a user of the simulator (host side) or of
/// the simulated fileserver (sim side) would see.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated quantities repeat bit for bit for a fixed seed; host
    /// quantities carry the machine's noise.
    pub exact: bool,
}

pub const END_TO_END: [EndToEndSpec; 8] = [
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEndSpec {
        name: "sim_rate",
        unit: "sim-s/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEndSpec {
        name: "blocks_per_s",
        unit: "blocks/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
    },
    EndToEndSpec {
        name: "start_latency_p50_s",
        unit: "sim-s",
        better: Better::Lower,
        bound: 0.06,
        exact: true,
    },
    EndToEndSpec {
        name: "start_latency_p75_s",
        unit: "sim-s",
        better: Better::Lower,
        bound: 0.20,
        exact: true,
    },
    EndToEndSpec {
        name: "served_frac",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.005,
        exact: true,
    },
    EndToEndSpec {
        name: "ctrl_bytes_per_cub_s",
        unit: "sim-B/s",
        better: Better::Lower,
        bound: 0.07,
        exact: true,
    },
];

/// The cluster kinds of the traced round: a timestamp cluster is labelled
/// with the wire name of the first trace event it recorded, folded into
/// these sixteen.
pub const CLUSTER_KINDS: [&str; 16] = [
    "send-due",
    "vs-accept",
    "vs-shadow",
    "vs-forward",
    "disk-issue",
    "disk-done",
    "mirror-accept",
    "desched-apply",
    "insert-commit",
    "insert-miss",
    "session-transition",
    "deadman-ping",
    "coded-repair",
    "degraded-piece-read",
    "silent",
    "other",
];

/// A per-layer metric (layer = crate = the name's first dotted part).
pub struct PerLayerSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The per-layer metric list, in print order.
pub fn per_layer() -> Vec<PerLayerSpec> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayerSpec> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayerSpec {
            name: name.to_string(),
            unit,
            better,
        });
    };
    for k in CLUSTER_KINDS {
        add(&format!("core.step.{k}.share"), "fraction", Lower);
    }
    for k in CLUSTER_KINDS {
        add(&format!("core.step.{k}.mean_ns"), "ns", Lower);
    }
    const FIXED: &[(&str, &str, Better)] = &[
        ("core.clusters_per_block", "count", Lower),
        ("core.cluster_ns_p50", "ns", Lower),
        ("core.cluster_ns_p99", "ns", Lower),
        ("core.run_step_ms_p50", "ms", Lower),
        ("core.run_step_ms_p99", "ms", Lower),
        ("core.new_ms", "ms", Lower),
        ("core.request_start_us", "us", Lower),
        ("core.self_share_est", "fraction", Lower),
        ("core.sim_cub_cpu_frac", "fraction", Lower),
        ("core.sim_ctrl_cpu_frac", "fraction", Lower),
        ("core.sim_view_entries_peak", "count", Lower),
        ("core.sim_cache_hit_frac", "fraction", Higher),
        ("core.sim_start_latency_p95_s", "sim-s", Lower),
        ("core.sim_blocked_frac", "fraction", Lower),
        ("sim.queue_depth_mean", "count", Lower),
        ("sim.queue_depth_max", "count", Lower),
        ("sim.queue_op_ns", "ns", Lower),
        ("sim.events_lb_per_block", "count", Lower),
        ("sim.share_est", "fraction", Lower),
        ("trace.records_per_block", "count", Lower),
        ("trace.record_on_ns", "ns", Lower),
        ("trace.overhead_frac", "fraction", Lower),
        ("disk.reads_per_block", "count", Lower),
        ("disk.mirror_reads_per_block", "count", Lower),
        ("disk.submit_complete_ns", "ns", Lower),
        ("disk.share_est", "fraction", Lower),
        ("disk.sim_load_frac", "fraction", Lower),
        ("disk.sim_blips", "count", Lower),
        ("disk.sim_transient_errors", "count", Lower),
        ("net.ctrl_msgs_per_block", "count", Lower),
        ("net.ctrl_bytes_per_block", "B", Lower),
        ("net.send_control_ns", "ns", Lower),
        ("net.data_send_ns", "ns", Lower),
        ("net.share_est", "fraction", Lower),
        ("net.sim_nic_util_frac", "fraction", Lower),
        ("net.sim_overcommits", "count", Lower),
        ("sched.view_ops_per_block", "count", Lower),
        ("sched.view_apply_ns", "ns", Lower),
        ("sched.vs_useful_frac", "fraction", Higher),
        ("sched.load_index_op_ns", "ns", Lower),
        ("sched.share_est", "fraction", Lower),
        ("proto.insert_attempts_per_commit", "count", Lower),
        ("proto.insert_route_ns", "ns", Lower),
        ("proto.ring_tick_ns", "ns", Lower),
        ("proto.share_est", "fraction", Lower),
        ("layout.block_location_ns", "ns", Lower),
        ("layout.mirror_pieces_ns", "ns", Lower),
        ("layout.share_est", "fraction", Lower),
        ("coded.shards_per_block", "count", Lower),
        ("coded.repairs_per_block", "count", Lower),
        ("coded.placement_ns", "ns", Lower),
        ("faults.gate_off_ns", "ns", Lower),
        ("faults.injections", "count", Lower),
        ("workgen.compile_ms", "ms", Lower),
        ("workgen.arrival_draw_ns", "ns", Lower),
        ("workgen.session_script_ns", "ns", Lower),
        ("workgen.arrivals", "count", Higher),
        ("workload.populate_catalog_ms", "ms", Lower),
        ("workload.drive_ms", "ms", Lower),
        ("host.allocs_per_block", "count", Lower),
        ("host.alloc_bytes_per_block", "B", Lower),
        ("host.oncpu_frac", "fraction", Higher),
        ("host.ref_slowdown", "ratio", Lower),
        ("host.sim_rate_wall", "sim-s/s", Higher),
    ];
    for &(name, unit, better) in FIXED {
        add(name, unit, better);
    }
    v
}

/// The text `perf --list` prints: one tab-separated line per workload
/// and metric, in `BENCHMARK.json` order.
pub fn list_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(out, "workload\t{}\t{}", w.name, w.why);
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end\t{}\t{}\t{}\t{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    for m in per_layer() {
        let _ = writeln!(
            out,
            "per_layer\t{}\t{}\t{}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out
}
