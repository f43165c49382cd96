//! Assembles the per-layer metrics from the untraced pass, the traced
//! pass and the probes. Layer = crate; a `*.sim_*` metric is simulated
//! (exact for a fixed seed), everything else is host-side.

use crate::measure::{SimOutcome, StepLog, WindowOutcome};
use crate::probes::ProbeResults;
use crate::spec::CLUSTER_KINDS;
use crate::trace::TracedWindow;
use crate::workloads::{Prepared, RunPlan};
use std::collections::HashMap;
use tiger_sim::Histogram;

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub plan: &'a RunPlan,
    /// The untraced pass: its set-up, window, step log and outcome.
    pub prepared: &'a Prepared,
    pub window: &'a WindowOutcome,
    pub steps: &'a StepLog,
    pub sim: &'a SimOutcome,
    pub traced: &'a TracedWindow,
    pub probes: &'a ProbeResults,
}

/// Trace kinds recorded once per queue event of their own
/// (`ReadIssue`, `DiskDone`, `SendDue`, `DeadmanPing`); `send-done` stands
/// for two (`SendDone` and the data `Deliver` it schedules), and every
/// control message for one more `Deliver`. A lower bound: forward passes,
/// insert attempts, deadman checks and client requests are not counted.
const ONE_EVENT_KINDS: [&str; 4] = ["disk-issue", "disk-done", "send-due", "deadman-ping"];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value of every per-layer metric, by name.
pub fn per_layer_values(i: &LayerInputs<'_>) -> HashMap<String, f64> {
    let w = i.window;
    let t = i.traced;
    let tw = &t.outcome;
    let pr = i.probes;
    let blocks = w.blocks() as f64;
    let window_ns = w.span.wall_s * 1e9;
    let delta = |f: fn(&crate::measure::Counters) -> u64| (f(&w.close) - f(&w.open)) as f64;

    let mut out: HashMap<String, f64> = HashMap::new();
    let mut put = |name: &str, v: f64| {
        let twice = out.insert(name.to_string(), v);
        assert!(twice.is_none(), "{name} computed twice");
    };

    // core: the cluster kinds of the traced pass.
    for (k, name) in CLUSTER_KINDS.iter().enumerate() {
        put(&format!("core.step.{name}.share"), t.share(k));
    }
    for (k, name) in CLUSTER_KINDS.iter().enumerate() {
        let s = t.kinds[k];
        put(
            &format!("core.step.{name}.mean_ns"),
            ratio(s.ns as f64, s.count as f64),
        );
    }
    // Nearest rank, like `tiger_sim::Histogram::quantile`.
    let cluster_q = |q: f64| {
        let last = t.cluster_ns.len().saturating_sub(1);
        t.cluster_ns
            .get((q * last as f64).round() as usize)
            .map_or(0.0, |ns| f64::from(*ns))
    };
    put(
        "core.clusters_per_block",
        ratio(t.clusters() as f64, tw.blocks() as f64),
    );
    put("core.cluster_ns_p50", cluster_q(0.50));
    put("core.cluster_ns_p99", cluster_q(0.99));
    let mut steps = Histogram::new();
    for ms in &i.steps.step_ms {
        steps.record(*ms);
    }
    put("core.run_step_ms_p50", steps.quantile(0.50));
    put("core.run_step_ms_p99", steps.quantile(0.99));
    put("core.new_ms", i.prepared.phase_ms("core.new"));
    put(
        "core.request_start_us",
        ratio(
            i.prepared.phase_ms("workload.drive") * 1e3,
            i.prepared.ops_scheduled as f64,
        ),
    );

    // Shares estimated from outside: operations counted in the window
    // times the probed ns/op, over the untraced window's dispatch time.
    let ctrl_msgs = delta(|c| c.ctrl_msgs);
    let disk_reads = delta(|c| c.disk_reads);
    let mirror_reads = delta(|c| c.disk_mirror_reads);
    let blocks_sent = delta(|c| c.loss.blocks_sent);
    let events_lb = ONE_EVENT_KINDS.iter().map(|k| t.event(k)).sum::<u64>() as f64
        + 2.0 * t.event("send-done") as f64
        + ctrl_msgs;
    let view_ops = [
        "vs-accept",
        "vs-duplicate",
        "vs-late",
        "vs-shadow",
        "vs-blocked",
        "vs-conflict",
        "desched-apply",
    ]
    .iter()
    .map(|k| t.event(k))
    .sum::<u64>() as f64;
    let coded = i.plan.cfg.redundancy == tiger_core::RedundancyMode::Coded;
    // Under the coded backend every shard sent was reserved and released
    // on a load ring once.
    let load_index_ops = if coded { blocks_sent } else { 0.0 };
    let inserts = (t.event("insert-commit") + t.event("insert-miss")) as f64;
    let pings = t.event("deadman-ping") as f64;

    let sim_share = ratio(events_lb * pr.queue_op_ns, window_ns);
    let disk_share = ratio(disk_reads * pr.disk_submit_complete_ns, window_ns);
    let net_share = ratio(
        ctrl_msgs * pr.send_control_ns + blocks_sent * pr.data_send_ns,
        window_ns,
    );
    let sched_share = ratio(
        view_ops * pr.view_apply_ns + load_index_ops * pr.load_index_op_ns,
        window_ns,
    );
    let proto_share = ratio(
        inserts * pr.insert_route_ns + pings * pr.ring_tick_ns,
        window_ns,
    );
    let layout_share = ratio(
        disk_reads * pr.block_location_ns + mirror_reads * pr.mirror_pieces_ns,
        window_ns,
    );
    put(
        "core.self_share_est",
        1.0 - (sim_share + disk_share + net_share + sched_share + proto_share + layout_share),
    );
    put("core.sim_cub_cpu_frac", w.sample.cub_cpu);
    put("core.sim_ctrl_cpu_frac", w.sample.controller_cpu);
    put(
        "core.sim_view_entries_peak",
        w.sampled.view_entries_peak as f64,
    );
    put(
        "core.sim_cache_hit_frac",
        ratio(w.close.cache_hits as f64, w.close.cache_lookups as f64),
    );
    put("core.sim_start_latency_p95_s", i.sim.start_latency_p95_s);
    put("core.sim_blocked_frac", i.sim.blocked_frac());

    put("sim.queue_depth_mean", w.sampled.queue_depth_mean());
    put("sim.queue_depth_max", w.sampled.queue_depth_max as f64);
    put("sim.queue_op_ns", pr.queue_op_ns);
    put("sim.events_lb_per_block", ratio(events_lb, blocks));
    put("sim.share_est", sim_share);

    put(
        "trace.records_per_block",
        ratio(t.records() as f64, tw.blocks() as f64),
    );
    put("trace.record_on_ns", pr.record_on_ns);
    put(
        "trace.overhead_frac",
        ratio(tw.span.ref_s, w.span.ref_s) - 1.0,
    );

    put("disk.reads_per_block", ratio(disk_reads, blocks));
    put("disk.mirror_reads_per_block", ratio(mirror_reads, blocks));
    put("disk.submit_complete_ns", pr.disk_submit_complete_ns);
    put("disk.share_est", disk_share);
    put("disk.sim_load_frac", w.sample.disk_load);
    put("disk.sim_blips", delta(|c| c.disk_blips));
    put(
        "disk.sim_transient_errors",
        delta(|c| c.disk_transient_errors),
    );

    put("net.ctrl_msgs_per_block", ratio(ctrl_msgs, blocks));
    put(
        "net.ctrl_bytes_per_block",
        ratio(delta(|c| c.ctrl_bytes), blocks),
    );
    put("net.send_control_ns", pr.send_control_ns);
    put("net.data_send_ns", pr.data_send_ns);
    put("net.share_est", net_share);
    put("net.sim_nic_util_frac", w.sample.nic_utilization);
    put("net.sim_overcommits", delta(|c| c.nic_overcommits));

    put("sched.view_ops_per_block", ratio(view_ops, blocks));
    put("sched.view_apply_ns", pr.view_apply_ns);
    let useful = t.event("vs-accept") as f64;
    put(
        "sched.vs_useful_frac",
        ratio(
            useful,
            useful + (t.event("vs-duplicate") + t.event("vs-late")) as f64,
        ),
    );
    put("sched.load_index_op_ns", pr.load_index_op_ns);
    put("sched.share_est", sched_share);

    put(
        "proto.insert_attempts_per_commit",
        ratio(inserts, t.event("insert-commit") as f64),
    );
    put("proto.insert_route_ns", pr.insert_route_ns);
    put("proto.ring_tick_ns", pr.ring_tick_ns);
    put("proto.share_est", proto_share);

    put("layout.block_location_ns", pr.block_location_ns);
    put("layout.mirror_pieces_ns", pr.mirror_pieces_ns);
    put("layout.share_est", layout_share);

    put("coded.shards_per_block", ratio(blocks_sent, blocks));
    put(
        "coded.repairs_per_block",
        ratio(t.event("coded-repair") as f64, blocks),
    );
    put("coded.placement_ns", pr.coded_placement_ns);

    put("faults.gate_off_ns", pr.fault_gate_off_ns);
    put(
        "faults.injections",
        f64::from(u8::from(i.plan.fail_at.is_some())),
    );

    put("workgen.compile_ms", pr.workgen_compile_ms);
    put("workgen.arrival_draw_ns", pr.arrival_draw_ns);
    put("workgen.session_script_ns", pr.session_script_ns);
    put("workgen.arrivals", f64::from(i.prepared.arrivals));

    put(
        "workload.populate_catalog_ms",
        i.prepared.phase_ms("workload.populate_catalog"),
    );
    put("workload.drive_ms", i.prepared.phase_ms("workload.drive"));

    put(
        "host.allocs_per_block",
        ratio(i.steps.allocs as f64, blocks),
    );
    put(
        "host.alloc_bytes_per_block",
        ratio(i.steps.alloc_bytes as f64, blocks),
    );
    put("host.oncpu_frac", w.oncpu_frac.unwrap_or(0.0));
    put("host.ref_slowdown", w.span.slowdown);
    put(
        "host.sim_rate_wall",
        ratio(i.plan.window_s as f64, w.span.wall_s),
    );
    out
}
