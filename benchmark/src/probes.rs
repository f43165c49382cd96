//! `probe.<layer>` spans: each lower crate's public functions timed
//! standalone, at the state the workload produced (queue depth, request
//! size, message mix — taken from the two passes over the window).
//!
//! A probe's ns/op times how often the workload performed the operation
//! gives that layer's `share_est` of the window; what no probe accounts
//! for is `core.self_share_est`. Estimates from outside, by construction.

use std::hint::black_box;
use std::time::Instant;

use tiger_coded::CodedPlacement;
use tiger_core::event::Event;
use tiger_core::TigerConfig;
use tiger_disk::{Disk, DiskRequest, RequestKind};
use tiger_faults::NetFaults;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, DiskId, FileId, MirrorPlacement, ViewerId};
use tiger_net::{NetNode, Network};
use tiger_proto::insert::AttemptDecision;
use tiger_proto::{InsertMachine, PendingStart, RingConfig, RingMachine};
use tiger_sched::{Deschedule, NetworkSchedule, ScheduleView, SlotId, StreamKind, ViewerState};
use tiger_sim::{Bandwidth, EventQueue, RngTree, SimDuration, SimTime};
use tiger_trace::{TraceEvent, Tracer};

use crate::stats::median;
use crate::workloads::vcr_plan;

/// A probe's span: which layer, where in the run, what it measured.
#[derive(Clone, Debug)]
pub struct ProbeSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ns_per_op: f64,
}

/// What the probes need to know about the workload.
pub struct ProbeInput<'a> {
    pub cfg: &'a TigerConfig,
    /// Mean pending events in the window.
    pub queue_depth: usize,
    /// Mean control-message size in the window, bytes.
    pub ctrl_msg_bytes: u64,
    /// `vs-accept`, `vs-duplicate` and `desched-apply` counts: the mix
    /// `sched.view_apply_ns` is weighted by.
    pub view_mix: [u64; 3],
}

/// Nanoseconds per operation of every probed function.
#[derive(Clone, Debug, Default)]
pub struct ProbeResults {
    pub queue_op_ns: f64,
    pub record_on_ns: f64,
    pub disk_submit_complete_ns: f64,
    pub send_control_ns: f64,
    pub data_send_ns: f64,
    pub view_apply_ns: f64,
    pub load_index_op_ns: f64,
    pub insert_route_ns: f64,
    pub ring_tick_ns: f64,
    pub block_location_ns: f64,
    pub mirror_pieces_ns: f64,
    pub coded_placement_ns: f64,
    pub fault_gate_off_ns: f64,
    pub workgen_compile_ms: f64,
    pub arrival_draw_ns: f64,
    pub session_script_ns: f64,
    pub spans: Vec<ProbeSpan>,
}

struct Prober {
    epoch: Instant,
    spans: Vec<ProbeSpan>,
}

impl Prober {
    /// Times `op` in three batches of `iters` (after a tenth of a batch
    /// to warm up) and records the median ns/op as `probe.<name>`.
    fn time(&mut self, name: &str, iters: u64, mut op: impl FnMut()) -> f64 {
        let start = Instant::now();
        for _ in 0..iters / 10 {
            op();
        }
        let batches: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    op();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        let ns_per_op = median(&batches);
        self.spans.push(ProbeSpan {
            name: format!("probe.{name}"),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: Instant::now().duration_since(self.epoch).as_nanos() as u64,
            ns_per_op,
        });
        ns_per_op
    }
}

fn instance(viewer: u64) -> ViewerInstance {
    ViewerInstance {
        viewer: ViewerId(viewer),
        incarnation: 0,
    }
}

fn viewer_state(slot: u32, viewer: u64, play_seq: u32) -> ViewerState {
    ViewerState {
        instance: instance(viewer),
        client: 1,
        file: FileId(3),
        position: BlockNum(play_seq),
        slot: SlotId(slot),
        play_seq,
        bitrate: Bandwidth::from_mbit_per_sec(2),
        kind: StreamKind::Primary,
    }
}

/// Runs every probe. `epoch` is the run's span epoch.
pub fn run(input: &ProbeInput<'_>, epoch: Instant) -> ProbeResults {
    let cfg = input.cfg;
    let stripe = cfg.stripe;
    let num_disks = stripe.num_disks();
    let block = cfg.block_size();
    let mut p = Prober {
        epoch,
        spans: Vec::new(),
    };
    let mut r = ProbeResults::default();

    // sim: one pop plus one schedule at the workload's queue depth, the
    // re-scheduled event landing behind the backlog as a timer would.
    {
        let depth = input.queue_depth.max(1);
        let gap = SimDuration::from_micros(100);
        let mut q: EventQueue<Event> = EventQueue::with_capacity(depth + 1);
        for i in 0..depth as u64 {
            q.schedule(
                SimTime::ZERO + gap.mul_u64(i),
                Event::ForwardPass { cub: CubId(0) },
            );
        }
        let behind = gap.mul_u64(depth as u64);
        r.queue_op_ns = p.time("sim.queue_op", 400_000, || {
            let (_, e) = q.pop().expect("the queue never drains");
            q.schedule_in(behind, e);
        });
    }

    // trace: one enabled ring write.
    {
        let mut t = Tracer::enabled(crate::trace::TRACE_RING);
        let mut i = 0u32;
        r.record_on_ns = p.time("trace.record_on", 1_000_000, || {
            i = i.wrapping_add(1);
            t.record(
                SimTime::from_nanos(u64::from(i)),
                i % stripe.num_cubs,
                TraceEvent::SendDone {
                    slot: i % 602,
                    viewer: u64::from(i),
                    inc: 0,
                },
            );
            black_box(&mut t);
        });
    }

    // disk: submit + complete of one primary extent (a whole block, or
    // one shard under the coded backend).
    {
        let len = match cfg.redundancy {
            tiger_core::RedundancyMode::Coded => CodedPlacement::new(stripe).shard_size(block),
            tiger_core::RedundancyMode::Mirrored => block,
        };
        let mut d = Disk::new(
            cfg.disk.clone(),
            RngTree::new(cfg.seed).fork("probe-disk", 0),
        );
        let mut now = SimTime::ZERO;
        let mut offset = 0u64;
        r.disk_submit_complete_ns = p.time("disk.submit_complete", 400_000, || {
            offset = (offset + len.as_bytes()) % 1_000_000_000;
            let done = d
                .submit(
                    now,
                    DiskRequest {
                        offset,
                        len,
                        kind: RequestKind::Primary,
                    },
                )
                .expect("an idle healthy disk accepts a read");
            d.complete(done);
            now = done;
            black_box(done);
        });
    }

    // net: a control message between ring neighbours, and the three calls
    // of one paced data send.
    {
        let nodes = 1 + cfg.total_cubs() + cfg.num_clients;
        let mut net = Network::new(
            nodes,
            cfg.nic_capacity,
            cfg.latency,
            RngTree::new(cfg.seed).fork("probe-net", 0),
        );
        let cubs = stripe.num_cubs;
        let bytes = input.ctrl_msg_bytes.max(1);
        let mut i = 0u32;
        let mut now = SimTime::ZERO;
        r.send_control_ns = p.time("net.send_control", 400_000, || {
            i = (i + 1) % cubs;
            now += SimDuration::from_micros(50);
            black_box(net.send_control(now, NetNode(1 + i), NetNode(1 + (i + 1) % cubs), bytes));
        });
        let rate = cfg.max_bitrate;
        let client = NetNode(1 + cfg.total_cubs());
        r.data_send_ns = p.time("net.data_send", 400_000, || {
            i = (i + 1) % cubs;
            now += SimDuration::from_micros(50);
            let src = NetNode(1 + i);
            black_box(net.begin_stream(now, src, rate));
            net.end_stream(now, src, rate, block.as_bytes());
            black_box(net.send_data(now, src, client));
        });
    }

    // sched: viewer-state application in the workload's own mix of fresh
    // records, duplicates (double forwarding) and deschedules.
    {
        let mut view = ScheduleView::new();
        let mut i = 0u64;
        let fresh = p.time("sched.view_apply.fresh", 400_000, || {
            i += 1;
            let rec = viewer_state((i % 602) as u32, i, 0);
            black_box(view.apply_viewer_state(rec, SimTime::ZERO));
            view.retire(rec.slot, &rec);
        });
        let mut view = ScheduleView::new();
        for s in 0..40 {
            view.apply_viewer_state(viewer_state(s, u64::from(s), 5), SimTime::ZERO);
        }
        let dup_rec = viewer_state(17, 17, 5);
        let dup = p.time("sched.view_apply.duplicate", 400_000, || {
            black_box(view.apply_viewer_state(dup_rec, SimTime::ZERO));
        });
        let d = Deschedule {
            instance: instance(9),
            slot: SlotId(9),
        };
        let mut t = 0u64;
        let desched = p.time("sched.view_apply.deschedule", 400_000, || {
            t += 1;
            black_box(view.apply_deschedule(
                d,
                SimTime::from_millis(t),
                SimTime::from_millis(t) + cfg.deschedule_hold,
            ));
        });
        let [wf, wd, wk] = input.view_mix.map(|w| w as f64);
        let total = wf + wd + wk;
        r.view_apply_ns = if total > 0.0 {
            (wf * fresh + wd * dup + wk * desched) / total
        } else {
            fresh
        };
    }

    // sched: one reserve + release on a per-disk load ring, as the coded
    // backend's holder ranking pays per shard.
    {
        let bpt = cfg.block_play_time;
        let mut ring = NetworkSchedule::new(
            num_disks,
            bpt,
            Bandwidth::from_bits_per_sec(1 << 60),
            Some(bpt),
        );
        let shard_rate = Bandwidth::from_bits_per_sec(
            cfg.max_bitrate.bits_per_sec() / u64::from(stripe.decluster),
        );
        // A standing population like a loaded disk's ring position holds.
        for v in 0..u64::from(num_disks) {
            let _ = ring.insert(instance(v), bpt.mul_u64(v), shard_rate, false);
        }
        let mut i = 0u64;
        r.load_index_op_ns = p.time("sched.load_index_op", 200_000, || {
            i += 1;
            let who = instance(1_000_000 + i);
            let _ = ring.insert(
                who,
                bpt.mul_u64(i % u64::from(num_disks)),
                shard_rate,
                false,
            );
            black_box(ring.remove_instance(who));
        });
    }

    // proto: one routed start driven to its commit, and one deadman
    // ping + check.
    {
        let mut ins = InsertMachine::new();
        let mut i = 0u64;
        r.insert_route_ns = p.time("proto.insert_route", 400_000, || {
            i += 1;
            ins.on_routed_start(
                PendingStart {
                    instance: instance(i),
                    client: 1,
                    file: FileId(3),
                    from_block: BlockNum(0),
                    requested_at: SimTime::from_nanos(i),
                },
                false,
                false,
            );
            ins.attempt_due();
            black_box(ins.attempt(|_| AttemptDecision::Commit));
        });
        let ring_cfg = RingConfig {
            deadman_timeout: cfg.deadman_timeout,
            deadman_interval: cfg.deadman_interval,
            min_vstate_lead: cfg.min_vstate_lead,
        };
        let me = CubId(3);
        let mut ring = RingMachine::new(me, stripe.num_cubs);
        let pred = ring.prev_living(me).expect("a ring of several cubs");
        let mut now = SimTime::ZERO;
        r.ring_tick_ns = p.time("proto.ring_tick", 1_000_000, || {
            now += cfg.deadman_interval;
            ring.on_ping(pred, now);
            black_box(ring.poll_check(now, &ring_cfg));
        });
    }

    // layout: where a block lives, and where its mirror pieces live.
    {
        let mut i = 0u32;
        r.block_location_ns = p.time("layout.block_location", 1_000_000, || {
            i = i.wrapping_add(1);
            black_box(stripe.block_location(DiskId(i % num_disks), BlockNum(i)));
        });
        let placement = MirrorPlacement::new(stripe);
        r.mirror_pieces_ns = p.time("layout.mirror_pieces", 400_000, || {
            i = i.wrapping_add(1);
            black_box(placement.pieces_for(DiskId(i % num_disks), block));
        });
    }

    // coded: the 2k shard holders of one block and the shard size.
    {
        let placement = CodedPlacement::new(stripe);
        let mut i = 0u32;
        r.coded_placement_ns = p.time("coded.placement", 400_000, || {
            i = i.wrapping_add(1);
            let home = DiskId(i % num_disks);
            for j in 0..placement.n() {
                black_box(placement.shard_disk(home, j));
            }
            black_box(placement.shard_size(block));
        });
    }

    // faults: the disabled gate every send, submit and dispatch tests.
    {
        let mut f = NetFaults::disabled();
        let mut i = 0u32;
        r.fault_gate_off_ns = p.time("faults.gate_off", 1_000_000, || {
            i = i.wrapping_add(1);
            if f.active() {
                black_box(f.verdict(SimTime::from_nanos(u64::from(i)), i % 14, (i + 1) % 14));
            }
            black_box(&mut f);
        });
    }

    // workgen: compiling the plan, one arrival draw, one session script.
    {
        let tree = RngTree::new(cfg.seed).subtree("workgen", 0);
        // Always the vcr-churn plan at its table length, so the probe
        // measures the same thing on every workload.
        let plan = &vcr_plan(800);
        r.workgen_compile_ms = p.time("workgen.compile", 2_000, || {
            black_box(plan.compile(&tree));
        }) / 1e6;
        let mut w = plan.compile(&tree);
        r.arrival_draw_ns = p.time("workgen.arrival_draw", 400_000, || {
            black_box(w.arrivals.next_arrival());
        });
        let horizon = SimTime::ZERO + plan.horizon;
        let mut v = 0u64;
        r.session_script_ns = p.time("workgen.session_script", 100_000, || {
            v += 1;
            black_box(w.sessions.script(v, SimTime::from_secs(1), 3_600, horizon));
        });
    }

    r.spans = p.spans;
    r
}
