//! Micro-benchmarks for the schedule-management primitives.
//!
//! §5's premise: "The amount of work done to implement the Tiger schedule
//! is small relative to the work needed to move megabytes of data per
//! second from the disk to the network. … the speed of the schedule
//! management operations is of little consequence." These benches put
//! numbers on that: every operation is sub-microsecond to a few
//! microseconds, vastly cheaper than a 40+ ms disk read.
//!
//! Runs under the in-tree `tiger_bench::runner` (criterion replaced in-tree
//! so the workspace builds offline): a human table on stderr, a JSON
//! document on stdout, both in reference ns, for `bench_compare` to set
//! against another run. Filter by substring:
//! `cargo bench --bench micro -- view`.

use tiger_bench::runner::{black_box, Runner};

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, DiskId, FileId, MirrorPlacement, StripeConfig, ViewerId};
use tiger_sched::{
    Deschedule, NetworkSchedule, PrimaryRecord, ScheduleParams, ScheduleView, SlotId, StreamKind,
    ViewerState,
};
use tiger_sim::EventQueue;
use tiger_sim::{Bandwidth, ByteSize, SimDuration, SimTime};

fn sosp_params() -> ScheduleParams {
    ScheduleParams::derive(
        StripeConfig::new(14, 4, 4),
        SimDuration::from_secs(1),
        ByteSize::from_bytes(250_000),
        SimDuration::from_nanos(92_954_226),
        Bandwidth::from_mbit_per_sec(135),
    )
}

fn vs(slot: u32, viewer: u64, play_seq: u32) -> ViewerState {
    ViewerState {
        instance: ViewerInstance {
            viewer: ViewerId(viewer),
            incarnation: 0,
        },
        client: 1,
        file: FileId(3),
        position: BlockNum(play_seq),
        slot: SlotId(slot),
        play_seq,
        bitrate: Bandwidth::from_mbit_per_sec(2),
        kind: StreamKind::Primary,
    }
}

fn bench_slot_math(c: &mut Runner) {
    let p = sosp_params();
    c.bench_function("slot_math/slot_send_time", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % p.capacity();
            black_box(p.slot_send_time(DiskId(i % 56), SlotId(i), SimTime::from_secs(1_000)))
        })
    });
    c.bench_function("slot_math/owner_of_slot", |b| {
        let mut t = SimTime::from_secs(500);
        b.iter(|| {
            t += SimDuration::from_micros(37);
            black_box(p.owner_of_slot(SlotId(301), t))
        })
    });
    c.bench_function("slot_math/owned_slot_range", |b| {
        let mut t = SimTime::from_secs(500);
        b.iter(|| {
            t += SimDuration::from_micros(37);
            black_box(p.owned_slot_range(DiskId(7), t))
        })
    });
}

fn bench_view_ops(c: &mut Runner) {
    c.bench_function("view/apply_viewer_state_fresh", |b| {
        let mut view = ScheduleView::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let record = vs((i % 602) as u32, i, 0);
            black_box(view.apply_viewer_state(record, SimTime::ZERO));
            view.retire(record.slot, &record);
        })
    });
    c.bench_function("view/apply_duplicate", |b| {
        let mut view = ScheduleView::new();
        // Populate a realistic window of ~40 slots.
        for s in 0..40 {
            view.apply_viewer_state(vs(s, u64::from(s), 5), SimTime::ZERO);
        }
        let dup = vs(17, 17, 5);
        b.iter(|| black_box(view.apply_viewer_state(dup, SimTime::ZERO)))
    });
    c.bench_function("view/apply_retire_602", |b| {
        // What a block costs the view of a cub that holds an entry in
        // every one of `sosp97`'s 602 slots: the record accepted into the
        // slot whose previous occupant was just sent and retired.
        let mut view = ScheduleView::new();
        for i in 0..602 {
            view.apply_viewer_state(vs(i as u32, i, 0), SimTime::ZERO);
        }
        let mut i = 602u64;
        b.iter(|| {
            let old = vs((i % 602) as u32, i - 602, 0);
            black_box(view.retire(old.slot, &old));
            black_box(view.apply_viewer_state(vs((i % 602) as u32, i, 0), SimTime::ZERO));
            i += 1;
        })
    });
    // Re-applies one deschedule to an otherwise empty view. Re-baselined
    // 5 ns -> 22 ns when the held set became a hash map (PR 16): a probe
    // with a fixed-key SipHash is slower than scanning a one-element
    // `Vec`, and this bench is exactly that one-element case. It is the
    // wrong occupancy to read: a cub under interactive load holds ≈360
    // deschedules, where the same call fell 690 ns -> 116 ns — see
    // `view/apply_deschedule_held360` below, the row that matters.
    // (PR 19's multiply-fold `DetHasher` took the probe, and this row,
    // back to ≈10 ns.)
    c.bench_function("view/apply_deschedule", |b| {
        let mut view = ScheduleView::new();
        let d = Deschedule {
            instance: ViewerInstance {
                viewer: ViewerId(9),
                incarnation: 0,
            },
            slot: SlotId(9),
        };
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(view.apply_deschedule(
                d,
                SimTime::from_millis(t),
                SimTime::from_millis(t + 3_000),
            ))
        })
    });
}

/// A deschedule for viewer `i` in a slot of its own.
fn desched(i: u64) -> Deschedule {
    Deschedule {
        instance: ViewerInstance {
            viewer: ViewerId(i),
            incarnation: 0,
        },
        slot: SlotId((i % 602) as u32),
    }
}

/// The view of a cub under `vcr-churn`: ≈30 deschedules a second, each
/// held for `deschedule_hold + maxVStateLead` = 12 s, so ≈360 holds at
/// any instant (`benchmark/README.md`, finding 2). The empty-view
/// `view/apply_deschedule` above is what the ruler's `sched.view_apply_ns`
/// probe times, and why it predicted "<5 % everywhere"; these two are
/// the same calls at the occupancy the cub actually runs them at.
fn bench_view_held(c: &mut Runner) {
    const HELD: u64 = 360;
    let hold = SimDuration::from_secs(12);
    let gap = SimDuration::from_nanos(hold.as_nanos() / HELD);
    c.bench_function("view/apply_deschedule_held360", |b| {
        // What `Cub::on_deschedule` asks of the view, in steady state:
        // each deschedule arrives twice (double forwarding) — a first
        // sighting that takes a new hold while the oldest lapses, then
        // a repeat that extends it. One iteration is one arrival.
        let mut view = ScheduleView::new();
        let mut now = SimTime::ZERO;
        for i in 0..HELD {
            now += gap;
            view.apply_deschedule(desched(i), now, now + hold);
        }
        let mut arrivals = 2 * HELD;
        b.iter(|| {
            arrivals += 1;
            let d = desched(arrivals / 2);
            if arrivals.is_multiple_of(2) {
                now += gap;
            }
            let first = !view.holds_deschedule(&d);
            black_box(first);
            black_box(view.apply_deschedule(d, now, now + hold))
        })
    });
    c.bench_function("view/apply_viewer_state_held360", |b| {
        // `view/apply_viewer_state_fresh` with the holds in place: every
        // viewer state on every workload checks them before it is
        // accepted.
        let mut view = ScheduleView::new();
        for i in 0..HELD {
            view.apply_deschedule(desched(1_000_000 + i), SimTime::ZERO, SimTime::MAX);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let record = vs((i % 602) as u32, i, 0);
            black_box(view.apply_viewer_state(record, SimTime::ZERO));
            view.retire(record.slot, &record);
        })
    });
}

/// The active-service table at the occupancy and in the access pattern of
/// the full-scale data plane, which the hot-cache `cub/*` rows cannot see:
/// a `steady-full` cub holds ≈430 services (43 streams' blocks a second,
/// each alive from `maxVStateLead` before its send to a block play time
/// after), tokens are handed out in sequence, and between two events of
/// one cub every other cub has had its turn.
fn bench_service_table(c: &mut Runner) {
    use tiger_core::cub::service::PieceSpec;
    use tiger_core::cub::TableBench;
    const CUBS: u64 = 56;
    const LIVE: u64 = 430;
    let params = sosp_params();
    let spec = PieceSpec::primary(&params, ByteSize::from_bytes(250_000), DiskId(0), 1);
    let state = |i: u64| vs((i % 602) as u32, i % 602, (i / 602) as u32);
    c.bench_function("table/get_mut_56x430_roundrobin", |b| {
        // `scale-56`: 56 tables, each touched once per round, the touches
        // of one table walking its tokens in order — what a cub's
        // `ReadIssue` / `SendDue` chain does between its neighbours'.
        let mut tables: Vec<TableBench> = (0..CUBS).map(|_| TableBench::default()).collect();
        for i in 0..LIVE {
            for t in &mut tables {
                assert_eq!(t.insert(state(i), &spec), i);
            }
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tables[(i % CUBS) as usize].touch(i / CUBS % LIVE))
        })
    });
    c.bench_function("table/progress_56x430_roundrobin", |b| {
        // The §4.1.2 staleness facts, asked of every record by the cub
        // that accepts it and again by the second successor that shadows
        // it. Of each table in turn, so the per-instance probe is as cold
        // as in `scale-56`: by turns about an instance the table carries
        // (a double-forwarded copy of a record in service) and one it
        // does not (a stream's first sighting on this cub).
        let mut tables: Vec<TableBench> = (0..CUBS).map(|_| TableBench::default()).collect();
        for i in 0..LIVE {
            for t in &mut tables {
                t.insert(state(i), &spec);
            }
        }
        let stranger = |i: u64| vs(i as u32, 1_000 + i, 0);
        let serving = |t: &TableBench, vs| t.progress(&vs).serving;
        assert!(
            serving(&tables[0], state(7)) == Some(0) && serving(&tables[0], stranger(7)).is_none()
        );
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let turn = i / CUBS % LIVE;
            let probe = if i & 1 == 0 {
                state(turn)
            } else {
                stranger(turn)
            };
            black_box(tables[(i % CUBS) as usize].progress(&probe))
        })
    });
    c.bench_function("table/view_apply_retire_602", |b| {
        // `view/apply_retire_602` on the path the simulator runs: the
        // view's entries in the service table's per-instance records.
        let mut table = TableBench::default();
        for i in 0..602 {
            table.view_apply(&vs(i as u32, i, 0));
        }
        let mut i = 602u64;
        b.iter(|| {
            table.view_retire(&vs((i % 602) as u32, i - 602, 0));
            black_box(table.view_apply(&vs((i % 602) as u32, i, 0)));
            i += 1;
        })
    });
    c.bench_function("table/insert_remove_window430", |b| {
        // Steady state of one table: a block is accepted under the next
        // token and the oldest is reclaimed.
        let mut table = TableBench::default();
        for i in 0..LIVE {
            table.insert(state(i), &spec);
        }
        let mut next = LIVE;
        b.iter(|| {
            let token = table.insert(state(next), &spec);
            next += 1;
            black_box(table.remove(token - LIVE))
        })
    });
}

/// A forward pass on a `steady-full` cub: ≈430 active services, ≈21 of
/// them newly due for forwarding (half a second of a cub's 43 blocks a
/// second), a retired log and a view one window deep. Cub 0 of a `sosp97`
/// ring is driven alone, by hand, through `Cub::on_event`: each iteration
/// delivers the half second's viewer states as its predecessor would,
/// runs cub 0's own read / send events up to the pass, and times the pass
/// only (with the queueing of its chain's next one).
fn bench_forward_pass(c: &mut Runner) {
    use tiger_core::event::Event;
    use tiger_core::{Message, TigerConfig, TigerSystem};
    use tiger_layout::CubId;
    const ME: CubId = CubId(0);
    const PASS: Event = Event::ForwardPass { cub: ME };
    let mut cfg = TigerConfig::sosp97();
    cfg.disk = cfg.disk.without_blips();
    let interval = cfg.forward_interval;
    let lead = cfg.max_vstate_lead;
    let mut sys = TigerSystem::new(cfg);
    let file = sys.add_file(
        Bandwidth::from_mbit_per_sec(2),
        SimDuration::from_secs(3_600),
    );
    let client = sys.add_client();
    // Every (slot, local disk) meeting of the schedule's first lap, by due
    // time: (due, first position of the file on that disk, slot).
    let (lap_len, mut meetings) = sys.with_cub_mut(ME, |cub, sh| {
        let mut meetings = Vec::new();
        for pos in 0..sh.params.stripe().num_disks() {
            let loc = sh.catalog.locate(file, BlockNum(pos)).expect("in range");
            if loc.cub != cub.id {
                continue;
            }
            for slot in 0..sh.params.capacity() {
                let due = sh
                    .params
                    .slot_send_time(loc.disk, SlotId(slot), SimTime::ZERO);
                meetings.push((due, pos, slot));
            }
        }
        (sh.params.schedule_len(), meetings)
    });
    meetings.sort_unstable();
    let (mut now, mut fed, mut lap, mut seq) = (SimTime::ZERO, 0usize, 0u32, 0u32);
    // One forward interval of cub 0's life up to (not including) the pass.
    let mut advance = |sys: &mut TigerSystem| {
        now += interval;
        sys.with_cub_mut(ME, |cub, sh| {
            while let Some((at, ev)) = sh.queue.pop_until(now) {
                match ev {
                    Event::ReadIssue { cub: ME, .. }
                    | Event::PoolFloor { cub: ME }
                    | Event::DiskDone { cub: ME, .. }
                    | Event::SendDue { cub: ME, .. }
                    | Event::SendDone { cub: ME, .. } => cub.on_event(sh, at, ev),
                    // Someone else's, or cub 0's own periodic work: the
                    // rest of the ring is not run, and the pass is timed
                    // apart.
                    _ => {}
                }
            }
            loop {
                let (due, pos, slot) = meetings[fed];
                if due + lap_len.mul_u64(u64::from(lap)) > now + lead {
                    break;
                }
                let state = ViewerState {
                    file,
                    client: sh.client_node(client).raw(),
                    position: BlockNum(pos + sh.params.stripe().num_disks() * (lap % 32)),
                    ..vs(slot, u64::from(slot), seq)
                };
                let (dst, msg) = (sh.cub_node(ME), Message::ViewerState(state));
                cub.on_event(sh, now, Event::Deliver { dst, msg });
                (fed, seq) = (fed + 1, seq + 1);
                if fed == meetings.len() {
                    (fed, lap) = (0, lap + 1);
                }
            }
        });
        now
    };
    for _ in 0..60 {
        let now = advance(&mut sys);
        sys.with_cub_mut(ME, |cub, sh| cub.on_event(sh, now, PASS));
    }
    let held = sys.with_cub_mut(ME, |cub, _| cub.schedule_information_held());
    // ≈430 active + ≈430 view entries + ≈390 retired (a 9 s retention).
    assert!((1_150..1_350).contains(&held), "steady state holds {held}");
    c.bench_function("cub/forward_pass_430_active_20_due", |b| {
        b.iter_timed(|| {
            let now = advance(&mut sys);
            sys.with_cub_mut(ME, |cub, sh| {
                let start = std::time::Instant::now();
                cub.on_event(sh, now, PASS);
                start.elapsed()
            })
        })
    });
    assert!(sys.take_violations().is_empty());
}

fn bench_rejoin(c: &mut Runner) {
    // A rejoined cub restarts with an empty schedule view and re-learns
    // its slots from the hand-back batch its ring neighbors and covering
    // successor relay — one §4.1.3 ownership insertion per state. This
    // is the whole CPU cost of a rejoin re-plan: a schedule's worth of
    // fresh insertions into an empty view.
    c.bench_function("recovery/rejoin_replan", |b| {
        let states: Vec<ViewerState> = (0..60u64)
            .map(|i| vs(((i * 10) % 602) as u32, i, 3))
            .collect();
        b.iter(|| {
            let mut view = ScheduleView::new();
            for s in &states {
                black_box(view.apply_viewer_state(*s, SimTime::ZERO));
            }
            view.len()
        })
    });
    // The predecessor's side of the sub-interval rejoin: reduce a full
    // retained window of the retired log (several sightings per viewer)
    // to the replay batch — newest-sighting dedup, gap-bridge skip
    // arithmetic, and the ownership filter per entry. Paid once per
    // rejoin, against the whole log, so it is the one retired-log path
    // that is O(log) rather than O(1).
    c.bench_function("recovery/retired_replay", |b| {
        let bpt = SimDuration::from_secs(1);
        // ~7 s of service history for 60 viewers on a 14-cub ring: one
        // sighting per viewer per second, in service order.
        // Kept as the cub's log keeps it, each record without its kind.
        let retired: Vec<(SimTime, PrimaryRecord)> = (0..420u64)
            .map(|i| {
                let at = SimTime::from_millis(i * 1_000 / 60);
                let vs = vs(((i * 10) % 602) as u32, i % 60, (i / 60) as u32);
                (at, PrimaryRecord::new(&vs).expect("primary"))
            })
            .collect();
        let now = SimTime::from_secs(9);
        let horizon = SimDuration::from_secs(2);
        let ring = tiger_proto::RingMachine::new(tiger_layout::CubId(0), 14);
        b.iter(|| {
            black_box(tiger_proto::forward::replay_batch(
                retired.iter().map(|&(at, record)| (at, record.vs())),
                now,
                bpt,
                horizon,
                &ring,
                |_, pos| (pos.raw() < 10_000).then(|| tiger_layout::CubId(pos.raw() % 14)),
                tiger_layout::CubId(3),
            ))
        })
    });
}

fn bench_layout(c: &mut Runner) {
    let cfg = StripeConfig::new(14, 4, 4);
    let placement = MirrorPlacement::new(cfg);
    c.bench_function("layout/block_location", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(cfg.block_location(DiskId(i % 56), BlockNum(i)))
        })
    });
    c.bench_function("layout/mirror_pieces", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(placement.pieces_for(DiskId(i % 56), ByteSize::from_bytes(250_000)))
        })
    });
}

/// `BlockIndex::lookup_primary` and `lookup_secondary` — the extent every
/// disk read looks up — on cub 0 of a `sosp97` system with its 64-file
/// catalog loaded, round-robin over the cub's disks (and pieces), then
/// its files, then their blocks, so consecutive lookups land in different
/// runs as the reads of different streams do.
fn bench_index(c: &mut Runner) {
    use tiger_core::{TigerConfig, TigerSystem};
    use tiger_workload::{populate_catalog, CatalogSpec};
    let mut sys = TigerSystem::new(TigerConfig::sosp97());
    populate_catalog(&mut sys, &CatalogSpec::sosp97());
    let lap = sys.shared().cfg.stripe.num_disks();
    let index = sys.cubs()[0].index();
    // Every key cub 0 holds, in round-robin order: by the block's lap,
    // then file, then disk and piece.
    let mut keys: Vec<_> = (index.extents())
        .map(|(disk, piece, file, block, _)| (block.raw() / lap, file, disk, piece, block))
        .collect();
    keys.sort_unstable();
    let (primary, secondary): (Vec<_>, Vec<_>) = keys.into_iter().partition(|k| k.3.is_none());
    c.bench_function("index/lookup_primary_sosp97", |b| {
        let mut at = 0;
        b.iter(|| {
            at = (at + 1) % primary.len();
            let (_, file, disk, _, block) = primary[at];
            black_box(index.lookup_primary(disk, file, block))
        })
    });
    c.bench_function("index/lookup_secondary_sosp97", |b| {
        let mut at = 0;
        b.iter(|| {
            at = (at + 1) % secondary.len();
            let (_, file, disk, piece, block) = secondary[at];
            black_box(index.lookup_secondary(disk, file, block, piece.unwrap_or(0)))
        })
    });
}

fn bench_net_schedule(c: &mut Runner) {
    c.bench_function("net_schedule/fits_under_load", |b| {
        let mut s = NetworkSchedule::new(
            14,
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(135),
            Some(SimDuration::from_millis(250)),
        );
        // ~60 concurrent entries, a realistic per-cub view.
        for i in 0..60u64 {
            let inst = ViewerInstance {
                viewer: ViewerId(i),
                incarnation: 0,
            };
            let start = SimDuration::from_millis((i * 250) % 14_000);
            let _ = s.insert(inst, start, Bandwidth::from_mbit_per_sec(2), false);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let start = SimDuration::from_millis((i * 250) % 14_000);
            black_box(s.fits(start, Bandwidth::from_mbit_per_sec(2)))
        })
    });
    c.bench_function("net_schedule/admissible_starts", |b| {
        // The phase-0 local check: scan the whole ring for candidate
        // starts. Same 60-entry view as fits_under_load.
        let mut s = NetworkSchedule::new(
            14,
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(135),
            Some(SimDuration::from_millis(250)),
        );
        for i in 0..60u64 {
            let inst = ViewerInstance {
                viewer: ViewerId(i),
                incarnation: 0,
            };
            let start = SimDuration::from_millis((i * 250) % 14_000);
            let _ = s.insert(inst, start, Bandwidth::from_mbit_per_sec(2), false);
        }
        b.iter(|| {
            black_box(
                s.admissible_starts(
                    Bandwidth::from_mbit_per_sec(2),
                    SimDuration::from_millis(250),
                )
                .count(),
            )
        })
    });
    c.bench_function("net_schedule/insert_abort", |b| {
        let mut s = NetworkSchedule::new(
            14,
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(135),
            Some(SimDuration::from_millis(250)),
        );
        let inst = ViewerInstance {
            viewer: ViewerId(1),
            incarnation: 0,
        };
        b.iter(|| {
            let id = s
                .insert(
                    inst,
                    SimDuration::from_millis(250),
                    Bandwidth::from_mbit_per_sec(2),
                    true,
                )
                .expect("fits");
            s.abort(id).expect("exists");
        })
    });
}

fn bench_admission_storm(c: &mut Runner) {
    // A flash crowd against a production-scale ring: 64 cubs, decluster 8
    // (125 ms quantum, 512 slots), NIC nearly full of 2 Mbit/s streams:
    // thousands of probes against a near-full schedule, where a rescan
    // would pay O(entries) per probe.
    let build = || {
        let mut s = NetworkSchedule::new(
            64,
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(135),
            Some(SimDuration::from_millis(125)),
        );
        // Pack ~60 of the 67 per-window stream capacity everywhere:
        // 512 slots / 8 per entry = 64 positions × 60 lanes.
        let mut v = 0u64;
        for lane in 0..60u64 {
            for pos in 0..64u64 {
                let inst = ViewerInstance {
                    viewer: ViewerId(v),
                    incarnation: 0,
                };
                v += 1;
                let start = SimDuration::from_millis(pos * 1_000 + (lane % 8) * 125);
                let _ = s.insert(inst, start, Bandwidth::from_mbit_per_sec(2), false);
            }
        }
        (s, v)
    };
    c.bench_function("admission_storm/probe_near_full", |b| {
        let (s, _) = build();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let start = SimDuration::from_millis((i * 125) % 64_000);
            black_box(s.fits(start, Bandwidth::from_mbit_per_sec(2)))
        })
    });
    c.bench_function("admission_storm/first_fit_near_full", |b| {
        let (s, _) = build();
        b.iter(|| {
            black_box(
                s.admissible_starts(
                    Bandwidth::from_mbit_per_sec(2),
                    SimDuration::from_millis(125),
                )
                .next(),
            )
        })
    });
    c.bench_function("admission_storm/churn_near_full", |b| {
        let (mut s, next_viewer) = build();
        let mut i = 0u64;
        b.iter(|| {
            let inst = ViewerInstance {
                viewer: ViewerId(next_viewer + i),
                incarnation: 0,
            };
            i += 1;
            let start = SimDuration::from_millis((i * 125) % 64_000);
            if let Ok(id) = s.insert(inst, start, Bandwidth::from_mbit_per_sec(2), true) {
                s.abort(id).expect("exists");
            }
            black_box(s.len())
        })
    });
}

fn bench_event_queue(c: &mut Runner) {
    // Pop the head, schedule a replacement a fixed delay out. 4096 events a
    // microsecond apart are a thousand to a millisecond bucket — not the
    // simulator's shape (the data plane drains a dozen), and while a due
    // bucket went through a heap (PRs 17-23: 77 ns, then 62) the
    // calendar's worst: a thousand pushes and pops of a thousand-entry
    // heap. Re-baselined 62 -> 13 ns (PR 24): a bucket is now loaded as
    // one sorted vector — its list comes newest first, which for delays
    // that are all alike is the order wanted, so the sort is one pass —
    // and a pop is `Vec::pop`. `churn_42k_sosp` below is the row to read.
    c.bench_function("event_queue/churn_4k", |b| {
        let mut q = EventQueue::new();
        for i in 0..4096u64 {
            q.schedule(SimTime::from_nanos(i * 1_000), i);
        }
        b.iter(|| {
            let (_, e) = q.pop().expect("queue never drains");
            q.schedule_in(SimDuration::from_millis(5), e);
            black_box(e)
        })
    });
    // A handler pops an event and schedules a follow-up just after the
    // instant it is running at, ahead of everything else pending.
    // Re-baselined 6.5 -> 17 ns (PR 17): the one-entry front slot that
    // served this in 4 ns is gone, because counted on the ruler it served
    // 0.011-0.042 % of pops on the four data-plane workloads and 1.6 % on
    // `vcr-churn`. The follow-up is a late arrival: it takes a slab slot
    // and goes through the one-entry late heap, and the backlog's event
    // behind it is a bucket of one, loaded as it pops (13 ns, PR 24).
    c.bench_function("event_queue/pop_then_schedule_head", |b| {
        let mut q = EventQueue::new();
        for i in 0..4096u64 {
            q.schedule(SimTime::from_secs(1_000 + i), i);
        }
        b.iter(|| {
            let (now, e) = q.pop().expect("queue never drains");
            // Follow-up lands before the rest of the backlog.
            q.schedule(now + SimDuration::from_nanos(1), e);
            black_box(e)
        })
    });
    // The queue as the full-scale data plane loads it (`scale-56`: 42.4 k
    // pending 64-byte `Event`s, 17.6 per stream). Every block contributes
    // one event of each kind below, so cycling through the five delays
    // holds the pending population in the measured proportions: `SendDue`
    // a `maxVStateLead` ahead (9 s) and `ReadIssue` two scheduling leads
    // before it are 94 % of what is pending, `SendDone` a block play time
    // out, `DiskDone` tens of milliseconds, `Deliver` a LAN latency.
    const PENDING: u64 = 42_000;
    // Per kind, the shortest and longest delay in nanoseconds.
    const MIX: [(u64, u64); 5] = [
        (9_000_000_000, 9_000_000_000), // SendDue
        (7_600_000_000, 7_600_000_000), // ReadIssue
        (1_000_000_000, 1_000_000_000), // SendDone
        (20_000_000, 60_000_000),       // DiskDone
        (1_000_000, 1_000_000),         // Deliver
    ];
    // Open in the steady state: each kind's share of the population is its
    // delay's share of the sum, spread evenly over that delay. What comes
    // back is the loop's one step: pop the head, schedule the next kind.
    let sosp_churn = || {
        let mut rng = tiger_sim::RngTree::new(1997).fork("queue-bench", 0);
        let mut q = EventQueue::with_capacity(PENDING as usize);
        let sum: u64 = MIX.iter().map(|(lo, hi)| (lo + hi) / 2).sum();
        for (kind, (lo, hi)) in MIX.into_iter().enumerate() {
            let mean = (lo + hi) / 2;
            for _ in 0..PENDING * mean / sum + 1 {
                let at = SimTime::from_nanos(rng.gen_range(0..mean));
                q.schedule(at, [kind as u64; 8]);
            }
        }
        let mut kind = 0;
        move || {
            let (_, e) = q.pop().expect("queue never drains");
            kind = (kind + 1) % MIX.len();
            let (lo, hi) = MIX[kind];
            q.schedule_in(SimDuration::from_nanos(rng.gen_range(lo..=hi)), e);
            black_box(e)
        }
    };
    c.bench_function("event_queue/churn_42k_sosp", |b| b.iter(sosp_churn()));
    // The same loop as the window sees it. Above, the queue has the cache
    // to itself, and 4 MB of slab half fits; in a run every pop is followed
    // by a handler and 90 MB of cubs, and an event scheduled nine seconds
    // ago is cold when it comes due. So: an untimed read sweep over 4 MiB
    // (twice this host's L2), then sixteen steps timed together — about a
    // bucket and a half, so the queue's own small hot state (heads of
    // lists, the bitmap word, what it holds of the bucket being drained)
    // is warm after the first step, as it is between two handlers, and
    // what each step pays for is its own events' lines. Per step.
    c.bench_function("event_queue/churn_42k_sosp_evicted", |b| {
        const GROUP: u32 = 16;
        let sweep = vec![1u8; 4 << 20];
        let mut step = sosp_churn();
        b.iter_timed(|| {
            black_box(sweep.iter().step_by(64).map(|&x| u64::from(x)).sum::<u64>());
            let start = std::time::Instant::now();
            for _ in 0..GROUP {
                step();
            }
            start.elapsed() / GROUP
        })
    });
    // Cold fill: what building up a fresh queue costs, regrowth included.
    // Re-baselined 8.0 -> 15 us (PR 17), 11-12 us since: the first event
    // opens the calendar at its own bucket and all 1024 instants fall in
    // it, so every one is a late arrival — three pushes into three vectors
    // growing from nothing (link, payload, the late heap's key) where one
    // heap had one. No bucket is loaded and the ring, allocated on first
    // use, is never reached. It is also the case that keeps the late heap
    // a heap: inserted into a sorted run instead this row read 108-143 us.
    // `TigerSystem::new` pre-sizes the slab.
    c.bench_function("event_queue/fill_1k_fresh", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.schedule(SimTime::from_nanos(i ^ 0x5555), i);
            }
            black_box(q.len())
        })
    });
}

fn bench_trace(c: &mut Runner) {
    use tiger_trace::{TraceEvent, Tracer};
    // The trace hooks sit on the protocol hot paths (accept, forward,
    // disk issue/done, send due/done), so the disabled path must cost
    // essentially nothing — it is one pointer test. The enabled path is a
    // ring-slot write; both are far below the cheapest schedule op above.
    let ev = |i: u32| TraceEvent::SendDone {
        slot: i % 602,
        viewer: u64::from(i),
        inc: 0,
    };
    c.bench_function("trace_overhead/record_off", |b| {
        let mut t = Tracer::disabled();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.record(SimTime::from_nanos(u64::from(i)), i % 14, ev(i));
            black_box(&mut t);
        })
    });
    c.bench_function("trace_overhead/record_on", |b| {
        let mut t = Tracer::enabled(4096);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.record(SimTime::from_nanos(u64::from(i)), i % 14, ev(i));
            black_box(&mut t);
        })
    });
}

fn bench_fault_check(c: &mut Runner) {
    use tiger_faults::{FaultPlan, NetFaults, Topology};
    use tiger_sim::RngTree;
    // The fault hooks guard every network send, disk submit, and cub
    // dispatch. Like the trace hooks, the disabled path is one pointer
    // test — the no-faults system must not pay for the subsystem's
    // existence. The enabled path is a window scan plus an RNG draw.
    let topo = Topology { num_cubs: 14 };
    c.bench_function("fault_check_off", |b| {
        let mut f = NetFaults::disabled();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            if f.active() {
                black_box(f.verdict(SimTime::from_nanos(u64::from(i)), i % 14, (i + 1) % 14));
            }
            black_box(&mut f);
        })
    });
    c.bench_function("fault_check_on", |b| {
        let plan = FaultPlan::parse("drop *>* prob=0.5 from=0s until=1h").expect("plan parses");
        let mut f = NetFaults::compile(
            &plan,
            topo,
            RngTree::new(7).subtree("faults", 0).fork("net", 0),
        );
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            if f.active() {
                black_box(f.verdict(SimTime::from_nanos(u64::from(i)), i % 14, (i + 1) % 14));
            }
            black_box(&mut f);
        })
    });
}

fn bench_proto_step(c: &mut Runner) {
    use tiger_proto::insert::AttemptDecision;
    use tiger_proto::{InsertMachine, PendingStart, RingConfig, RingMachine};
    // One step of each sans-io machine, as both drivers pay it (the DES
    // per event, the socket driver per datagram/poll). These sit inside
    // the protocol hot loops, so like the trace and fault hooks they
    // must stay trivially cheap next to a disk read.
    let cfg = RingConfig {
        deadman_timeout: SimDuration::from_secs(20),
        deadman_interval: SimDuration::from_secs(5),
        min_vstate_lead: SimDuration::from_secs(4),
    };
    c.bench_function("proto_step/ring_ping", |b| {
        let mut ring = RingMachine::new(tiger_layout::CubId(3), 14);
        let pred = ring
            .prev_living(tiger_layout::CubId(3))
            .expect("ring of 14");
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_millis(5_000);
            black_box(ring.on_ping(pred, t))
        })
    });
    c.bench_function("proto_step/ring_check_quiet", |b| {
        // The common case: every predecessor heartbeat arrived, the poll
        // returns no verdict.
        let mut ring = RingMachine::new(tiger_layout::CubId(3), 14);
        let pred = ring
            .prev_living(tiger_layout::CubId(3))
            .expect("ring of 14");
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_millis(5_000);
            ring.on_ping(pred, t);
            black_box(ring.poll_check(t, &cfg))
        })
    });
    c.bench_function("proto_step/insert_route_commit", |b| {
        // Enqueue one routed start and drive the attempt to a commit —
        // the full machine-side cost of a §4.1.3 insertion.
        let mut ins = InsertMachine::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let p = PendingStart {
                instance: ViewerInstance {
                    viewer: ViewerId(i),
                    incarnation: 0,
                },
                client: 1,
                file: FileId(3),
                from_block: BlockNum(0),
                requested_at: SimTime::from_nanos(i),
            };
            ins.on_routed_start(p, false, false);
            ins.attempt_due();
            black_box(ins.attempt(|_| AttemptDecision::Commit))
        })
    });
}

fn bench_workgen(c: &mut Runner) {
    use tiger_sim::RngTree;
    use tiger_workgen::{SessionMachine, SessionSpec, WorkloadPlan};
    // The workload generators run once per arrival / per session op — a
    // handful of draws against the whole simulated lifetime of a viewer —
    // so they must be noise next to even the cheapest schedule op. The
    // named trio measure the steady-state paths (alias-table draw, plain
    // Poisson gap, one competing-risks transition); arrival_next_thinning
    // is the worst case, with diurnal modulation and a flash crowd both
    // active so every candidate pays the λ(t) evaluation.
    let plain_text = "zipf s=1.1 titles=256\narrivals rate=5/s\n";
    let plain = WorkloadPlan::parse(plain_text).expect("plan parses");
    let surged = WorkloadPlan::parse(&format!(
        "{plain_text}flashcrowd title=t7 at=120s peak=40x decay=60s\n\
         diurnal period=600s trough=0.2\n"
    ))
    .expect("plan parses");
    c.bench_function("workgen/popularity_sample", |b| {
        let mut w = plain.compile(&RngTree::new(11).subtree("workgen", 0));
        b.iter(|| black_box(w.popularity.sample(SimTime::from_secs(120), &mut w.chooser)))
    });
    c.bench_function("workgen/arrival_next", |b| {
        let mut w = plain.compile(&RngTree::new(11).subtree("workgen", 0));
        b.iter(|| black_box(w.arrivals.next_arrival()))
    });
    c.bench_function("workgen/arrival_next_thinning", |b| {
        let mut w = surged.compile(&RngTree::new(11).subtree("workgen", 0));
        b.iter(|| black_box(w.arrivals.next_arrival()))
    });
    c.bench_function("workgen/session_step", |b| {
        let spec = SessionSpec {
            interactive: 1.0,
            pause_rate: 0.05,
            dwell_mean: SimDuration::from_secs(10),
            seek_rate: 0.03,
            abandon_rate: 0.008,
        };
        let tree = RngTree::new(11).subtree("workgen", 0).subtree("session", 0);
        let mut m = SessionMachine::new(spec, SimTime::ZERO, 4_000, tree.fork("viewer", 0));
        let mut v = 0u64;
        b.iter(|| {
            let ev = m.step();
            if ev.is_none() {
                // Machine reached Done; restart on the next viewer stream.
                v += 1;
                m = SessionMachine::new(spec, SimTime::ZERO, 4_000, tree.fork("viewer", v));
            }
            black_box(ev)
        })
    });
}

fn bench_disk_model(c: &mut Runner) {
    use tiger_disk::{Disk, DiskProfile, DiskRequest, RequestKind};
    use tiger_sim::RngTree;
    c.bench_function("disk/submit_complete", |b| {
        let mut d = Disk::new(DiskProfile::sosp97(), RngTree::new(3).fork("bench", 0));
        let mut now = SimTime::ZERO;
        let mut offset = 0u64;
        b.iter(|| {
            offset = (offset + 250_000) % 1_000_000_000;
            let done = d
                .submit(
                    now,
                    DiskRequest {
                        offset,
                        len: ByteSize::from_bytes(250_000),
                        kind: RequestKind::Primary,
                    },
                )
                .expect("accepts");
            d.complete(done);
            now = done;
            black_box(done)
        })
    });
}

fn bench_coded(c: &mut Runner) {
    use tiger_coded::{gf256, ReedSolomon};
    c.bench_function("coded/gf256_mul", |b| {
        let mut x = 1u8;
        b.iter(|| {
            x = gf256::mul(x, 29).wrapping_add(1);
            black_box(x)
        })
    });
    c.bench_function("coded/gf256_mul_acc_4k", |b| {
        let src: Vec<u8> = (0..4096u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut dst = vec![0u8; 4096];
        b.iter(|| {
            gf256::mul_acc(&mut dst, &src, 0x53);
            black_box(dst[0])
        })
    });
    // The service-path geometry: the small-test backend's k = 2 of
    // n = 4 code over one 250 kB Tiger block.
    let rs = ReedSolomon::new(2, 4).expect("2-of-4 is a valid code");
    let block: Vec<u8> = (0..250_000u32).map(|i| (i * 31 + 7) as u8).collect();
    let shards = rs.encode(&block);
    c.bench_function("coded/encode_250k_k2n4", |b| {
        b.iter(|| black_box(rs.encode(&block).len()))
    });
    c.bench_function("coded/decode_parity_250k_k2n4", |b| {
        // Worst case: no systematic shard survives — both survivors are
        // parity, so decoding solves the full k x k system.
        let have: Vec<(u32, &[u8])> = vec![(2, &shards[2][..]), (3, &shards[3][..])];
        b.iter(|| {
            let out = rs.decode(&have, block.len()).expect("any k decode");
            black_box(out.len())
        })
    });
    c.bench_function("coded/reserve_rank_release_k2", |b| {
        // What the coded backend's load accounting costs a block on the
        // `coded-k2` geometry (56 disks, decluster 2, one-second blocks):
        // the home ranks the block's three remote holders, reserves its own
        // disk and the best one, and the reservation made 1,024 blocks
        // earlier — 2.6 s of 392 streams' blocks — is released. Homes and
        // due times walk the ring as the streams do.
        use tiger_core::{Backend, RedundancyMode, TigerConfig};
        const LIVE: u64 = 1_024;
        let mut cfg = TigerConfig::sosp97();
        cfg.stripe = StripeConfig::new(14, 4, 2);
        cfg.redundancy = RedundancyMode::Coded;
        let mut backend = Backend::new(&cfg);
        let block = |i: u64| {
            let home = DiskId((i * 7 % 56) as u32);
            let at = SimTime::from_nanos(3_000_000_000 + i * 2_551_000);
            (vs((i % 392) as u32, i % 392, (i / 392) as u32), home, at)
        };
        let reserve = |backend: &mut Backend, i: u64| {
            let (state, home, at) = block(i);
            let ranked = backend.rank_holders(home, at, 1, |_| true);
            backend.reserve(&state, home, at, ranked)
        };
        let mut held: Vec<u32> = (0..LIVE).map(|i| reserve(&mut backend, i)).collect();
        let mut i = LIVE;
        b.iter(|| {
            let (state, home, at) = block(i - LIVE);
            let slot = (i % LIVE) as usize;
            backend.release(&state, home, at, held[slot]);
            held[slot] = reserve(&mut backend, i);
            i += 1;
        })
    });
}

fn main() {
    let mut c = Runner::from_args();
    bench_slot_math(&mut c);
    bench_view_ops(&mut c);
    bench_view_held(&mut c);
    bench_forward_pass(&mut c);
    bench_rejoin(&mut c);
    bench_layout(&mut c);
    bench_index(&mut c);
    bench_net_schedule(&mut c);
    bench_admission_storm(&mut c);
    bench_event_queue(&mut c);
    bench_trace(&mut c);
    bench_fault_check(&mut c);
    bench_proto_step(&mut c);
    bench_workgen(&mut c);
    bench_disk_model(&mut c);
    bench_coded(&mut c);
    bench_service_table(&mut c);
    c.finish();
}
