//! Online reconfiguration: cub restarts, queued live restripe steps with
//! their atomic cut-over, and spare-shield campaigns. This module owns the
//! `Reconfig` state and every [`TigerSystem`] handler that changes the
//! machine population or the geometry; the bulk data movement itself runs
//! in [`crate::copy`], one pipeline per lane.

use std::collections::{HashSet, VecDeque};

use tiger_layout::catalog::FileMeta;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{
    CubId, DiskId, DiskRegion, FileId, Piece, RedundancyMode, RestripePlan, StripeConfig,
};
use tiger_sched::Deschedule;
use tiger_sim::{SimDuration, SimTime};
use tiger_trace::TraceEvent;

use crate::backend::{Backend, Loads};
use crate::copy::{CopyJob, CopyPipeline, Lane};
use crate::ctx::Ctx;
use crate::cub::Cub;
use crate::event::Event;
use crate::system::TigerSystem;

/// Interval between pumps of a copy lane with work outstanding.
const COPY_TICK: SimDuration = SimDuration::from_millis(100);

/// One queued restripe step: the membership delta applied at its
/// cut-over. Exactly one of `add`/`remove` is nonzero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestripeStep {
    /// Spares absorbed into the stripe.
    pub add: u32,
    /// Trailing stripe members drained and fenced out (they rejoin the
    /// spare pool).
    pub remove: u32,
}

/// Reconfiguration state of a [`TigerSystem`].
#[derive(Debug, Default)]
pub(crate) struct Reconfig {
    /// The restripe step executing now, with its planned moves.
    step: Option<(RestripeStep, RestripePlan)>,
    /// Queued follow-on restripe steps, executed in order: each starts at
    /// the previous step's cut-over (or at its own armed start time,
    /// whichever is later).
    queue: VecDeque<RestripeStep>,
    /// How many [`Event::RestripeStart`] instants have fired while an
    /// earlier step was still executing: each arms the next queued step
    /// to begin at that step's cut-over.
    armed: usize,
    /// Each lane's copy pipeline (None when idle), indexed by [`Lane`].
    pipes: [Option<CopyPipeline>; 2],
    /// When each lane's next [`Event::CopyTick`] is due. A tick arriving
    /// earlier belongs to a chain whose pipeline already finished and is
    /// dropped.
    tick_due: [SimTime; 2],
    /// Striped cubs already shielded in the current geometry epoch (the
    /// campaign runs once per failure declaration; cleared at cut-over).
    shield_done: HashSet<CubId>,
    /// Spares currently holding shield copies (one campaign per spare).
    shield_spares_used: HashSet<CubId>,
}

impl TigerSystem {
    /// Schedules a restart of a crashed/fenced cub at time `at`: it comes
    /// back with empty schedule state and re-learns its slots via the
    /// rejoin protocol.
    pub fn restart_cub_at(&mut self, at: SimTime, cub: CubId) {
        self.schedule(at, Event::RestartCub { cub });
    }

    /// Schedules a live restripe at time `at` that absorbs `add_cubs` of
    /// the provisioned spares into the stripe. The moves execute as
    /// background work inside the event loop; when the last block lands,
    /// the system cuts over to the new geometry and re-inserts every
    /// running viewer. Steps queue: a request issued while an earlier
    /// step is still executing arms the next step to begin at that
    /// step's cut-over.
    ///
    /// # Panics
    ///
    /// Panics if the step is invalid against the membership projected
    /// through every step already accepted (see `enqueue_restripe`).
    pub fn request_restripe(&mut self, at: SimTime, add_cubs: u32) {
        self.enqueue_restripe(at, add_cubs, 0);
    }

    /// Schedules a live *shrink* at time `at`: the last `remove_cubs`
    /// stripe members drain their primaries to the survivors through the
    /// background mirror lane, then are fenced out of the ring at the
    /// cut-over and rejoin the spare pool.
    ///
    /// # Panics
    ///
    /// Panics if the step is invalid (see `enqueue_restripe`).
    pub fn request_restripe_remove(&mut self, at: SimTime, remove_cubs: u32) {
        self.enqueue_restripe(at, 0, remove_cubs);
    }

    /// Queues one restripe step (grow or shrink; both-zero is a legal
    /// no-op step that cuts over immediately), validating it against the
    /// membership *projected* through every previously accepted step.
    ///
    /// # Panics
    ///
    /// Panics if both of `add`/`remove` are nonzero, if a grow exceeds
    /// the projected spare pool, or if a shrink would not leave at least
    /// one striped cub, or if the geometry it leaves breaks a
    /// [`TigerConfig::preconditions`](crate::TigerConfig::preconditions)
    /// entry (a schedule shorter than `maxVStateLead`).
    pub fn enqueue_restripe(&mut self, at: SimTime, add: u32, remove: u32) {
        assert!(
            add == 0 || remove == 0,
            "a restripe step adds or removes cubs, not both (add={add}, remove={remove})"
        );
        // Project membership through the executing step and the queue.
        let mut striped = self.shared.world.cfg.stripe.num_cubs;
        let mut spares = self.shared.world.cfg.spare_cubs;
        let executing = self.reconfig.step.iter().map(|(step, _)| step);
        for step in executing.chain(self.reconfig.queue.iter()) {
            striped = striped + step.add - step.remove;
            spares = spares - step.add + step.remove;
        }
        assert!(
            add <= spares,
            "restripe adds {add} cubs but only {spares} spares are (projected) provisioned"
        );
        assert!(
            remove < striped,
            "restripe removes {remove} of {striped} (projected) striped cubs; at least one must remain"
        );
        let disks = (striped - remove) * self.shared.world.cfg.stripe.disks_per_cub;
        for (holds, sentence) in self.shared.world.cfg.preconditions(disks) {
            assert!(holds, "restripe to {disks} disks: {sentence}");
        }
        self.reconfig.queue.push_back(RestripeStep { add, remove });
        self.schedule(at, Event::RestripeStart);
    }

    /// Handles [`Event::RestartCub`]: the cub revives with empty schedule
    /// state, announces the rejoin and arms its periodic work under a
    /// fresh monitoring baseline (`Cub::restart`).
    pub(crate) fn restart_cub(&mut self, now: SimTime, cub: CubId) {
        if cub.raw() >= self.shared.world.cfg.stripe.num_cubs {
            return; // Spares join via a restripe cut-over, not a rejoin.
        }
        if !self.cubs[cub.index()].failed {
            return; // Never crashed, or already restarted.
        }
        self.trace(now, TraceEvent::CubRestart { cub: cub.raw() });
        self.cubs[cub.index()].restart(&mut self.shared.cub_cx(now, cub));
    }

    /// Handles [`Event::RestripeStart`]: pop the next queued step and
    /// start its background pipeline — or, if an earlier step is still
    /// executing, arm the step to begin at that step's cut-over.
    pub(crate) fn restripe_start(&mut self, now: SimTime) {
        if self.reconfig.step.is_some() {
            // Busy: remember that this step's start time has passed so
            // the cut-over launches it immediately.
            self.reconfig.armed += 1;
            return;
        }
        let Some(step) = self.reconfig.queue.pop_front() else {
            return;
        };
        // Plan the step and launch its background move pipeline.
        let old = self.shared.world.cfg.stripe;
        let new = StripeConfig::new(
            old.num_cubs + step.add - step.remove,
            old.disks_per_cub,
            old.decluster,
        );
        let plan = RestripePlan::plan(&self.shared.world.catalog, old, new);
        let moves = plan.moves().len() as u32;
        self.trace(now, TraceEvent::RestripeStart { moves });
        let mut pipe = CopyPipeline::new(Lane::Restripe, old, now);
        pipe.extend(plan.moves().iter().map(|mv| {
            let src_cub = old.cub_of(mv.from);
            CopyJob {
                src: mv.from,
                dst: new.cub_of(mv.to),
                dst_local: u32::from(new.local_index_of(mv.to)),
                index_as: mv.to,
                file: mv.file,
                block: mv.block,
                piece: None,
                size: mv.size,
                // A shrink drains every block homed on the removed
                // trailing cubs; batch those moves per cub so the drain's
                // completion is observable before the cut-over fence.
                batch: (src_cub.raw() >= new.num_cubs).then_some((src_cub.raw(), 0)),
            }
        }));
        self.reconfig.step = Some((step, plan));
        if pipe.pending() == 0 {
            self.restripe_cutover(now);
        } else {
            self.reconfig.pipes[Lane::Restripe as usize] = Some(pipe);
            self.with_lane(now, Lane::Restripe, |p, cx, cubs| p.pump(cx, cubs));
            self.arm_copy_tick(now, Lane::Restripe);
        }
    }

    /// The live-restripe cut-over barrier: every moved block has landed,
    /// so swap the system to the new geometry in one event. Running
    /// viewers are carried across by re-insertion — their old-incarnation
    /// records are fenced with deschedules and a fresh incarnation starts
    /// at each viewer's high-water mark, so no block is played twice and
    /// at most the in-flight window is re-requested.
    fn restripe_cutover(&mut self, now: SimTime) {
        let Some((_, plan)) = self.reconfig.step.take() else {
            return;
        };
        let old = plan.old_config();
        let new = plan.new_config();
        let moved = plan.moves().len() as u32;
        self.trace(now, TraceEvent::RestripeCutover { moved });
        // 1. Collect the live viewers (deterministically: clients in index
        // order, instances sorted) before any state is torn down.
        let mut live: Vec<(u32, ViewerInstance, FileId, u32)> = (0u32..)
            .zip(&self.clients)
            .flat_map(|(ci, client)| {
                let playing = client
                    .viewers()
                    .filter(|(_, v)| !v.stopped && !v.complete());
                playing.map(move |(&inst, v)| (ci, inst, v.file, v.resume_block()))
            })
            .collect();
        live.sort_unstable_by_key(|&(ci, inst, _, _)| (ci, inst));
        // 2. Fence the old incarnations: deschedules (slot from the
        // controller's commit record) block any old-geometry record still
        // in flight from re-entering a view after the swap.
        let fences: Vec<Deschedule> = live
            .iter()
            .filter_map(|&(_, instance, _, _)| {
                let slot = self.ctl.viewer(&instance)?.slot?;
                Some(Deschedule { instance, slot })
            })
            .collect();
        let hold_until = now + self.shared.world.cfg.deschedule_reach();
        for &(ci, inst, _, _) in &live {
            self.ctl.on_viewer_finished(inst);
            self.clients[ci as usize].on_stopped(inst);
        }
        for cub in &mut self.cubs {
            cub.cutover_reset(&mut self.shared.cub_cx(now, cub.id), &fences, hold_until);
        }
        // 3. Swap the geometry: config, derived parameters, catalog
        // start-disks, redundancy backend (fresh load table: every carried
        // viewer is re-inserted). Absorbed spares leave the spare pool;
        // shrunk-out members rejoin it.
        let world = &mut self.shared.world;
        world.cfg.stripe = new;
        world.cfg.spare_cubs = world.cfg.spare_cubs + old.num_cubs - new.num_cubs;
        world.params = world.cfg.schedule_params();
        world.catalog.restripe(new);
        world.backend = Backend::new(&world.cfg);
        self.shared.loads = Loads::new(&world.cfg);
        // 4. Layout: drop the source entries of every moved block (the
        // copy already landed at its destination during the background
        // phase) and re-derive the mirror layout wholesale.
        for mv in plan.moves() {
            let src = old.cub_of(mv.from);
            self.cubs[src.index()].remove_primary_entry(mv.from, mv.file, mv.block);
        }
        self.relay_secondaries();
        // 5. Ring: activate the absorbed spares (their disks were live all
        // along) / fence out the shrunk members (their disks and NICs
        // stay alive — they are spares again, with emptied primaries) and
        // distribute the ground-truth membership map — the restriper's
        // cut-over barrier is the one moment it is known.
        for j in old.num_cubs..new.num_cubs {
            self.cubs[j as usize].failed = false;
        }
        for j in new.num_cubs..old.num_cubs {
            self.cubs[j as usize].failed = true;
            self.trace(now, TraceEvent::ShrinkFence { cub: j });
        }
        let failed_map: Vec<bool> = self.cubs.iter().map(|c| c.failed).collect();
        for cub in &mut self.cubs {
            cub.set_ring_state(&failed_map, now);
        }
        self.ctl.believes_failed.reset_from(&failed_map);
        for j in old.num_cubs..new.num_cubs {
            self.cubs[j as usize].arm_periodic(&mut self.shared.cub_cx(now, CubId(j)), false);
        }
        // 6. The omniscient checker's materialized schedule is keyed to
        // the old geometry; rebuild it fresh (with its insertion grace).
        if self.shared.omniscient.is_some() {
            self.enable_omniscient();
        }
        // 7. Re-insert every carried viewer as a fresh incarnation at its
        // high-water mark (a normal start request through the controller).
        for (ci, inst, file, resume) in live {
            self.on_client_start(now, ci, file, resume, inst.next_incarnation());
        }
        // 8. Shield copies rode the secondary layout `relay_secondaries`
        // just rebuilt: the permanent mirror geometry has absorbed the
        // exposure, so the interim shield evaporates with it.
        self.shared.shield.clear();
        self.reconfig.pipes[Lane::Shield as usize] = None;
        self.reconfig.shield_done.clear();
        self.reconfig.shield_spares_used.clear();
        // 9. Launch the next queued step if its start time already passed
        // while this step was executing.
        if self.reconfig.armed > 0 {
            self.reconfig.armed -= 1;
            self.restripe_start(now);
        }
    }

    /// Lays `meta` out on the current stripe a run at a time: on every
    /// disk, its primary run (with `primary`), then on every disk the
    /// mirror pieces or coded shards it holds, in block order
    /// (`tiger_layout::lay`) — the one placement content loading and the
    /// cut-over's wholesale re-derivation of the secondaries share. Two
    /// passes keep a file's primary runs, which every block read looks
    /// up, together on the heap.
    pub(crate) fn lay_file(&mut self, meta: &FileMeta, primary: bool) {
        let (world, stripe) = (&self.shared.world, self.shared.world.params.stripe());
        let size = world.backend.primary_extent(meta.block_size);
        let home = [Piece {
            piece: 0,
            shift: 0,
            size,
        }];
        let pieces = world.backend.secondary_pieces(meta.block_size);
        let cubs = &mut self.cubs;
        let mut lay = |region, pieces: &[Piece]| {
            for disk in (0..stripe.num_disks()).map(DiskId) {
                cubs[stripe.cub_of(disk).index()].lay(stripe, meta, disk, region, pieces);
            }
        };
        if primary {
            lay(DiskRegion::Primary, &home);
        }
        lay(DiskRegion::Secondary, &pieces);
    }

    /// Re-derives every cub's secondary layout for the current stripe.
    fn relay_secondaries(&mut self) {
        for cub in &mut self.cubs {
            cub.clear_secondary_layout();
        }
        for meta in self.shared.world.catalog.files().to_vec() {
            self.lay_file(&meta, false);
        }
    }

    /// A cub was first declared failed: if the shield is enabled and a
    /// free spare exists, start background-copying the mirror pieces
    /// shadowing the failed cub's disks (the now most-exposed decluster
    /// spans) onto the spare, which serves them if a second failure lands
    /// before the restripe cut-over rebuilds permanent redundancy.
    pub(crate) fn maybe_shield(&mut self, now: SimTime, failed: CubId) {
        let stripe = self.shared.world.cfg.stripe;
        if self.shared.world.cfg.redundancy != RedundancyMode::Mirrored
            || failed.raw() >= stripe.num_cubs
            || self.reconfig.shield_done.contains(&failed)
        {
            return;
        }
        // Lowest free spare: powered, not a stripe member, not already
        // holding another campaign's copies. (None free: a later
        // declaration may find one.)
        let total = self.shared.world.cfg.total_cubs();
        let Some(spare) = (stripe.num_cubs..total).map(CubId).find(|&s| {
            self.cubs[s.index()].failed
                && !self.reconfig.shield_spares_used.contains(&s)
                && self.cubs[s.index()].disks().iter().all(|d| !d.is_failed())
        }) else {
            return;
        };
        // Build the copy list: for every block homed on a failed cub's
        // disk, each surviving holder's mirror piece (skipping holders
        // the controller already believes failed — those pieces are the
        // already-lost case the shield cannot help).
        let mut copies = Vec::new();
        for l in 0..stripe.disks_per_cub {
            let home = stripe.disk_of(failed, l);
            for meta in self.shared.world.catalog.files() {
                let pieces = self.shared.world.backend.secondary_pieces(meta.block_size);
                let run = stripe.run_on(meta.start_disk, meta.num_blocks, home);
                for block in run.blocks() {
                    for piece in &pieces {
                        let src = stripe.disk_after(home, piece.shift);
                        if self.ctl.believes_failed.is_failed(stripe.cub_of(src)) {
                            continue;
                        }
                        copies.push(CopyJob {
                            src,
                            dst: spare,
                            // The spare's disk geometry mirrors the
                            // failed cub's.
                            dst_local: l,
                            index_as: home,
                            file: meta.id,
                            block,
                            piece: Some(piece.piece),
                            size: piece.size,
                            batch: Some((home.raw(), piece.piece)),
                        });
                    }
                }
            }
        }
        if copies.is_empty() {
            return;
        }
        self.reconfig.shield_done.insert(failed);
        self.reconfig.shield_spares_used.insert(spare);
        let lane = &mut self.reconfig.pipes[Lane::Shield as usize];
        let was_idle = lane.is_none();
        lane.get_or_insert_with(|| CopyPipeline::new(Lane::Shield, stripe, now))
            .extend(copies);
        self.with_lane(now, Lane::Shield, |p, cx, cubs| p.pump(cx, cubs));
        if was_idle && self.reconfig.pipes[Lane::Shield as usize].is_some() {
            self.arm_copy_tick(now, Lane::Shield);
        }
    }

    // --- Copy-lane plumbing --------------------------------------------------

    /// Handles [`Event::CopyTick`]: pump the lane and re-arm while work
    /// remains.
    pub(crate) fn copy_tick(&mut self, now: SimTime, lane: Lane) {
        if now < self.reconfig.tick_due[lane as usize] {
            return; // A finished chain's last tick; the lane has a newer one.
        }
        self.with_lane(now, lane, |p, cx, cubs| p.pump(cx, cubs));
        if self.reconfig.pipes[lane as usize].is_some() {
            self.arm_copy_tick(now, lane);
        }
    }

    /// The one place a lane's pump chain is armed.
    fn arm_copy_tick(&mut self, now: SimTime, lane: Lane) {
        let at = now + COPY_TICK;
        self.reconfig.tick_due[lane as usize] = at;
        self.schedule(at, Event::CopyTick { lane });
    }

    /// Runs `f` against `lane`'s pipeline (no-op if idle), then drops the
    /// pipeline if every job has landed — which, on the restripe lane, is
    /// the cut-over barrier.
    pub(crate) fn with_lane(
        &mut self,
        now: SimTime,
        lane: Lane,
        f: impl FnOnce(&mut CopyPipeline, &mut Ctx, &mut [Cub]),
    ) {
        let Some(pipe) = self.reconfig.pipes[lane as usize].as_mut() else {
            return;
        };
        let cx = &mut self.shared.cx(now, self.shared.world.controller_node());
        f(pipe, cx, &mut self.cubs);
        if pipe.pending() == 0 {
            self.reconfig.pipes[lane as usize] = None;
            if lane == Lane::Restripe {
                self.restripe_cutover(now);
            }
        }
    }

    /// A canonical digest of the primary block layout: every indexed
    /// `(file, block, disk)` triple, sorted. Two systems with byte-equal
    /// digests place every block identically — the live-restripe test
    /// compares against a statically restriped target.
    pub fn layout_digest(&self) -> String {
        let mut lines: Vec<String> = (self.cubs.iter())
            .flat_map(|cub| cub.index().primary_keys())
            .map(|(disk, file, block)| {
                format!("{:08} {:08} {:08}", file.raw(), block.raw(), disk.raw())
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }
}
