//! The cub: Tiger's per-machine schedule manager (paper §4.1).
//!
//! A cub holds a bounded view of the schedule near its disks, services
//! entries as its disk pointers cross their slots (read one scheduling
//! lead early, transmit paced at the stream rate), forwards viewer states
//! to its successor and second successor, applies and propagates
//! deschedules, inserts queued start requests into slots it owns, runs the
//! deadman protocol against its predecessor, and — when a neighbour dies —
//! manufactures mirror viewer states so the declustered secondary copies
//! take over.

use tiger_layout::catalog::FileMeta;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{
    BlockIndex, BlockNum, CubId, DiskId, DiskRegion, DiskSpace, FileId, Piece, StripeConfig,
};
use tiger_proto::forward::replay_batch;
use tiger_proto::insert::AttemptDecision;
use tiger_proto::msg::Message;
use tiger_proto::{
    ForwardDriver, ForwardMachine, InsertMachine, Progress, RingDriver, RingMachine,
};
use tiger_sched::{Deschedule, SlotId, StreamKind, ViewerState};
use tiger_sim::{ByteSize, Counter, SimDuration, SimTime};
use tiger_trace::TraceEvent;

use crate::config::{ForwardingPolicy, TigerConfig, BUFFER_CACHE};
use crate::ctx::{Ctx, World};
use crate::event::Event;
use crate::pool::BufferPool;

pub use tiger_proto::insert::PendingStart;

/// The cub's side of the event loop: `Cub::on_event`, its periodic chains
/// and its life (arming, power cut, restart).
#[path = "life.rs"]
mod life;
/// The block-service half of `impl Cub` (acceptance, read, send, reclaim):
/// a child module, its file beside this one, to share the private fields.
#[path = "service.rs"]
pub mod service;
/// The tables those services live in, and their indexes.
#[path = "table.rs"]
mod table;
use table::ServiceTable;
#[doc(hidden)]
pub use table::TableBench;

/// The per-machine state of one cub.
#[derive(Debug)]
pub struct Cub {
    /// This cub's id.
    pub id: CubId,
    /// Whether this cub has been power-cut.
    pub failed: bool,
    disks: Vec<tiger_disk::Disk>,
    space: Vec<DiskSpace>,
    index: BlockIndex,
    /// The view's entries, active services and retired log (`table.rs`).
    services: ServiceTable,
    /// The sans-io §4.1.1–§4.1.2 machine: what a received record is, and
    /// the shadows, memories and holds behind that (`tiger_proto::forward`).
    fwd: ForwardMachine,
    /// The sans-io insertion machine: queued and redundant starts, and
    /// the one-armed attempt timer (`tiger_proto::insert`).
    ins: InsertMachine,
    /// The sans-io ring machine: failure beliefs, deadman clocks, rejoin
    /// horizons, and the hand-back window (`tiger_proto::ring`), run
    /// through `Driver`, whose hooks are this cub's sends, trace records
    /// and takeover.
    ring: RingMachine,
    /// Read-ahead buffers in use against the buffer cache, and the reads
    /// waiting for one.
    pool: BufferPool,
    /// Recently buffered blocks, newest last (the buffer cache doubles as
    /// a tiny block cache; §5 measured its hit rate at "less than 0.05%"
    /// because staggered viewers rarely re-read a block while it is still
    /// resident).
    cache_resident: std::collections::VecDeque<(DiskId, FileId, BlockNum)>,
    /// Block-cache hits (reads satisfied without touching the disk).
    pub cache_hits: Counter,
    /// Block-cache lookups.
    pub cache_lookups: Counter,
    /// When this cub's next periodic forwarding pass is due (`on_event`
    /// keeps it; acceptance reads it to decide whether a record can wait).
    /// ZERO ("a pass is overdue") until the first start-up pass fires:
    /// acceptance must not forward promptly before then.
    next_forward_pass: SimTime,
    /// When this cub's next deadman ping and check are due: `on_event`'s
    /// guard against a previous life's periodic events.
    next_deadman_ping: SimTime,
    next_deadman_check: SimTime,
    /// Control messages processed (receive side, for the CPU model).
    msgs_processed: Counter,
    /// Set while this cub is rejoining after a restart: the restart
    /// instant, taken (and traced as convergence) on the first primary
    /// service acceptance of the new life.
    rejoined_at: Option<SimTime>,
    /// The records a forward pass sends on: empty between passes, kept
    /// for its allocation.
    pass_batch: Vec<ViewerState>,
}

impl Cub {
    /// Creates an idle cub with its disks and `cfg`'s buffer cache.
    pub fn new(id: CubId, num_cubs: u32, disks: Vec<tiger_disk::Disk>, cfg: &TigerConfig) -> Self {
        let space = disks
            .iter()
            .map(|d| DiskSpace::half_split(d.profile().capacity))
            .collect();
        Cub {
            id,
            failed: false,
            disks,
            space,
            index: BlockIndex::new(),
            services: ServiceTable::default(),
            fwd: ForwardMachine::default(),
            ins: InsertMachine::new(),
            ring: RingMachine::new(id, num_cubs),
            pool: BufferPool::new(BUFFER_CACHE.as_bytes(), cfg.block_size().as_bytes()),
            cache_resident: std::collections::VecDeque::new(),
            cache_hits: Counter::new(),
            cache_lookups: Counter::new(),
            next_forward_pass: SimTime::ZERO,
            next_deadman_ping: SimTime::ZERO,
            next_deadman_check: SimTime::ZERO,
            msgs_processed: Counter::new(),
            rejoined_at: None,
            pass_batch: Vec::new(),
        }
    }

    // --- Content loading -------------------------------------------------

    /// Lays out the extents `disk` keeps of `meta` in `region`, a run at
    /// a time (`BlockIndex::lay`).
    pub(crate) fn lay(
        &mut self,
        stripe: StripeConfig,
        meta: &FileMeta,
        disk: DiskId,
        region: DiskRegion,
        pieces: &[Piece],
    ) {
        let space = &mut self.space[stripe.local_index_of(disk) as usize];
        (self.index.lay(space, stripe, meta, disk, region, pieces)).expect("content fits its disk");
    }

    /// Allocates space and indexes one extent on a local disk, block by
    /// block: a restripe move (`piece` `None`, the primary region) or a
    /// shield copy (mirror piece `Some(p)`) landing.
    pub fn load(
        &mut self,
        disk: DiskId,
        local: u32,
        file: FileId,
        block: BlockNum,
        piece: Option<u32>,
        size: tiger_sim::ByteSize,
    ) {
        let region = piece.map_or(DiskRegion::Primary, |_| DiskRegion::Secondary);
        let (offset, len) = (self.space[local as usize].allocate(region, size))
            .expect("region full while loading content");
        let entry = tiger_layout::IndexEntry::pack(offset, len).expect("extent packs");
        match piece {
            None => self.index.insert_primary(disk, file, block, entry),
            Some(p) => self.index.insert_secondary(disk, file, block, p, entry),
        }
        .expect("no duplicate extents while loading");
    }

    // --- Introspection ---------------------------------------------------

    /// The instance this cub's view believes holds `slot`'s primary entry.
    pub fn believed_primary(&self, slot: SlotId) -> Option<ViewerInstance> {
        self.services.view_primary(slot)
    }

    /// The view's entries not yet served here, by slot.
    pub(crate) fn unserved_view_entries(
        &self,
    ) -> impl Iterator<Item = (SlotId, ViewerInstance)> + '_ {
        self.services.unserved_view_entries()
    }

    /// Local disks (for load reporting).
    pub fn disks(&self) -> &[tiger_disk::Disk] {
        &self.disks
    }

    /// Mutable local disks (window resets).
    pub fn disks_mut(&mut self) -> &mut [tiger_disk::Disk] {
        &mut self.disks
    }

    /// Total schedule information currently held: live view entries,
    /// shadow (redundancy) records, active services, and the retired log.
    /// §4: "A necessary but insufficient condition for scalability is that
    /// participants' views be limited to a size that does not grow as a
    /// function of the scale of the system" — the boundedness test samples
    /// this.
    pub fn schedule_information_held(&self) -> usize {
        self.fwd.shadows_held() + self.services.information_held()
    }

    /// View entries of instances this cub serves nothing of (a leak).
    pub fn stray_view_entries(&self) -> usize {
        self.services.stray_view_entries()
    }

    /// The instances this cub remembers telling the controller played to
    /// their end: a retired-log window's worth.
    pub fn eof_notices_held(&self) -> usize {
        self.fwd.finished_held()
    }

    /// Peak read-ahead buffer usage in bytes (compare against the 20 MB
    /// cache of the testbed: reads that reach their floor over-commit it).
    pub fn peak_buffer_bytes(&self) -> u64 {
        self.pool.peak()
    }

    /// Reads that found the buffer pool full and waited for a buffer.
    pub fn reads_waited(&self) -> u64 {
        self.pool.waited.total()
    }

    /// Reads that reached their hard floor still waiting and were issued
    /// into the full pool.
    pub fn reads_forced(&self) -> u64 {
        self.pool.forced.total()
    }

    /// Control messages processed per second over the current window.
    pub fn msgs_processed_rate(&self, now: SimTime) -> f64 {
        self.msgs_processed.window_rate(now)
    }

    /// Starts a fresh measurement window.
    pub fn reset_window(&mut self, now: SimTime) {
        self.msgs_processed.reset_window(now);
        for d in &mut self.disks {
            d.reset_window(now);
        }
    }

    /// Whether this cub currently believes `cub` is failed.
    pub fn believes_failed(&self, cub: CubId) -> bool {
        self.ring.believes_failed(cub)
    }

    // --- Message entry point ----------------------------------------------

    /// Handles a delivered control message.
    fn on_message(&mut self, cx: &mut Ctx, msg: Message) {
        let states = match &msg {
            Message::ViewerState(vs) => std::slice::from_ref(vs),
            Message::ViewerStates(batch) => batch,
            _ => &[],
        };
        if self.failed {
            // Narrow spare-shield allowance: a spare holding ready shield
            // spans serves the mirror records the cover path routes to it,
            // while remaining a non-member for every other purpose (no
            // ring work, no forwarding, no primary service).
            if cx.shield.is_serving_spare(self.id) {
                for &vs in states {
                    self.on_shield_state(cx, vs);
                }
            }
            return;
        }
        self.msgs_processed.incr();
        let now = cx.now;
        match msg {
            Message::ViewerState(_) | Message::ViewerStates(_) => {
                for &vs in states {
                    self.on_viewer_state(cx, vs);
                }
            }
            Message::Deschedule { request, hops_left } => {
                if !Self::refuses(cx, request) {
                    let until = now + cx.world.cfg.deschedule_reach();
                    Driver { cub: self, cx }.on_deschedule(now, request, hops_left, until);
                }
            }
            Message::RoutedStart {
                client,
                instance,
                file,
                from_block,
                requested_at,
                redundant,
            } => {
                let pending = PendingStart {
                    instance,
                    client,
                    file,
                    from_block: BlockNum(from_block),
                    requested_at,
                };
                self.on_routed_start(cx, pending, redundant);
            }
            Message::RetiredReplay { from, states } => {
                // The predecessor's retired-log tail, already advanced to
                // this cub's next due positions. Receipt idempotence
                // (already-served blocks, play-sequence supersession, late
                // guards) dedups against anything the normal circulation
                // also delivers.
                self.ring.heard_from(from, now);
                for &vs in states.iter() {
                    self.on_viewer_state(cx, vs);
                }
            }
            // The ring's own messages: pings, failure notices, rejoin
            // requests and their acks.
            msg => {
                let cfg = cx.world.cfg.ring();
                let unhandled = Driver { cub: self, cx }.on_ring_message(now, &cfg, msg);
                debug_assert!(unhandled.is_none(), "cub received {unhandled:?}");
            }
        }
    }

    // --- Viewer-state handling (§4.1.1) -----------------------------------

    /// Whether a received record names a slot outside the schedule, which
    /// it then refuses as a traced drop: the wire decoder parses any
    /// `u32`, and the tables indexed by slot must not grow past capacity.
    fn refuses(cx: &mut Ctx, d: Deschedule) -> bool {
        let slot = d.slot.raw();
        let refused = slot >= cx.world.params.capacity();
        if refused {
            let (viewer, inc) = (d.instance.viewer.raw(), d.instance.incarnation);
            cx.trace(TraceEvent::SlotRefused { slot, viewer, inc });
        }
        refused
    }

    fn on_viewer_state(&mut self, cx: &mut Ctx, vs: ViewerState) {
        if Self::refuses(cx, Deschedule::of(&vs)) {
            return;
        }
        // Any sighting of a viewer state supersedes a redundant start we
        // might be holding for the same instance.
        self.ins.superseded_by_sighting(&vs.instance);

        match vs.kind {
            StreamKind::Primary => {
                let now = cx.now;
                Driver { cub: self, cx }.on_record(now, vs);
            }
            StreamKind::Mirror { failed_disk, piece } => {
                self.on_mirror_state(cx, vs, failed_disk, piece);
            }
            StreamKind::Coded { .. } => self.on_coded_state(cx, vs),
        }
    }

    // --- Forwarding (§4.1.1) ------------------------------------------------

    /// Periodic batching pass: forward viewer states whose receiver lead
    /// has dropped to `maxVStateLead`, to the successor and (policy
    /// permitting) the second successor.
    fn on_forward_pass(&mut self, cx: &mut Ctx) {
        if self.failed {
            return;
        }
        let (w, now) = (cx.world, cx.now);
        let mut finished: Vec<ViewerInstance> = Vec::new();
        self.services.forward_due(|entry| {
            let due_next = entry.send_at + w.params.block_play_time();
            if now < due_next.saturating_sub(w.cfg.max_vstate_lead) {
                return false;
            }
            entry.forward();
            let advanced = entry.vs.advanced(1);
            let meta = w.catalog.get(advanced.file).copied();
            let at_eof = meta.is_none_or(|m| advanced.position.raw() >= m.num_blocks);
            if at_eof {
                finished.push(advanced.instance);
            } else {
                self.pass_batch.push(advanced);
            }
            true
        });
        self.reclaim_finished(cx);
        self.drain_pool(cx);
        debug_assert!(self.services.iter().all(|(_, e)| !e.finished()));
        let batch = std::mem::take(&mut self.pass_batch);
        Driver { cub: self, cx }.pass(now, &finished, &batch);
        self.pass_batch = batch;
        self.pass_batch.clear();
        // Retired-log GC: keep one failure-detection window, as the
        // machine keeps its cover and end-of-file memories; its shadows
        // expire a deschedule hold past their due time.
        let retention = w.cfg.retired_retention();
        self.services.prune_retired(now, retention);
        // Each hold expiry is observed at this pass's granularity.
        self.fwd
            .on_pass(now, w.cfg.deschedule_hold, retention, |d| {
                let (viewer, inc) = (d.instance.viewer.raw(), d.instance.incarnation);
                let slot = d.slot.raw();
                cx.trace(TraceEvent::DeschedExpire { slot, viewer, inc });
            });
    }

    // --- Insertion (§4.1.3) -----------------------------------------------

    fn on_routed_start(&mut self, cx: &mut Ctx, pending: PendingStart, redundant: bool) {
        // Idempotent like a viewer state (§4.1.2): a duplicate arriving after
        // the start was inserted must not insert it into a second slot.
        let carried = self.services.carries_instance(&pending.instance);
        if self.ins.on_routed_start(pending, redundant, carried) {
            self.schedule_insert_attempt(cx);
        }
    }

    /// Arms the insertion attempt a nanosecond out, unless one is armed.
    fn schedule_insert_attempt(&mut self, cx: &mut Ctx) {
        if self.ins.arm_attempt() {
            let at = cx.now + SimDuration::from_nanos(1);
            cx.schedule(at, Event::InsertAttempt { cub: self.id });
        }
    }

    /// The disk that should source the first requested block — and the
    /// pointer whose ownership windows gate the insertion.
    fn start_disk(world: &World, pending: &PendingStart) -> Option<DiskId> {
        let loc = world.catalog.locate(pending.file, pending.from_block)?;
        Some(loc.disk)
    }

    /// Attempts to insert queued starts into currently-owned empty slots.
    fn on_insert_attempt(&mut self, cx: &mut Ctx) {
        self.ins.attempt_due();
        if self.failed {
            return;
        }
        let (world, now) = (cx.world, cx.now);
        // The machine leaves the cub for the pass: no commit feeds it an
        // input.
        let mut ins = std::mem::take(&mut self.ins);
        ins.attempt(|pending| {
            let Some(d0) = Self::start_disk(world, pending) else {
                return AttemptDecision::Drop; // Unknown file or out-of-range block.
            };
            // We may insert via d0's pointer if d0 is ours, or if we are
            // the acting successor of d0's dead cub.
            let d0_cub = world.params.stripe().cub_of(d0);
            let responsible = d0_cub == self.id || self.ring.covers(d0_cub);
            if !responsible {
                return AttemptDecision::Drop; // Another cub will run this insertion.
            }
            let owned = world.params.owned_slot_range(d0, now);
            let slot = owned
                .into_iter()
                .find(|&s| self.services.view_primary(s).is_none());
            if let Some(slot) = slot {
                self.commit_insert(cx, *pending, d0, slot);
                return AttemptDecision::Commit;
            }
            cx.trace(TraceEvent::InsertMiss {
                viewer: pending.instance.viewer.raw(),
                inc: pending.instance.incarnation,
                disk: d0.raw(),
            });
            AttemptDecision::Miss
        });
        self.ins = ins;
        if let Some(head) = self.ins.head().copied() {
            // Retry when the next ownership window opens for the head's
            // start disk.
            if let Some(d0) = Self::start_disk(world, &head) {
                let dt = world.params.time_to_next_ownership(d0, now) + SimDuration::from_nanos(1);
                self.ins.arm_attempt();
                cx.schedule(now + dt, Event::InsertAttempt { cub: self.id });
            }
        }
    }

    fn commit_insert(&mut self, cx: &mut Ctx, pending: PendingStart, d0: DiskId, slot: SlotId) {
        let (world, now) = (cx.world, cx.now);
        // `start_disk` located the file, and no file ever leaves the catalog.
        let meta = world.catalog.get(pending.file).expect("file known");
        let vs = ViewerState {
            instance: pending.instance,
            client: pending.client,
            file: pending.file,
            position: pending.from_block,
            slot,
            play_seq: 0,
            bitrate: meta.bitrate,
            kind: StreamKind::Primary,
        };
        cx.trace(TraceEvent::InsertCommit {
            slot: slot.raw(),
            viewer: pending.instance.viewer.raw(),
            inc: pending.instance.incarnation,
            disk: d0.raw(),
        });
        if let Some(omni) = cx.omniscient.as_mut() {
            omni.on_insert(vs, now);
        }
        // The start disk is this cub's or one it covers, and nothing of the
        // instance is here (a sighting drops a queued start), so this is
        // served, or covered via mirrors straight away.
        Driver { cub: self, cx }.on_record(now, vs);
        // Commit: tell the controller (the insertion "becomes part of the
        // coherent hallucination when a message to that effect makes it to
        // at least one other machine").
        let (instance, file) = (pending.instance, pending.file);
        let first_send = world.params.slot_send_time(d0, slot, now);
        let committed = Message::InsertCommitted {
            instance,
            slot,
            file,
            first_send,
        };
        cx.send_to_controller(committed);
        // Hasten propagation of the fresh insert.
        self.hasten_forward(cx);
    }

    // --- Deadman protocol (§2.3) -------------------------------------------

    /// The deadman's periodic half: the heartbeat to the successor, or the
    /// silence check on the predecessor.
    fn on_deadman(&mut self, cx: &mut Ctx, ping: bool) {
        if self.failed {
            return;
        }
        let (cfg, now) = (cx.world.cfg.ring(), cx.now);
        let mut ring = Driver { cub: self, cx };
        if ping {
            ring.ping();
        } else if let Some(failed) = ring.check(now, &cfg) {
            cx.metrics.failure_detections.push((now, failed.raw()));
        }
    }

    /// Clears the viewer/schedule state every reset path discards: the
    /// bounded schedule view, shadowed records, covered blocks and held
    /// deschedules, queued insertions, and the retired log. Power-cut,
    /// restart and cut-over all call this and layer their site-specific
    /// extras on top (a cut-over also forgets the end-of-file notices).
    fn reset_viewer_state(&mut self, cut_over: bool) {
        self.services.clear_view();
        self.fwd.reset(cut_over);
        self.ins.clear_queues();
        self.services.clear_retired();
    }

    // --- Live-restripe cut-over support -------------------------------------

    /// Read access to the block index (the restriper's layout digest).
    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// The space maps of the local disks, in local order.
    pub fn space(&self) -> &[DiskSpace] {
        &self.space
    }

    /// Removes the primary index entry for a block that migrated to another
    /// disk during a live restripe. The extent's space is not reclaimed
    /// (the space map is append-only, like the real system's restriper
    /// which reformats disks offline); only the lookup must stop answering.
    pub(crate) fn remove_primary_entry(&mut self, disk: DiskId, file: FileId, block: BlockNum) {
        self.index.remove_primary(disk, file, block);
    }

    /// Drops every mirror extent and resets the secondary space maps: the
    /// cut-over re-derives mirror placement wholesale for the new stripe.
    pub(crate) fn clear_secondary_layout(&mut self) {
        self.index.clear_all_secondary();
        for s in &mut self.space {
            s.clear_secondary();
        }
    }

    /// Marks `cub` believed-failed without the declaration side effects
    /// (construction-time marking of spare cubs, which are not ring
    /// members until a restripe cut-over activates them).
    pub(crate) fn mark_believed_failed(&mut self, cub: CubId) {
        self.ring.mark_believed_failed(cub);
    }

    /// Installs the restriper's post-cut-over ring map: belief vectors grow
    /// to the new ring size and every member's liveness is set from ground
    /// truth (the cut-over barrier is the one moment the restriper knows
    /// it). Deadman baselines restart from this instant.
    pub(crate) fn set_ring_state(&mut self, failed: &[bool], now: SimTime) {
        self.ring.set_ring_state(failed, now);
    }

    /// The schedule half of a live-restripe cut-over: kill every service
    /// that has not yet gone out (its record carries old-geometry slot
    /// assignments), let in-flight transmissions finish, and prevent any
    /// old-incarnation record from propagating by marking everything
    /// forwarded and fencing the old instances with deschedules.
    pub(crate) fn cutover_reset(&mut self, cx: &mut Ctx, fences: &[Deschedule], until: SimTime) {
        self.services.cut_over();
        self.pool.clear_waiting(); // Unsent, every one: dropped just now.
        self.reclaim_finished(cx);
        self.reset_viewer_state(true);
        for &d in fences {
            self.fwd.on_deschedule(d, cx.now, until);
        }
        self.ring.clear_handback();
    }
}

/// A cub with its context as the driver of its machines: the §2.3
/// sequence is [`RingDriver`]'s and §4.1's is [`ForwardDriver`]'s; the
/// hooks are this cub's sends, trace records, fence (a power cut), retired
/// replay, gap bridge, takeover, service and cover.
struct Driver<'a, 'w> {
    cub: &'a mut Cub,
    cx: &'a mut Ctx<'w>,
}

impl RingDriver for Driver<'_, '_> {
    fn ring(&mut self) -> &mut RingMachine {
        &mut self.cub.ring
    }

    fn send(&mut self, to: CubId, msg: Message) {
        self.cx.send(to, msg);
    }

    fn record(&mut self, event: TraceEvent) {
        self.cx.trace(event);
    }

    fn fence(&mut self) {
        self.cub.power_cut(self.cx);
    }

    /// Sub-interval rejoin: as the rejoiner's ring predecessor, replay the
    /// retired-log tail (`replay_batch`), so the rejoiner rebuilds its
    /// in-flight viewer state the moment the batch arrives instead of
    /// waiting up to a forward interval for natural circulation.
    fn replay(&mut self, to: CubId) {
        let (cub, w) = (&*self.cub, self.cx.world);
        // A record reaches its owner, or the acting successor covering it,
        // up to `legit_lead` early, plus one forward interval of cadence.
        let horizon = w.cfg.legit_lead() + w.cfg.forward_interval;
        let (bpt, owner) = (w.params.block_play_time(), |f, p| Self::owner(w, f, p));
        let retired = cub.services.retired();
        let states = replay_batch(retired, self.cx.now, bpt, horizon, &cub.ring, owner, to);
        let (dst, count) = (to.raw(), states.len() as u32);
        self.record(TraceEvent::RetiredReplay { to: dst, count });
        if !states.is_empty() {
            let (from, states) = (self.cub.id, states.into());
            self.send(to, Message::RetiredReplay { from, states });
        }
        // Aged active entries due to forward into the rejoiner.
        self.cub.hasten_forward(self.cx);
    }

    fn to_controller(&mut self, msg: Message) {
        self.cx.send_to_controller(msg);
    }

    fn bridge(&mut self) {
        if self.cx.world.cfg.gap_recovery {
            ForwardDriver::bridge(self);
        }
    }

    /// The acting successor's duties on a failure: promote the redundant
    /// starts of files homed on the failed cub, then re-drive the shadows.
    fn take_over(&mut self, failed: CubId) {
        let (cub, world) = (&mut *self.cub, self.cx.world);
        let (stripe, catalog) = (world.params.stripe(), &world.catalog);
        let homed = |m: &FileMeta| stripe.cub_of(m.start_disk) == failed;
        cub.ins
            .promote_where(|p| catalog.get(p.file).is_some_and(homed));
        if cub.ins.queued() > 0 {
            cub.schedule_insert_attempt(self.cx);
        }
        self.re_drive(self.cx.now, world.params.block_play_time());
    }

    /// Mirror catch-up (the covering partner's half of a rejoin) hands
    /// nothing over: the declare re-drove and removed every shadow on a
    /// cub this one covers (`ForwardMachine::on_declare`), and while it
    /// covers, `ForwardMachine::on_primary` takes the cover branch before
    /// the shadow branch. The window relays freshly shadowed records until
    /// the rejoiner's own lead pipeline is warm (one minVStateLead).
    fn handing_back(&mut self, to: CubId) {
        let catalog = &self.cx.world.catalog;
        debug_assert!(
            !self.cub.fwd.shadows().any(|s| catalog
                .locate(s.vs.file, s.vs.position)
                .is_some_and(|loc| loc.cub == to)),
            "a covering cub holds a shadow on the rejoiner"
        );
    }
}

/// A cub's §4.1 hooks: a block is located in the catalog and dated by the
/// schedule, served through `accept_service` and covered through
/// `cover_failed_disk`.
impl ForwardDriver for Driver<'_, '_> {
    /// The block's disk and payload, from its one catalog read.
    type Place = (DiskId, ByteSize);
    type Layout = World;

    fn machines(&mut self) -> (&mut ForwardMachine, &mut RingMachine, &World) {
        (&mut self.cub.fwd, &mut self.cub.ring, self.cx.world)
    }

    fn locate(w: &World, file: FileId, pos: BlockNum) -> Option<(Option<CubId>, Self::Place)> {
        let meta = w.catalog.get(file)?;
        let loc = w.params.stripe().block_location(meta.start_disk, pos);
        let owner = (pos.raw() < meta.num_blocks).then_some(loc.cub);
        Some((owner, (loc.disk, meta.payload_size)))
    }

    fn due(w: &World, now: SimTime, vs: &ViewerState, &(disk, _): &Self::Place) -> SimTime {
        w.params.slot_send_time(disk, vs.slot, now)
    }

    fn progress(&self, vs: &ViewerState) -> Progress {
        self.cub.services.progress(vs.slot, vs.instance)
    }

    fn hops(&self) -> usize {
        1 + usize::from(self.cx.world.cfg.forwarding == ForwardingPolicy::Double)
    }

    fn serve(&mut self, vs: ViewerState, (disk, block): Self::Place) {
        self.cub.accept_service(self.cx, vs, disk, block);
    }

    fn cover(&mut self, vs: ViewerState, (disk, _): Self::Place) {
        self.cub.cover_failed_disk(self.cx, vs, disk);
    }

    /// The view entry, the queued starts and the services not yet sent, in
    /// any order: reclaiming one returns its buffer and coded reservation
    /// (or its read's completion does), and none reaches the retired log.
    fn kill(&mut self, d: &Deschedule) -> u32 {
        let cub = &mut *self.cub;
        cub.services.view_deschedule(d);
        let (mut killed, mut from) = (0, 0);
        while let Some((token, entry)) = cub.services.next_match(d, from) {
            from = token + 1;
            if entry.kill() {
                killed += 1;
                cub.reclaim_if_finished(self.cx, token);
            }
        }
        cub.ins.drop_instance(&d.instance);
        killed
    }

    fn reforward(&mut self, gap: impl Fn(&ViewerState, &RingMachine, &World) -> bool) {
        let (cub, world) = (&mut *self.cub, self.cx.world);
        if cub.services.reforward(|vs| gap(vs, &cub.ring, world)) {
            cub.hasten_forward(self.cx);
        }
    }

    fn retired(&self) -> impl Iterator<Item = ViewerState> {
        self.cub.services.retired().map(|(_, vs)| vs)
    }
}
