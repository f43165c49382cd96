//! Block service, the second half of `impl Cub`: the one pipeline every
//! primary block, mirror piece, shielded piece, and coded shard goes
//! through (paper §4.1.1), then the read → send → reclaim life of an
//! accepted entry.
//!
//! A viewer state arrives, the cub dates the block from a disk pointer,
//! reads ahead, and sends paced; mirror viewer states "propagate much
//! like normal ones". `Cub::admit` is that mechanism, written once.
//! What the kinds of service differ in is a plain `PieceSpec` value, the
//! home's own send or a secondary piece, and every secondary piece is
//! admitted by `Cub::accept_piece`. Each caller keeps only what is its
//! own: the primary its outcome traces and prompt forwarding; a mirror
//! holder its piece derivation, chain forwarding and dead holders
//! (`Cub::shield_dead_holders`); a shard holder its degraded-read trace.
//! One coded driver, `Cub::drive_coded`, serves a block's home and the
//! acting successor of a dead one.

use tiger_disk::{DiskError, DiskRequest, RequestKind};
use tiger_layout::DiskId;
use tiger_proto::msg::Message;
use tiger_sched::view::ViewApply;
use tiger_sched::{Deschedule, PrimaryRecord, ScheduleParams, StreamKind, ViewerState};
use tiger_sim::{ByteSize, SimDuration, SimTime};
use tiger_trace::TraceEvent;

use super::{vkey, Cub};
use crate::backend::Backend;
use crate::event::{Event, ServiceToken};
use crate::system::Shared;

pub(super) use life::{Active, Outcome, SendDue};

/// A committed block's service life (§3.1, §4.1.2): the read goes out
/// early, the block is sent paced at its due time, and a deschedule kills
/// it only if it has not gone out yet. The state is private to this
/// module; every transition is a method of `Active`.
mod life {
    use tiger_sched::{StreamKind, ViewerState};
    use tiger_sim::SimTime;

    /// How far the block's read has got. A read-ahead buffer is charged
    /// exactly while the read is in flight or done. A read that could not
    /// be issued stays `None`; one whose disk dies under it stays
    /// `InFlight`, and its entry is never finished.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Read {
        None,
        Cached, // Resident in the block cache: no read, no buffer.
        InFlight,
        Done,
    }

    /// What became of the block's send.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Outcome {
        Pending,
        Transmitting, // The paced send is on the wire.
        Sent,
        Missed,  // Lost to its read; the viewer continues.
        Dropped, // Killed by a deschedule or a cut-over before it went out.
    }

    /// What the block's due time finds: its read ready, not done (the
    /// block is lost now), lost earlier, or the block dropped.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum SendDue {
        Send,
        Late,
        Lost,
        Dropped,
    }

    /// One block (or mirror piece) this cub has committed to send.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Active {
        pub(crate) vs: ViewerState,
        /// Local index of the disk that holds the bytes.
        pub(crate) disk_local: u8,
        pub(crate) send_at: SimTime,
        /// Payload bytes delivered to the client.
        pub(crate) payload: u32,
        /// On-disk extent size charged against the buffer cache.
        read_bytes: u32,
        /// The shards, a bit each, whose disks carry this block's load in
        /// `send_at`'s slot of the coded backend's table (`drive_coded` sets it).
        pub(crate) reserved: u32,
        read: Read,
        outcome: Outcome,
        forwarded: bool,
    }

    const _: () = assert!(std::mem::size_of::<Active>() == 80);
    const _: () = assert!(std::mem::size_of::<Option<Active>>() == 80);

    impl Active {
        pub(crate) fn new(vs: ViewerState, spec: &super::PieceSpec, send_at: SimTime) -> Self {
            Active {
                vs,
                disk_local: spec.disk_local,
                send_at,
                payload: spec.payload,
                read_bytes: 0,
                reserved: 0,
                read: Read::None,
                outcome: Outcome::Pending,
                // Only primary records wait for the periodic forward pass:
                // mirror records forward at acceptance, shielded and coded
                // ones never do (the living chain, or the coordinator's
                // fan-out, is already complete).
                forwarded: vs.kind != StreamKind::Primary,
            }
        }

        /// Whether the entry's work is finished and it can be reclaimed.
        pub(crate) fn finished(&self) -> bool {
            self.forwarded
                && match (self.read, self.outcome) {
                    (Read::InFlight, _) => false,
                    (_, Outcome::Sent | Outcome::Missed | Outcome::Dropped) => true,
                    (_, Outcome::Pending | Outcome::Transmitting) => false,
                }
        }

        pub(crate) fn outcome(&self) -> Outcome {
            self.outcome
        }

        /// Whether the next forward pass is to send the record on.
        pub(crate) fn awaits_forward(&self) -> bool {
            !self.forwarded
        }

        /// The bytes of the read-ahead buffer charged to this service.
        pub(crate) fn buffer(&self) -> Option<u64> {
            matches!(self.read, Read::InFlight | Read::Done).then_some(u64::from(self.read_bytes))
        }

        pub(crate) fn cache_hit(&mut self) {
            self.read = Read::Cached;
        }

        pub(crate) fn read_issued(&mut self, bytes: u32) {
            (self.read, self.read_bytes) = (Read::InFlight, bytes);
        }

        pub(crate) fn read_done(&mut self) {
            self.read = Read::Done;
        }

        /// The read could not be issued, or its disk died under it.
        pub(crate) fn read_lost(&mut self) {
            if self.outcome == Outcome::Pending {
                self.outcome = Outcome::Missed;
            }
        }

        pub(crate) fn send_due(&mut self) -> SendDue {
            let (outcome, due) = match (self.outcome, self.read) {
                (Outcome::Dropped, _) => return SendDue::Dropped,
                (Outcome::Missed, _) => return SendDue::Lost,
                (Outcome::Pending, Read::Cached | Read::Done) => {
                    (Outcome::Transmitting, SendDue::Send)
                }
                (Outcome::Pending, Read::None | Read::InFlight) => (Outcome::Missed, SendDue::Late),
                (Outcome::Transmitting | Outcome::Sent, _) => unreachable!("due twice"),
            };
            self.outcome = outcome;
            due
        }

        pub(crate) fn send_done(&mut self) {
            self.outcome = Outcome::Sent;
        }

        /// A deschedule kills the block unless it already went out;
        /// whether it did. A killed entry is never forwarded.
        pub(crate) fn kill(&mut self) -> bool {
            if matches!(self.outcome, Outcome::Transmitting | Outcome::Sent) {
                return false;
            }
            (self.outcome, self.forwarded) = (Outcome::Dropped, true);
            true
        }

        /// A restripe cut-over: killed unless it went out, never
        /// forwarded, and what it reserved is on the old geometry's load
        /// table, not the new.
        pub(crate) fn cut_over(&mut self) {
            self.kill();
            (self.forwarded, self.reserved) = (true, 0);
        }

        /// The forward pass sent the record on. Only a primary that was
        /// not killed awaits it.
        pub(crate) fn forward(&mut self) {
            debug_assert!(self.vs.kind == StreamKind::Primary && self.outcome != Outcome::Dropped);
            self.forwarded = true;
        }

        /// A failure declaration: a forwarded primary record the failure
        /// `cut_off` is forwarded again by the next pass. Whether it is.
        pub(crate) fn reforward(&mut self, cut_off: impl FnOnce(&ViewerState) -> bool) -> bool {
            let again = self.forwarded
                && self.outcome != Outcome::Dropped
                && self.vs.kind == StreamKind::Primary
                && cut_off(&self.vs);
            self.forwarded &= !again;
            again
        }
    }
}

/// What the kinds of block service differ in; the rest of accepting a
/// viewer state is `Cub::admit`. The constructors give the rows of the
/// spec table in `docs/PROTOCOL.md` (a shielded piece is a mirror piece).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PieceSpec {
    /// The kind the accepted record is rewritten to (and keyed under).
    pub kind: StreamKind,
    /// The disk whose pointer dates the block (`slot_send_time`): the
    /// block's home, whether or not it is alive.
    pub dating_disk: DiskId,
    /// Local index of the disk holding the bytes.
    pub disk_local: u8,
    /// Stagger of this send after the block's due time.
    pub offset: SimDuration,
    /// Paced transmission duration: [`PieceSpec::pacing`] of the kind.
    pub duration: SimDuration,
    /// Payload bytes delivered to the client.
    pub payload: u32,
    /// How many scheduling leads ahead of the send the read is issued.
    pub read_leads: u64,
    /// Whether a send due within 5 ms of acceptance is given up as too
    /// late to read for. (A primary that close is a fresh insert: its
    /// read goes out at once and a miss is counted at send time.)
    pub late_guard: bool,
}

impl PieceSpec {
    /// The spec table's duration column, which the send derives from its
    /// entry's kind: a block play time over `shards` (`Backend::shards`) for
    /// the home's own send, over the decluster factor for any other piece.
    pub fn pacing(params: &ScheduleParams, shards: u32, kind: StreamKind) -> SimDuration {
        let parts = match kind {
            StreamKind::Primary => shards,
            StreamKind::Mirror { .. } | StreamKind::Coded { .. } => params.stripe().decluster,
        };
        params.block_play_time().div_u64(u64::from(parts))
    }

    /// Bytes of one of `parts` equal shares of a block.
    fn share(block: ByteSize, parts: u32) -> u32 {
        let bytes = block.div_u64_ceil(u64::from(parts)).as_bytes();
        u32::try_from(bytes).expect("FileCatalog::new keeps a block under 4 GiB")
    }

    /// The home disk's own send of a block: all of it under mirroring
    /// (`shards == 1`), shard 0 of `shards` under the coded backend — a
    /// shorter read, a shorter paced send.
    pub fn primary(params: &ScheduleParams, block: ByteSize, disk: DiskId, shards: u32) -> Self {
        PieceSpec {
            kind: StreamKind::Primary,
            dating_disk: disk,
            disk_local: params.stripe().local_index_of(disk),
            offset: SimDuration::ZERO,
            duration: Self::pacing(params, shards, StreamKind::Primary),
            payload: Self::share(block, shards),
            // §3.1: "the disks run at least one block service time ahead
            // of the schedule. Usually, they run a little earlier, trading
            // off buffer usage to cover for slight variations in disk …
            // performance." Steady-state records arrive minVStateLead+
            // early, so their reads go out two scheduling leads ahead; a
            // freshly inserted viewer's first read is issued immediately
            // (it has only the scheduling lead).
            read_leads: 2,
            late_guard: false,
        }
    }

    /// Secondary piece `piece` of a block homed on `home`, read from local
    /// disk `disk_local`: a `decluster`th of the block, sent at a stagger
    /// by piece index. Under mirroring it is mirror piece `piece`, out at
    /// piece/decluster of a block play time after the block's nominal send
    /// time (§4.1.1 mirror timing); a shielded piece is the same piece on
    /// the spare's disk. Under the coded backend it is shard `piece` of
    /// `2k` (`k = decluster`), spread so that any subset the coordinator
    /// picks fits the play window: the highest, `2k − 1`, ends at
    /// `block_due + bpt` (less the nanoseconds integer division drops).
    pub fn piece(
        params: &ScheduleParams,
        backend: &Backend,
        block: ByteSize,
        home: DiskId,
        piece: u32,
        disk_local: u8,
    ) -> Self {
        let decluster = params.stripe().decluster;
        let (failed_disk, home_disk, shard) = (home, home, piece);
        let kind = match backend {
            Backend::Mirrored(_) => StreamKind::Mirror { failed_disk, piece },
            Backend::Coded(..) => StreamKind::Coded { home_disk, shard },
        };
        let duration = Self::pacing(params, backend.shards(), kind);
        let spread = params.block_play_time() - duration;
        let gap = match backend {
            Backend::Mirrored(_) => duration,
            Backend::Coded(..) => spread.div_u64(u64::from(2 * decluster - 1)),
        };
        PieceSpec {
            kind,
            dating_disk: home,
            disk_local,
            offset: gap.mul_u64(u64::from(piece)),
            duration,
            payload: Self::share(block, decluster),
            // Secondary reads land on disks already running near
            // saturation; issue them extra-early ("the cubs take these
            // timing differences into consideration", §4.1.1) to ride out
            // queueing convoys.
            read_leads: 3,
            late_guard: true,
        }
    }
}

/// What [`Cub::admit`] did with a viewer state.
#[derive(Clone, Copy, Debug)]
enum Admit {
    /// Service committed under the token; read and send (at the time) due.
    Accepted(SimTime, ServiceToken),
    /// Already in the view or the service table (a double-forwarded copy).
    Duplicate,
    /// A held deschedule blocks the record.
    Blocked,
    /// Another instance occupies the slot.
    Conflict,
    /// Due time passed or too near to read for; traced and counted lost.
    Late,
}

impl Cub {
    // --- Acceptance ---------------------------------------------------------

    /// Commits this cub to serve `vs` as `spec` describes: the schedule
    /// view takes the record, a held deschedule's victims, duplicates and
    /// late arrivals are turned away, and the read and the send scheduled.
    fn admit(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        mut vs: ViewerState,
        spec: PieceSpec,
    ) -> Admit {
        vs.kind = spec.kind;
        if self.fwd.blocks(&vs, now) {
            return Admit::Blocked;
        }
        match self.services.view_apply(&vs) {
            ViewApply::Inserted | ViewApply::Updated => {}
            ViewApply::Duplicate => return Admit::Duplicate,
            ViewApply::Blocked => return Admit::Blocked,
            ViewApply::Conflict => return Admit::Conflict,
        }
        if self.services.serves(&vs) {
            return Admit::Duplicate;
        }
        let block_due = sh.params.slot_send_time(spec.dating_disk, vs.slot, now);
        let send_at = block_due + spec.offset;
        // A record can only legitimately be up to `legit_lead` early (the
        // cover chain advances past each dead disk instantly); a due time
        // further out means the record arrived *after* its due time and
        // wrapped to the next schedule lap — the block is lost, not a lap
        // late. §4.1.2 prescribes discarding such late arrivals (the viewer
        // is "spontaneously descheduled" in the worst case). On rings too
        // short to tell the two cases apart, skip the guard.
        let max_legit_lead = sh.cfg.legit_lead();
        let wrapped = max_legit_lead < sh.params.schedule_len()
            && block_due.saturating_since(now) > max_legit_lead;
        let me = self.id.raw();
        let (slot, viewer, inc) = vkey(&vs);
        if wrapped || (spec.late_guard && send_at <= now + SimDuration::from_millis(5)) {
            sh.tracer.record(
                now,
                me,
                TraceEvent::VsLate {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                },
            );
            sh.metrics.loss.failover_lost += 1;
            self.services.view_retire(&vs);
            return Admit::Late;
        }
        match vs.kind {
            StreamKind::Primary => sh.tracer.record(
                now,
                me,
                TraceEvent::VsAccept {
                    slot,
                    viewer,
                    inc,
                    play_seq: vs.play_seq,
                    position: u64::from(vs.position.raw()),
                },
            ),
            StreamKind::Mirror { piece, .. } => sh.tracer.record(
                now,
                me,
                TraceEvent::MirrorAccept {
                    slot,
                    viewer,
                    inc,
                    piece,
                },
            ),
            StreamKind::Coded { .. } => {}
        }
        let token = self.services.insert(Active::new(vs, &spec, send_at));
        let read_at = send_at
            .saturating_sub(sh.cfg.scheduling_lead.mul_u64(spec.read_leads))
            .max(now);
        let cub = self.id;
        sh.queue.schedule(read_at, Event::ReadIssue { cub, token });
        sh.queue.schedule(send_at, Event::SendDue { cub, token });
        Admit::Accepted(send_at, token)
    }

    /// Begins normal service of `vs`, a record for a `block`-byte block
    /// of its file, on local disk `disk`.
    pub(super) fn accept_service(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        disk: DiskId,
        block: ByteSize,
    ) {
        let spec = PieceSpec::primary(&sh.params, block, disk, sh.backend.shards());
        let me = self.id.raw();
        let (slot, viewer, inc) = vkey(&vs);
        let (send_at, token) = match self.admit(sh, now, vs, spec) {
            Admit::Accepted(send_at, token) => (send_at, token),
            Admit::Duplicate => return self.trace_duplicate(sh, now, &vs),
            Admit::Blocked => {
                return self.trace(sh, now, TraceEvent::VsBlocked { slot, viewer, inc })
            }
            Admit::Conflict => {
                self.trace(sh, now, TraceEvent::VsConflict { slot, viewer, inc });
                sh.metrics.violations.push(format!(
                    "{}: conflicting viewer state for {} in {}",
                    self.id, vs.instance, vs.slot
                ));
                return;
            }
            Admit::Late => return,
        };
        if self.rejoined_at.take().is_some() {
            // First primary acceptance of this cub's new life: the rejoin
            // has converged (the ring is feeding it schedule state again).
            sh.tracer
                .record(now, me, TraceEvent::RejoinDone { cub: me });
        }
        sh.metrics.loss.blocks_scheduled += 1;
        self.drive_coded(sh, now, vs, disk, send_at, Some(token));
        // If waiting for the next periodic pass would let the successor's
        // lead fall below minVStateLead ("Cubs endeavor to keep the
        // schedule updated at least minVStateLead into the future"),
        // forward promptly instead of batching. This is what keeps freshly
        // inserted streams alive while their lead pipeline builds up.
        let successor_breach =
            (send_at + sh.params.block_play_time()).saturating_sub(sh.cfg.min_vstate_lead);
        if successor_breach < self.next_forward_pass {
            self.hasten_forward(&mut sh.queue, now);
        }
    }

    /// Acting-successor work for a viewer state addressed to a failed
    /// disk: drive the block's redundant copies — declustered mirror
    /// pieces, or `k` surviving coded shards (§4.1.1, Figure 5).
    pub(super) fn cover_failed_disk(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        failed_disk: DiskId,
    ) {
        let block_due = sh.params.slot_send_time(failed_disk, vs.slot, now);
        let (slot, viewer, inc) = vkey(&vs);
        let coded = matches!(sh.backend, Backend::Coded(..));
        let ev = if coded {
            TraceEvent::CodedRepair {
                slot,
                viewer,
                inc,
                failed_disk: failed_disk.raw(),
            }
        } else {
            TraceEvent::MirrorCreate {
                slot,
                viewer,
                inc,
                failed_disk: failed_disk.raw(),
            }
        };
        sh.tracer.record(now, self.id.raw(), ev);
        sh.metrics.loss.blocks_scheduled += 1;
        if coded {
            // Shard 0 died with the home: drive `k` of the block's
            // surviving remote holders, by the same load-ranked
            // choice the home makes in healthy operation.
            self.drive_coded(sh, now, vs, failed_disk, block_due, None);
        } else {
            // "When the succeeding cub makes this decision, it creates
            // a special kind of viewer state called a mirror viewer
            // state" (§4.1.1). Mirror viewer states then propagate
            // along the ring of piece-holding cubs "much like normal
            // ones": each holder serves its piece and forwards the
            // record for the next piece.
            self.on_mirror_state(sh, now, vs, failed_disk, 0);
        }
    }

    /// Commits this cub to serve secondary piece `piece` of `vs`'s block,
    /// homed on `home`, from local disk `disk_local`: the mirror, shield
    /// and coded receivers' common step. Whether it was accepted.
    fn accept_piece(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        home: DiskId,
        piece: u32,
        disk_local: u8,
    ) -> bool {
        let Some(block) = sh.catalog.get(vs.file).map(|m| m.payload_size) else {
            return false;
        };
        let spec = PieceSpec::piece(&sh.params, &sh.backend, block, home, piece, disk_local);
        matches!(self.admit(sh, now, vs, spec), Admit::Accepted(..))
    }

    /// Accepts mirror service for the declustered piece this cub holds,
    /// then forwards the record toward the next piece's holder.
    ///
    /// `expected_piece` is the *next expected* piece; the receiving cub
    /// re-derives which piece it actually holds from ring geometry (with
    /// consecutive failures the expected holder may be dead, in which case
    /// the skipped pieces are unrecoverable, §2.3).
    pub(super) fn on_mirror_state(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        failed_disk: DiskId,
        expected_piece: u32,
    ) {
        let stripe = sh.params.stripe();
        // Which piece of this failed disk lives on one of our disks?
        // Consecutive disks are on consecutive cubs, so at most one does.
        let Some(piece) = (0..stripe.decluster)
            .find(|&i| stripe.cub_of(sh.backend.holder(failed_disk, i)) == self.id)
        else {
            return; // No piece of this block here (over-forwarded copy).
        };
        if piece < expected_piece {
            return; // A double-forwarded duplicate for a piece already done.
        }
        // Pieces between the expected one and ours were skipped: by
        // double-forwarded copies, whose holders are alive and serve from
        // their own copies, or because their holders are dead.
        let lost = self.shield_dead_holders(sh, now, vs, failed_disk, expected_piece..piece);
        sh.metrics.loss.failover_lost += lost;
        let holder = stripe.local_index_of(sh.backend.holder(failed_disk, piece));
        if !self.accept_piece(sh, now, vs, failed_disk, piece, holder) {
            return;
        }
        // Forward the mirror record toward the next piece's holder, doubly
        // (mirror viewer states propagate "much like normal ones").
        if piece + 1 < stripe.decluster {
            let mut next = vs;
            next.kind = StreamKind::Mirror {
                failed_disk,
                piece: piece + 1,
            };
            self.forward_pair(sh, now, 1, Message::ViewerState(next));
        }
        // Dead holders *ahead* of this piece: the living chain never
        // reaches pieces past its last living holder (the successor
        // outside the span drops the record), and for mid-chain dead
        // holders the next living holder's receive loop routes a
        // duplicate (the spare's service table dedups it) and counts
        // the losses; so only the ones behind this piece count here.
        self.shield_dead_holders(sh, now, vs, failed_disk, piece + 1..stripe.decluster);
    }

    /// The one place a mirror piece's dead holder is settled: a living
    /// holder serves its own piece, a dead one's record goes to the spare
    /// shielding its span if one is ready, and otherwise the piece is
    /// lost. Settles `pieces` of `failed_disk`'s block in order and
    /// returns how many were lost.
    fn shield_dead_holders(
        &self,
        sh: &mut Shared,
        now: SimTime,
        mut vs: ViewerState,
        failed_disk: DiskId,
        pieces: std::ops::Range<u32>,
    ) -> u64 {
        let (stripe, me) = (sh.params.stripe(), sh.cub_node(self.id));
        let mut lost = 0;
        for piece in pieces {
            let holder = stripe.cub_of(sh.backend.holder(failed_disk, piece));
            if !self.ring.believes_failed(holder) {
                continue;
            }
            let Some(spare) = sh.shield.serving_spare(failed_disk, piece) else {
                lost += 1;
                continue;
            };
            vs.kind = StreamKind::Mirror { failed_disk, piece };
            sh.send_control(now, me, sh.cub_node(spare), Message::ViewerState(vs));
        }
        lost
    }

    /// Shield service entry: a record routed to this spare because a
    /// mirror piece's normal holder is dead. Only records for spans this
    /// spare holds ready copies of are served; anything else is an
    /// over-forwarded duplicate and drops. A shielded piece is the mirror
    /// piece on the spare's disk: the routed record already names its
    /// piece (the spare is not in the span), the copy's extent lives on
    /// the spare's local disk that mirrors the failed home's local index,
    /// and nothing is forwarded (the living holders' chain does that; the
    /// spare only fills dead holders' gaps).
    pub(super) fn on_shield_state(&mut self, sh: &mut Shared, now: SimTime, vs: ViewerState) {
        let StreamKind::Mirror { failed_disk, piece } = vs.kind else {
            return;
        };
        if self.refuses(sh, now, Deschedule::of(&vs)) {
            return;
        }
        if sh.shield.serving_spare(failed_disk, piece) != Some(self.id) {
            return;
        }
        let local = sh.params.stripe().local_index_of(failed_disk);
        self.accept_piece(sh, now, vs, failed_disk, piece, local);
    }

    // --- Coded-backend holder choice (tiger-coded) ---------------------------

    /// The coded coordinator of a block homed on `home_disk`: drives the
    /// least loaded of its living remote shard holders in `block_due`'s
    /// slot with unicast coded records (a shard on this very cub is
    /// accepted in place). At the home `token` is its own entry, serving
    /// shard 0: `k − 1` are wanted, and the block's load on every disk
    /// that sends it is reserved before any holder is driven and recorded
    /// in the entry. The acting successor of a dead home has no entry and
    /// wants `k`. A short plan cannot assemble the block and counts as
    /// lost; the home still sends what it has, the successor nothing.
    fn drive_coded(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        vs: ViewerState,
        home_disk: DiskId,
        block_due: SimTime,
        token: Option<ServiceToken>,
    ) {
        if !matches!(sh.backend, Backend::Coded(..)) {
            return;
        }
        let want = sh.backend.shards() as usize - usize::from(token.is_some());
        let alive = |cub| !self.ring.believes_failed(cub);
        let ranked = sh.backend.rank_holders(home_disk, block_due, want, alive);
        if ranked.len() < want {
            sh.metrics.loss.failover_lost += 1;
            if token.is_none() {
                return;
            }
        }
        if let Some(e) = token.and_then(|token| self.services.get_mut(token)) {
            e.reserved = sh
                .backend
                .reserve(&vs, home_disk, block_due, ranked.clone());
        }
        let (stripe, me) = (sh.params.stripe(), sh.cub_node(self.id));
        for shard in ranked {
            let mut cvs = vs;
            cvs.kind = StreamKind::Coded { home_disk, shard };
            let holder_cub = stripe.cub_of(sh.backend.holder(home_disk, shard));
            if holder_cub == self.id {
                self.on_coded_state(sh, now, cvs);
            } else {
                sh.send_control(now, me, sh.cub_node(holder_cub), Message::ViewerState(cvs));
            }
        }
    }

    /// Accepts unicast coded-shard service: this cub holds `shard` of the
    /// block homed on `home_disk` and was chosen by the block's
    /// coordinator (the home in healthy operation, the acting successor
    /// after a failure) to deliver it.
    ///
    /// Unlike mirror viewer states, coded records do not chain along a
    /// piece ring: the coordinator picked the exact holders, so each
    /// record is final and never forwarded.
    pub(super) fn on_coded_state(&mut self, sh: &mut Shared, now: SimTime, vs: ViewerState) {
        let (StreamKind::Coded { home_disk, shard }, Backend::Coded(placement, ..)) =
            (vs.kind, &sh.backend)
        else {
            return; // Not a coded record, or a stray one under mirroring.
        };
        if shard == 0 || shard >= placement.n() {
            return;
        }
        let stripe = sh.params.stripe();
        let holder = sh.backend.holder(home_disk, shard);
        if stripe.cub_of(holder) != self.id {
            return; // Misrouted copy.
        }
        let local = stripe.local_index_of(holder);
        if self.accept_piece(sh, now, vs, home_disk, shard, local)
            && self.ring.believes_failed(stripe.cub_of(home_disk))
        {
            // Degraded service: this shard stands in for data whose home
            // machine is down.
            let (slot, viewer, inc) = vkey(&vs);
            sh.tracer.record(
                now,
                self.id.raw(),
                TraceEvent::DegradedPieceRead {
                    slot,
                    viewer,
                    inc,
                    shard,
                },
            );
        }
    }

    // --- Disk service ------------------------------------------------------

    /// A power-cut cub serves nothing — except a spare holding ready
    /// shield spans, which keeps the narrow data path (read, send,
    /// reclaim) alive for the pieces the cover path routes to it.
    fn out_of_service(&self, sh: &Shared) -> bool {
        self.failed && !sh.shield.is_serving_spare(self.id)
    }

    /// The read for `token` is due (`read_leads` scheduling leads early).
    ///
    /// Reads are issued as early as the buffer cache allows ("trading off
    /// buffer usage to cover for slight variations in disk and I/O system
    /// performance", §3.1): when the 20 MB cache is full the read waits in
    /// the pool for a returned buffer, down to a hard floor of one
    /// scheduling lead before the send, when it goes out regardless.
    pub(super) fn on_read_issue(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.out_of_service(sh) {
            return;
        }
        let live = self.services.get(token);
        let Some(entry) = live.filter(|e| e.outcome() != Outcome::Dropped) else {
            return; // Descheduled before the read was due.
        };
        let floor = entry.send_at.saturating_sub(sh.cfg.scheduling_lead);
        if now < floor && !self.pool.has_room() {
            if let Some(at) = self.pool.park(floor, token) {
                sh.queue.schedule(at, Event::PoolFloor { cub: self.id });
            }
            return;
        }
        self.issue_read(sh, now, token);
    }

    /// The cub's floor timer: whatever reached its floor still waiting
    /// goes out now, pool full or not, and the timer moves on to the new
    /// head of the wait set.
    pub(super) fn on_pool_floor(&mut self, sh: &mut Shared, now: SimTime) {
        if !self.pool.timer_fired(now) || self.out_of_service(sh) {
            return;
        }
        while let Some(token) = self.pool.pop_due(now) {
            let full = !self.pool.has_room();
            if self.issue_read(sh, now, token) && full {
                self.pool.forced.incr();
            }
        }
        if let Some(at) = self.pool.arm() {
            sh.queue.schedule(at, Event::PoolFloor { cub: self.id });
        }
    }

    /// Hands the pool's room to its waiters, earliest floor first. Every
    /// path that returns a buffer ends here.
    pub(super) fn drain_pool(&mut self, sh: &mut Shared, now: SimTime) {
        while let Some(token) = self.pool.next_ready() {
            self.issue_read(sh, now, token);
        }
    }

    /// Issues the disk read for `token`, if its service still wants one
    /// (a waiter may have been descheduled meanwhile). Returns whether a
    /// buffer was taken for it.
    fn issue_read(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) -> bool {
        let live = self.services.get_mut(token);
        let Some(entry) = live.filter(|e| e.outcome() != Outcome::Dropped) else {
            return false;
        };
        let local = entry.disk_local;
        let disk_id = match entry.vs.kind {
            // A shield-serving spare's copies are keyed under the failed
            // home disk: spares have no ids in the stripe's disk
            // namespace (only their physical `local` index is real).
            StreamKind::Mirror { failed_disk, .. } if self.failed => failed_disk,
            _ => sh.params.stripe().disk_of(self.id, u32::from(local)),
        };
        if entry.vs.kind == StreamKind::Primary {
            // Buffer-cache check (§5 measured <0.05% hits: staggered
            // viewers rarely re-read a block while it is still resident).
            self.cache_lookups.incr();
            let key = (disk_id, entry.vs.file, entry.vs.position);
            if self.cache_resident.contains(&key) {
                self.cache_hits.incr();
                entry.cache_hit();
                return false;
            }
        }
        let (file, block) = (entry.vs.file, entry.vs.position);
        let (lookup, kind) = match entry.vs.kind {
            StreamKind::Primary => (
                self.index.lookup_primary(disk_id, file, block),
                RequestKind::Primary,
            ),
            // Coded shards 1..2k live in the secondary region too.
            StreamKind::Mirror { piece, .. } | StreamKind::Coded { shard: piece, .. } => (
                self.index.lookup_secondary(disk_id, file, block, piece),
                RequestKind::Mirror,
            ),
        };
        let submitted = lookup.map(|extent| {
            let req = DiskRequest {
                offset: extent.offset(),
                len: extent.length(),
                kind,
            };
            (req, self.disks[local as usize].submit(now, req))
        });
        match submitted {
            Some((req, Ok(done))) => {
                let (slot, viewer, inc) = vkey(&entry.vs);
                sh.tracer.record(
                    now,
                    self.id.raw(),
                    TraceEvent::DiskIssue {
                        slot,
                        viewer,
                        inc,
                        disk: disk_id.raw(),
                    },
                );
                let bytes = u32::try_from(req.len.as_bytes()).expect("an extent is under 1 GiB");
                entry.read_issued(bytes);
                self.pool.charge(req.len.as_bytes());
                if entry.vs.kind == StreamKind::Primary {
                    let key = (disk_id, entry.vs.file, entry.vs.position);
                    self.cache_resident.push_back(key);
                    while self.cache_resident.len() > sh.cfg.buffer_blocks() as usize {
                        self.cache_resident.pop_front();
                    }
                }
                let cub = self.id;
                sh.queue.schedule(done, Event::DiskDone { cub, token });
                true
            }
            Some((_, Err(DiskError::OutOfRange))) => {
                unreachable!("index produced an out-of-range extent");
            }
            lost => {
                // No read: the content is not on this disk (a stale record
                // after a restripe), the disk is dead, or the read drew an
                // injected transient error (no retry path — the send
                // deadline leaves no slack for one). The block is lost; the
                // disk and the viewer both continue.
                entry.read_lost();
                sh.metrics.loss.failover_lost += 1;
                let (slot, viewer, inc) = vkey(&entry.vs);
                if !self.failed {
                    // The next forward pass reclaims the entry. (A serving
                    // spare runs no passes: its send-due does.)
                    self.services.reclaim_at_pass(token);
                }
                if let Some((_, Err(DiskError::Transient))) = lost {
                    sh.tracer.record(
                        now,
                        self.id.raw(),
                        TraceEvent::DiskTransient {
                            slot,
                            viewer,
                            inc,
                            disk: disk_id.raw(),
                        },
                    );
                }
                false
            }
        }
    }

    /// Handles a disk-read completion.
    pub(super) fn on_disk_done(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.out_of_service(sh) {
            return;
        }
        let Some(entry) = self.services.get_mut(token) else {
            // Unreachable in a correct run: entries with outstanding reads
            // are never force-removed (see the deschedule path).
            debug_assert!(false, "disk completion for a vanished service");
            return;
        };
        if self.disks[entry.disk_local as usize].is_failed() {
            // The disk died while this read was in flight: the data never
            // arrived. The block is lost; the viewer continues. (Its read
            // never completes, so the entry is never finished.)
            entry.read_lost();
            sh.metrics.loss.failover_lost += 1;
            return self.reclaim_if_finished(sh, now, token);
        }
        entry.read_done();
        let (vs, disk_local) = (entry.vs, entry.disk_local);
        let (slot, viewer, inc) = vkey(&vs);
        self.trace(sh, now, TraceEvent::DiskDone { slot, viewer, inc });
        // The buffer pool recycles aggressively (§2.2's zero-copy path
        // keeps no long-lived cache), so a block is shareable only while
        // its read is in flight — I/O coalescing, which is what keeps the
        // §5 buffer-cache hit rate "less than 0.05%".
        if vs.kind == StreamKind::Primary {
            let disk_id = sh.params.stripe().disk_of(self.id, u32::from(disk_local));
            let key = (disk_id, vs.file, vs.position);
            if let Some(pos) = self.cache_resident.iter().position(|k| *k == key) {
                self.cache_resident.remove(pos);
            }
        }
        self.disks[disk_local as usize].complete(now);
        self.reclaim_if_finished(sh, now, token);
    }

    /// The block (or piece) for `token` is due at the network.
    pub(super) fn on_send_due(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.out_of_service(sh) {
            return;
        }
        let Some(entry) = self.services.get_mut(token) else {
            return; // Descheduled.
        };
        let due = entry.send_due();
        if due == SendDue::Dropped {
            return;
        }
        let (slot, viewer, inc) = vkey(&entry.vs);
        sh.tracer.record(
            now,
            self.id.raw(),
            TraceEvent::SendDue {
                slot,
                viewer,
                inc,
                ok: due == SendDue::Send,
            },
        );
        if due == SendDue::Late {
            // "the server failed to place 15 blocks on the network, each
            // because the disk read hadn't completed in time" — the block
            // is dropped, not sent late, and the viewer continues with its
            // subsequent blocks (the entry still gets forwarded).
            sh.metrics.loss.server_missed += 1;
            if entry.vs.kind != StreamKind::Primary {
                sh.metrics.loss.mirror_missed += 1;
            }
        }
        if due != SendDue::Send {
            // Lost just now, or already by the read path.
            return self.reclaim_if_finished(sh, now, token);
        }
        let node = sh.cub_node(self.id);
        if !sh.net.begin_stream(now, node, entry.vs.bitrate) {
            // NIC overcommitted — the schedule should prevent this; report
            // it as a violation but keep sending (degraded).
            sh.metrics
                .violations
                .push(format!("{}: NIC overcommit at {now}", self.id));
        }
        if entry.vs.kind == StreamKind::Primary {
            if let Some(omni) = sh.omniscient.as_mut() {
                omni.on_send(&entry.vs, now);
            }
        }
        let pacing = PieceSpec::pacing(&sh.params, sh.backend.shards(), entry.vs.kind);
        let cub = self.id;
        sh.queue
            .schedule(now + pacing, Event::SendDone { cub, token });
    }

    /// A paced transmission finished: free the NIC, deliver to the client.
    pub(super) fn on_send_done(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        if self.out_of_service(sh) {
            return;
        }
        let Some(entry) = self.services.get_mut(token) else {
            return;
        };
        entry.send_done();
        let entry = *entry;
        let (slot, viewer, inc) = vkey(&entry.vs);
        self.trace(sh, now, TraceEvent::SendDone { slot, viewer, inc });
        let node = sh.cub_node(self.id);
        let bytes = u64::from(entry.payload);
        sh.net.end_stream(now, node, entry.vs.bitrate, bytes);
        sh.metrics.loss.blocks_sent += 1;
        // Deliver to the client (receive time = last byte arrival, §5).
        let client = tiger_net::NetNode(entry.vs.client);
        let sent = sh.net.send_data(now, node, client);
        sh.trace_injection(now, node, client, sent);
        if let Some(at) = sent.at {
            let (piece, total) = sh.backend.stream_data(entry.vs.kind);
            sh.queue.schedule(
                at,
                Event::Deliver {
                    dst: client,
                    msg: Message::StreamData {
                        instance: entry.vs.instance,
                        block: entry.vs.position.raw(),
                        piece,
                        total_pieces: total,
                        bytes,
                    },
                },
            );
        }
        self.services.view_retire(&entry.vs);
        self.reclaim_if_finished(sh, now, token);
        // Otherwise forwarding has not happened yet (fresh inserts with
        // very short leads); the next forward pass reclaims the entry.
    }

    /// Reclaims `token`'s entry once nothing is outstanding on it.
    pub(super) fn reclaim_if_finished(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        token: ServiceToken,
    ) {
        if self.services.get(token).is_some_and(Active::finished) {
            self.reclaim(sh, now, token);
            self.drain_pool(sh, now);
        }
    }

    /// Reclaims the services noted since the last call (by a forward pass,
    /// a lost read, or a cut-over) that have nothing outstanding, in token
    /// order.
    pub(super) fn reclaim_finished(&mut self, sh: &mut Shared, now: SimTime) {
        let noted = self.services.take_reclaims();
        for &token in &noted {
            if self.services.get(token).is_some_and(Active::finished) {
                self.reclaim(sh, now, token);
            }
        }
        self.services.recycle(noted);
    }

    /// Releases what entry `e` reserved on the coded backend's load table.
    pub(super) fn release_load(&self, sh: &mut Shared, e: &Active) {
        if e.reserved != 0 {
            let home = sh.params.stripe().disk_of(self.id, u32::from(e.disk_local));
            sh.backend.release(&e.vs, home, e.send_at, e.reserved);
        }
    }

    /// Removes a finished or cancelled service, returning its buffer.
    /// Serviced primary records are retained in the retired log for one
    /// failure-detection window (gap bridging, §2.3). Retiring the home's
    /// primary entry releases what it reserved on the coded backend's
    /// load table.
    pub(super) fn reclaim(&mut self, sh: &mut Shared, now: SimTime, token: ServiceToken) {
        let Some(e) = self.services.get(token).copied() else {
            return;
        };
        // Retired before it is removed, so the instance's record carries
        // on in its slot instead of leaving it and coming straight back.
        // The viewer continues past a lost block, whose entry goes as a
        // sent one's does.
        let serviced = matches!(e.outcome(), Outcome::Sent | Outcome::Missed);
        if e.outcome() == Outcome::Missed {
            self.services.view_retire(&e.vs);
        }
        if let Some(record) = PrimaryRecord::new(&e.vs).filter(|_| serviced) {
            self.services.retire(now, record);
        }
        self.services.remove(token);
        if let Some(bytes) = e.buffer() {
            self.pool.release(bytes);
        }
        self.release_load(sh, &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ids::ViewerInstance;
    use tiger_layout::{BlockNum, FileId, ViewerId};
    use tiger_sched::SlotId;
    use tiger_sim::check::check;
    use tiger_sim::{Bandwidth, SimRng};

    /// `Active`'s life as eight independent flags, with the transitions
    /// as they were written on them before the life was typed. Test-only:
    /// the reference the typed life is held to.
    #[derive(Clone, Copy, Debug)]
    struct Flags {
        read_issued: bool,
        read_ready: bool,
        buffer_held: bool,
        transmitting: bool,
        sent: bool,
        missed: bool,
        forwarded: bool,
        dropped: bool,
    }

    impl Flags {
        fn new(kind: StreamKind) -> Self {
            Flags {
                read_issued: false,
                read_ready: false,
                buffer_held: false,
                transmitting: false,
                sent: false,
                missed: false,
                forwarded: kind != StreamKind::Primary,
                dropped: false,
            }
        }

        fn finished(&self) -> bool {
            self.forwarded
                && !self.transmitting
                && (self.sent || self.missed || self.dropped)
                && (!self.read_issued || self.read_ready)
        }

        /// The outcome the flags spell, in the typed life's words.
        fn outcome(&self) -> Outcome {
            match *self {
                Flags { dropped: true, .. } => Outcome::Dropped,
                Flags { missed: true, .. } => Outcome::Missed,
                Flags {
                    transmitting: true, ..
                } => Outcome::Transmitting,
                Flags { sent: true, .. } => Outcome::Sent,
                _ => Outcome::Pending,
            }
        }

        /// The send-due handler's verdict: `None` for a dropped entry (no
        /// trace), else the trace's `ok` and whether the block was lost
        /// just now.
        fn send_due(&mut self) -> Option<(bool, bool)> {
            if self.dropped {
                return None;
            }
            let ok = self.read_ready && !self.missed;
            let late = !self.missed && !self.read_ready;
            self.missed |= late;
            if !self.missed {
                (self.transmitting, self.sent) = (true, true);
            }
            Some((ok, late))
        }

        /// The deschedule's kill; whether it counts one.
        fn kill(&mut self) -> bool {
            if self.sent {
                return false;
            }
            (self.dropped, self.forwarded) = (true, true);
            true
        }
    }

    fn arb_kind(rng: &mut SimRng) -> StreamKind {
        match rng.gen_range(0u32..5) {
            0 => StreamKind::Mirror {
                failed_disk: DiskId(1),
                piece: 0,
            },
            1 => StreamKind::Coded {
                home_disk: DiskId(1),
                shard: 1,
            },
            _ => StreamKind::Primary,
        }
    }

    fn active(kind: StreamKind) -> Active {
        let vs = ViewerState {
            instance: ViewerInstance {
                viewer: ViewerId(1),
                incarnation: 0,
            },
            client: 0,
            file: FileId(0),
            position: BlockNum(0),
            slot: SlotId(0),
            play_seq: 0,
            bitrate: Bandwidth::from_mbit_per_sec(2),
            kind,
        };
        let spec = PieceSpec {
            kind,
            dating_disk: DiskId(0),
            disk_local: 0,
            offset: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
            payload: 1,
            read_leads: 2,
            late_guard: false,
        };
        Active::new(vs, &spec, SimTime::ZERO)
    }

    /// Random lives driven through the typed `Active` and the eight-flag
    /// reference side by side, each event at most as often as a cub
    /// delivers it (one read, one completion, one due time, one end of
    /// transmission; deschedules, passes, failure declarations and
    /// cut-overs at any time). After every step the two agree on what the
    /// cub reads: `finished`, the outcome (the reclaim's retire decision),
    /// the buffer to release, whether a pass still owes the forward, the
    /// send-due trace's `ok` and loss count, and the deschedule's `killed`.
    #[test]
    fn typed_life_matches_the_flag_model() {
        check("typed_life_matches_the_flag_model", |rng| {
            for _ in 0..rng.gen_range(1usize..8) {
                let kind = arb_kind(rng);
                let (mut typed, mut flags) = (active(kind), Flags::new(kind));
                let (mut read_due, mut disk_busy) = (true, false);
                let (mut send_due, mut on_wire) = (true, false);
                let bytes = rng.gen_range(1u32..1_000_000);
                for _ in 0..rng.gen_range(1usize..40) {
                    match rng.gen_range(0u32..8) {
                        0 if read_due => {
                            read_due = false;
                            assert_eq!(typed.outcome() == Outcome::Dropped, flags.dropped);
                            if flags.dropped {
                                continue;
                            }
                            match rng.gen_range(0u32..6) {
                                0 if kind == StreamKind::Primary => {
                                    typed.cache_hit();
                                    flags.read_ready = true;
                                }
                                1 => {
                                    typed.read_lost();
                                    flags.missed = true;
                                }
                                _ => {
                                    typed.read_issued(bytes);
                                    (flags.read_issued, flags.buffer_held) = (true, true);
                                    disk_busy = true;
                                }
                            }
                        }
                        1 if disk_busy => {
                            disk_busy = false;
                            if rng.gen_bool(0.2) {
                                typed.read_lost();
                                flags.missed = true;
                            } else {
                                typed.read_done();
                                flags.read_ready = true;
                            }
                        }
                        2 if send_due => {
                            send_due = false;
                            let due = typed.send_due();
                            match flags.send_due() {
                                None => assert_eq!(due, SendDue::Dropped),
                                Some((ok, late)) => {
                                    assert_eq!(due == SendDue::Send, ok, "the trace's ok");
                                    assert_eq!(due == SendDue::Late, late, "a loss counted");
                                    assert_ne!(due, SendDue::Dropped);
                                }
                            }
                            on_wire = due == SendDue::Send;
                        }
                        3 if on_wire => {
                            on_wire = false;
                            typed.send_done();
                            flags.transmitting = false;
                        }
                        4 => assert_eq!(typed.kill(), flags.kill(), "killed"),
                        5 if !flags.forwarded => {
                            // The pass no longer asks what it asked.
                            assert!(!flags.dropped && kind == StreamKind::Primary);
                            typed.forward();
                            flags.forwarded = true;
                        }
                        6 => {
                            let cut = rng.gen_bool(0.5);
                            let again = flags.forwarded
                                && !flags.dropped
                                && kind == StreamKind::Primary
                                && cut;
                            flags.forwarded &= !again;
                            assert_eq!(typed.reforward(|_| cut), again, "re-forwarded");
                        }
                        7 if rng.gen_bool(0.2) => {
                            typed.cut_over();
                            flags.dropped |= !flags.sent;
                            flags.forwarded = true;
                            assert_eq!(typed.reserved, 0);
                        }
                        _ => {}
                    }
                    assert_eq!(typed.finished(), flags.finished(), "{flags:?}");
                    assert_eq!(typed.outcome(), flags.outcome(), "{flags:?}");
                    assert_eq!(typed.awaits_forward(), !flags.forwarded);
                    let held = flags.buffer_held.then_some(u64::from(bytes));
                    assert_eq!(typed.buffer(), held, "the buffer to release");
                    if flags.finished() {
                        // The reclaim retires a primary's record unless
                        // it was dropped.
                        let retires = matches!(typed.outcome(), Outcome::Sent | Outcome::Missed);
                        assert_eq!(retires, !flags.dropped);
                        if rng.gen_bool(0.5) {
                            break; // Reclaimed: its later events miss.
                        }
                    }
                }
            }
        });
    }
}
