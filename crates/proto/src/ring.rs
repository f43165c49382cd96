//! The ring-membership / failure-detector state machine (§2.3, §4.1.1),
//! and the one sequence every driver runs it through.
//!
//! [`RingMachine`] owns every belief a cub holds about the ring: which
//! cubs it believes failed, when it last heard from each, the life
//! (restart count) it last saw each in, the per-cub "recently rejoined"
//! horizon, and the open mirror hand-back window.
//! Inputs are deadman pings, failure notices, rejoin requests/acks, and
//! timer expiries; outputs are small typed verdicts. The machine never
//! sends, schedules, or records anything. [`RingDriver`] is §2.3's
//! failure handling written once around those verdicts, over hooks the
//! DES cub, the socket driver (`tiger-rt`) and the crash-path search
//! implement, so the search checks the code that ships.
//!
//! [`Membership`] is the belief vector alone, shared with the
//! controller's routing table (the controller tracks cub liveness from
//! failure notices and rejoin requests but runs no deadman of its own).

use tiger_layout::CubId;
use tiger_sim::{SimDuration, SimTime};
use tiger_trace::TraceEvent;

use crate::msg::Message;

/// Protocol timing constants the ring machine needs. The driver builds
/// this from its configuration; the machine never reads a config store.
#[derive(Clone, Copy, Debug)]
pub struct RingConfig {
    /// Silence strictly greater than this declares the predecessor dead.
    pub deadman_timeout: SimDuration,
    /// Heartbeat period (bounds the rejoin vulnerability horizon).
    pub deadman_interval: SimDuration,
    /// One schedule lead: the mirror hand-back window length, and the
    /// time a rejoiner needs to re-acquire every stream.
    pub min_vstate_lead: SimDuration,
}

impl RingConfig {
    /// How long after a rejoin the rejoiner stays inside the
    /// vulnerability horizon: until it has re-acquired every stream (one
    /// schedule lead) and a covering partner's death would be detected
    /// (one timeout plus two heartbeat periods of slack).
    pub fn rejoin_horizon(&self) -> SimDuration {
        self.min_vstate_lead + self.deadman_timeout + self.deadman_interval.mul_u64(2)
    }
}

/// A ring liveness-belief vector: which members are believed failed, and
/// the last life (restart count) seen of each.
///
/// Ring scans are deterministic walks from a starting member; the
/// *within* variants bound the walk to the first `n` members, which is
/// how the controller routes on the striped ring while its vector spans
/// striped cubs and spares alike.
#[derive(Clone, Debug)]
pub struct Membership {
    failed: Vec<bool>,
    lives: Vec<u32>,
}

impl Membership {
    /// All `n` members living.
    pub fn all_living(n: usize) -> Self {
        Membership {
            failed: vec![false; n],
            lives: vec![0; n],
        }
    }

    /// `total` members with the trailing spares (ids `>= striped`) marked
    /// failed — the boot-time vector: spares are not ring members until a
    /// restripe cut-over activates them.
    pub fn with_spares(total: u32, striped: u32) -> Self {
        Membership {
            failed: (0..total).map(|c| c >= striped).collect(),
            lives: vec![0; total as usize],
        }
    }

    /// Number of members tracked (living or not).
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// Whether the vector tracks no members at all.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Whether `cub` is believed failed.
    pub fn is_failed(&self, cub: CubId) -> bool {
        self.failed[cub.index()]
    }

    /// Sets the belief for one member.
    pub fn set_failed(&mut self, cub: CubId, failed: bool) {
        self.failed[cub.index()] = failed;
    }

    /// Replaces the whole vector (restripe cut-over ground truth); the
    /// lives are kept.
    pub fn reset_from(&mut self, failed: &[bool]) {
        self.failed = failed.to_vec();
        self.lives.resize(failed.len(), 0);
    }

    /// The last life seen of `cub`.
    pub fn life(&self, cub: CubId) -> u32 {
        self.lives[cub.index()]
    }

    /// Input: a message naming `cub` in `life`. Whether that life is no
    /// older than the last seen, which it then becomes: a failure notice
    /// that names an older life predates a rejoin and is dropped.
    pub fn sees_life(&mut self, cub: CubId, life: u32) -> bool {
        let seen = &mut self.lives[cub.index()];
        *seen = life.max(*seen);
        life == *seen
    }

    /// Raw ids of every member currently believed failed, ascending.
    pub fn failed_ids(&self) -> Vec<u32> {
        (0..self.failed.len() as u32)
            .filter(|&c| self.failed[c as usize])
            .collect()
    }

    /// The first living member strictly after `from`, walking the whole
    /// ring.
    pub fn next_living(&self, from: CubId) -> Option<CubId> {
        self.next_living_within(from, self.failed.len() as u32)
    }

    /// The first living member strictly after `from` on the `n`-member
    /// sub-ring.
    pub fn next_living_within(&self, from: CubId, n: u32) -> Option<CubId> {
        (1..n)
            .map(|i| CubId((from.raw() + i) % n))
            .find(|c| !self.failed[c.index()])
    }

    /// The first living member strictly before `from`, walking the whole
    /// ring backwards.
    pub fn prev_living(&self, from: CubId) -> Option<CubId> {
        let n = self.failed.len() as u32;
        (1..n)
            .map(|i| CubId((from.raw() + n - i) % n))
            .find(|c| !self.failed[c.index()])
    }

    /// The first living member at-or-after `from` on the `n`-member
    /// sub-ring, or `from` itself when every member is believed down
    /// (the caller has nowhere better to route).
    pub fn first_living_at(&self, from: CubId, n: u32) -> CubId {
        (0..n)
            .map(|i| CubId((from.raw() + i) % n))
            .find(|c| !self.failed[c.index()])
            .unwrap_or(from)
    }
}

/// What a rejoin request obliges the receiver to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejoinOutcome {
    /// The receiver was the acting successor covering the rejoiner's
    /// disks: it must open the mirror hand-back window
    /// ([`RingMachine::open_handback`]).
    pub was_covering: bool,
    /// The receiver is a ring neighbour of the rejoiner: it must answer
    /// with [`RingMachine::rejoin_ack`].
    pub should_ack: bool,
    /// The receiver is the rejoiner's ring *predecessor*: its retired-log
    /// tail, advanced one position, lands on the rejoiner's disks, so it
    /// must stream the tail as a retired-replay batch (sub-interval
    /// rejoin). The successor's tail advances *away* from the rejoiner
    /// and owes nothing here.
    pub should_replay: bool,
}

/// The per-cub ring state machine: failure beliefs, deadman clocks,
/// rejoin horizons, and the hand-back window.
#[derive(Clone, Debug)]
pub struct RingMachine {
    id: CubId,
    members: Membership,
    /// Last time anything was heard from each cub (deadman input).
    last_heard: Vec<SimTime>,
    /// Per-cub "recently rejoined until" horizon.
    rejoin_until: Vec<SimTime>,
    /// Open mirror hand-back window: `(rejoiner, until)`.
    handback: Option<(CubId, SimTime)>,
}

impl RingMachine {
    /// A fresh machine for cub `id` on an `n`-cub ring, everyone living.
    pub fn new(id: CubId, num_cubs: u32) -> Self {
        RingMachine {
            id,
            members: Membership::all_living(num_cubs as usize),
            last_heard: vec![SimTime::ZERO; num_cubs as usize],
            rejoin_until: vec![SimTime::ZERO; num_cubs as usize],
            handback: None,
        }
    }

    /// This machine's own cub id.
    pub fn id(&self) -> CubId {
        self.id
    }

    /// Ring size (members tracked, living or not).
    pub fn num_cubs(&self) -> u32 {
        self.members.len() as u32
    }

    /// Whether this cub currently believes `cub` is failed.
    pub fn believes_failed(&self, cub: CubId) -> bool {
        self.members.is_failed(cub)
    }

    /// The last life seen of `cub`, this cub's own included.
    pub fn life(&self, cub: CubId) -> u32 {
        self.members.life(cub)
    }

    /// Input: a message naming `cub` in `life` ([`Membership::sees_life`]).
    pub fn sees_life(&mut self, cub: CubId, life: u32) -> bool {
        self.members.sees_life(cub, life)
    }

    /// The answer to a rejoin request: this cub's failure beliefs.
    pub fn rejoin_ack(&self) -> Message {
        let failed = self.members.failed_ids().into();
        Message::RejoinAck {
            from: self.id,
            failed,
        }
    }

    /// The first living cub strictly after `from`.
    pub fn next_living(&self, from: CubId) -> Option<CubId> {
        self.members.next_living(from)
    }

    /// The first living cub strictly before `from`.
    pub fn prev_living(&self, from: CubId) -> Option<CubId> {
        self.members.prev_living(from)
    }

    /// The first living cub after `from` and the one after that, left out
    /// when the ring is so short that it would be this cub.
    pub fn successor_pair(&self, from: CubId) -> impl Iterator<Item = CubId> {
        let succ = self.next_living(from);
        let second = succ.and_then(|s| self.next_living(s));
        succ.into_iter().chain(second.filter(|&s| s != self.id))
    }

    /// Whether this cub covers `cub`'s disks: `cub` is believed failed and
    /// this cub is its acting successor (the first living cub after it).
    pub fn covers(&self, cub: CubId) -> bool {
        self.members.is_failed(cub) && self.next_living(cub) == Some(self.id)
    }

    /// Where this cub's periodic heartbeat goes (its living successor).
    pub fn ping_target(&self) -> Option<CubId> {
        self.next_living(self.id)
    }

    /// Whether `cub` is still inside its post-rejoin vulnerability
    /// horizon at `now`.
    pub fn recently_rejoined(&self, cub: CubId, now: SimTime) -> bool {
        now < self.rejoin_until[cub.index()]
    }

    /// Input: a deadman ping (or any sign of life) from `from`. Returns
    /// true when the sender is believed failed: a *zombie*, unless the
    /// ping names a newer life than the one declared
    /// ([`RingDriver::on_ring_message`] asks), which the driver must
    /// answer with a failure notice so the zombie fences itself off.
    pub fn on_ping(&mut self, from: CubId, now: SimTime) -> bool {
        self.last_heard[from.index()] = now;
        self.members.is_failed(from)
    }

    /// Input: any message from `from` that implies liveness without the
    /// zombie check (rejoin acks).
    pub fn heard_from(&mut self, from: CubId, now: SimTime) {
        self.last_heard[from.index()] = now;
    }

    /// Timer input: the periodic deadman check. Read-only — returns the
    /// predecessor and its observed silence when the silence *strictly*
    /// exceeds the timeout, `None` otherwise (including the degenerate
    /// one-living-cub ring). [`RingDriver::check`] records the
    /// declaration and then declares and announces it.
    pub fn poll_check(&self, now: SimTime, cfg: &RingConfig) -> Option<(CubId, SimDuration)> {
        let pred = self.prev_living(self.id)?;
        if pred == self.id {
            return None;
        }
        let silence = now.saturating_since(self.last_heard[pred.index()]);
        (silence > cfg.deadman_timeout).then_some((pred, silence))
    }

    /// Input: `failed` is to be believed dead (a local declaration or a
    /// received failure notice). Returns false when the belief was
    /// already held (or `failed` is this cub) and nothing changed; true
    /// when the belief flipped — [`RingDriver::declare`] then runs the
    /// gap bridge and the acting-successor takeover. The return is the
    /// sequence's only guard: nothing re-tests the belief. Flipping the
    /// belief re-baselines monitoring of the (possibly new) predecessor.
    pub fn declare_failed(&mut self, failed: CubId, now: SimTime) -> bool {
        if self.members.is_failed(failed) || failed == self.id {
            return false;
        }
        self.members.set_failed(failed, true);
        self.reset_pred_baseline(now);
        true
    }

    /// Input: a rejoin request from a restarted cub. Clears the failure
    /// belief, re-baselines the deadman clocks, opens the rejoiner's
    /// vulnerability horizon, and reports what the driver owes the
    /// rejoiner. `None` when `from` is this cub itself.
    pub fn on_rejoin_request(
        &mut self,
        from: CubId,
        now: SimTime,
        cfg: &RingConfig,
    ) -> Option<RejoinOutcome> {
        if from == self.id {
            return None;
        }
        let was_covering = self.covers(from);
        self.members.set_failed(from, false);
        self.last_heard[from.index()] = now;
        self.rejoin_until[from.index()] = now + cfg.rejoin_horizon();
        // The ring just changed back: re-baseline predecessor monitoring
        // exactly as a failure declaration does.
        self.reset_pred_baseline(now);
        let is_pred = self.prev_living(from) == Some(self.id);
        let should_ack = self.next_living(from) == Some(self.id) || is_pred;
        Some(RejoinOutcome {
            was_covering,
            should_ack,
            should_replay: is_pred,
        })
    }

    /// Opens the mirror hand-back window toward `to` for one schedule
    /// lead (the covering partner's half of a rejoin).
    pub fn open_handback(&mut self, to: CubId, now: SimTime, cfg: &RingConfig) {
        self.handback = Some((to, now + cfg.min_vstate_lead));
    }

    /// Timer-checked input: a shadowed record owned by `owner` arrived
    /// while a hand-back window may be open. Returns true when the
    /// record must be relayed to the rejoiner; an expired window closes
    /// as a side effect.
    pub fn handback_relay(&mut self, owner: CubId, now: SimTime) -> bool {
        match self.handback {
            Some((_, until)) if now >= until => {
                self.handback = None;
                false
            }
            Some((hb, _)) => owner == hb,
            None => false,
        }
    }

    /// Closes any open hand-back window (restripe cut-over, restart).
    pub fn clear_handback(&mut self) {
        self.handback = None;
    }

    /// Re-baselines deadman monitoring of the current predecessor after
    /// a ring-membership change (a failure declaration *or* a rejoin):
    /// the new predecessor redirects its pings here only once it learns
    /// of the change too. Measure its silence from this instant —
    /// otherwise a takeover instantly declares a never-heard-from
    /// predecessor with an epoch-sized silence claim.
    pub fn reset_pred_baseline(&mut self, now: SimTime) {
        if let Some(p) = self.prev_living(self.id) {
            if p != self.id {
                self.last_heard[p.index()] = self.last_heard[p.index()].max(now);
            }
        }
    }

    /// Restart with empty protocol state: a restarted process knows
    /// nothing about who is down; it assumes the full striped ring is
    /// alive (spares stay marked failed — they are not ring members)
    /// and learns real failures from rejoin acks. It keeps the lives it
    /// saw, its own raised, as a boot counter would: a life only grows,
    /// so a kept one is never newer than its cub's, and the notice of a
    /// later declare names the life its peers know.
    pub fn restart(&mut self, now: SimTime, striped_cubs: u32) {
        self.members.sees_life(self.id, self.life(self.id) + 1);
        for c in 0..self.members.len() as u32 {
            self.members.set_failed(CubId(c), c >= striped_cubs);
        }
        for t in &mut self.last_heard {
            *t = now;
        }
        for t in &mut self.rejoin_until {
            *t = SimTime::ZERO;
        }
        self.handback = None;
    }

    /// Marks `cub` believed-failed without the declaration side effects
    /// (construction-time marking of spare cubs, which are not ring
    /// members until a restripe cut-over activates them).
    pub fn mark_believed_failed(&mut self, cub: CubId) {
        self.members.set_failed(cub, true);
    }

    /// Installs a post-cut-over ring map: belief vectors resize to the
    /// new ring and every member's liveness is set from ground truth.
    /// Deadman baselines restart from this instant.
    pub fn set_ring_state(&mut self, failed: &[bool], now: SimTime) {
        self.members.reset_from(failed);
        self.last_heard = vec![now; failed.len()];
        self.rejoin_until = vec![SimTime::ZERO; failed.len()];
    }
}

/// A driver of one cub's [`RingMachine`]: declare the silent
/// predecessor, adopt the belief, tell the living peers, take over, fence
/// a zombie, answer a rejoin and hand back. A driver implements the hooks,
/// each run at its own current instant; the provided methods are the
/// sequence (given that instant as `now` for the machine), and the order
/// they call the hooks in, which this module's tests pin, is what keeps
/// the drivers bit-exact.
pub trait RingDriver {
    /// This cub's ring machine.
    fn ring(&mut self) -> &mut RingMachine;
    /// Sends `msg` to cub `to`.
    fn send(&mut self, to: CubId, msg: Message);
    /// Records one protocol decision of this cub.
    fn record(&mut self, event: TraceEvent);
    /// Stops this cub, declared dead while it stalled (a zombie): its
    /// acting successor covers its streams.
    fn fence(&mut self);
    /// As the rejoiner `to`'s predecessor, replays the retired-log tail.
    fn replay(&mut self, to: CubId);
    /// Sends `msg` to the controller, for a driver that has one.
    fn to_controller(&mut self, _msg: Message) {}
    /// §2.3's gap bridge once a belief flipped.
    fn bridge(&mut self) {}
    /// The acting successor's takeover of `failed`'s disks.
    fn take_over(&mut self, _failed: CubId) {}
    /// Runs just before the hand-back window toward `to` opens.
    fn handing_back(&mut self, _to: CubId) {}

    /// The periodic heartbeat to this cub's living successor.
    fn ping(&mut self) {
        let Some(succ) = self.ring().ping_target() else {
            return;
        };
        self.record(TraceEvent::DeadmanPing { to: succ.raw() });
        let from = self.ring().id();
        let life = self.ring().life(from);
        self.send(succ, Message::DeadmanPing { from, life });
    }

    /// The periodic silence check on the predecessor: one silent past the
    /// timeout is recorded, declared and announced, and returned.
    fn check(&mut self, now: SimTime, cfg: &RingConfig) -> Option<CubId> {
        let (pred, silence) = self.ring().poll_check(now, cfg)?;
        let (failed, silence_ns) = (pred.raw(), silence.as_nanos());
        self.record(TraceEvent::DeadmanDeclare { failed, silence_ns });
        self.declare(now, pred);
        self.announce(pred);
        Some(pred)
    }

    /// Believes `failed` dead: its record, the gap bridge, then for the
    /// acting successor the takeover. Nothing when the belief was held.
    fn declare(&mut self, now: SimTime, failed: CubId) {
        if !self.ring().declare_failed(failed, now) {
            return;
        }
        let cub = failed.raw();
        self.record(TraceEvent::FailureNotice { failed: cub });
        self.bridge();
        if self.ring().covers(failed) {
            self.record(TraceEvent::MirrorTakeover { failed_cub: cub });
            self.take_over(failed);
        }
    }

    /// Tells each peer believed living, ascending, then the controller,
    /// that `failed` is dead.
    fn announce(&mut self, failed: CubId) {
        let (me, cubs) = (self.ring().id(), self.ring().num_cubs());
        let life = self.ring().life(failed);
        let notice = Message::FailureNotice { failed, life };
        // By id: collecting the peers would allocate at every declare.
        for peer in (0..cubs).map(CubId) {
            if peer != me && !self.ring().believes_failed(peer) {
                self.send(peer, notice.clone());
            }
        }
        self.to_controller(notice);
    }

    /// Handles a received ring message (a ping, a failure notice, a
    /// rejoin request or its ack) and returns `None`; hands any other
    /// message back to the caller. A notice naming a life older than
    /// the last seen of its cub predates that cub's rejoin: it is
    /// dropped, the zombie-ping reply to a restarted cub included.
    fn on_ring_message(&mut self, now: SimTime, cfg: &RingConfig, msg: Message) -> Option<Message> {
        match msg {
            Message::DeadmanPing { from, life } => {
                // A zombie's ping, in the life declared or an older one:
                // tell it, so it fences itself off. A newer life is a
                // restarted cub whose rejoin request is on its way. A
                // living cub's life is kept: the cub that would declare it
                // learns each restart from its pings.
                if !self.ring().on_ping(from, now) {
                    self.ring().sees_life(from, life);
                } else if life <= self.ring().life(from) {
                    self.send(from, Message::FailureNotice { failed: from, life });
                }
            }
            Message::FailureNotice { failed, life } if !self.ring().sees_life(failed, life) => {}
            Message::FailureNotice { failed, .. } if failed == self.ring().id() => {
                self.record(TraceEvent::CubFenced { cub: failed.raw() });
                self.fence();
            }
            Message::FailureNotice { failed, .. } => self.declare(now, failed),
            Message::RejoinRequest { from, life } => {
                // Its own request is `None`, handled. Then the ack, the
                // replay and the hand-back.
                self.ring().sees_life(from, life);
                let outcome = self.ring().on_rejoin_request(from, now, cfg)?;
                if outcome.should_ack {
                    let ack = self.ring().rejoin_ack();
                    self.send(from, ack);
                }
                if outcome.should_replay {
                    self.replay(from);
                }
                if outcome.was_covering {
                    self.handing_back(from);
                    self.record(TraceEvent::HandbackOpen { to: from.raw() });
                    self.ring().open_handback(from, now, cfg);
                }
            }
            Message::RejoinAck { from, failed } => {
                self.ring().heard_from(from, now);
                for &c in failed.iter() {
                    self.declare(now, CubId(c));
                }
            }
            other => return Some(other),
        }
        None
    }

    /// A restart: the machine forgets every belief (the first `striped`
    /// cubs are assumed living), and every other striped cub and the
    /// controller are asked to take this cub back.
    fn rejoin(&mut self, now: SimTime, striped: u32) {
        self.ring().restart(now, striped);
        let from = self.ring().id();
        let life = self.ring().life(from);
        let request = Message::RejoinRequest { from, life };
        for c in (0..striped).map(CubId).filter(|&c| c != from) {
            self.send(c, request.clone());
        }
        self.to_controller(request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RingConfig {
        RingConfig {
            deadman_timeout: SimDuration::from_secs(2),
            deadman_interval: SimDuration::from_millis(500),
            min_vstate_lead: SimDuration::from_secs(2),
        }
    }

    fn warm(machine: &mut RingMachine, now: SimTime) {
        for c in 0..machine.num_cubs() {
            machine.heard_from(CubId(c), now);
        }
    }

    #[test]
    fn membership_walks_the_ring_in_both_directions() {
        let mut m = Membership::all_living(4);
        assert_eq!(m.next_living(CubId(0)), Some(CubId(1)));
        assert_eq!(m.prev_living(CubId(0)), Some(CubId(3)));
        m.set_failed(CubId(1), true);
        assert_eq!(m.next_living(CubId(0)), Some(CubId(2)));
        assert_eq!(m.prev_living(CubId(2)), Some(CubId(0)));
        assert_eq!(m.first_living_at(CubId(1), 4), CubId(2));
        assert_eq!(m.first_living_at(CubId(2), 4), CubId(2));
        assert_eq!(m.failed_ids(), vec![1]);
        m.set_failed(CubId(0), true);
        m.set_failed(CubId(2), true);
        m.set_failed(CubId(3), true);
        assert_eq!(m.next_living(CubId(0)), None);
        assert_eq!(m.first_living_at(CubId(2), 4), CubId(2), "fallback");
    }

    #[test]
    fn membership_sub_ring_scans_ignore_spares() {
        // 6 tracked members, 4-cub striped ring: the controller routes
        // only within the stripe even though spares 4/5 are tracked.
        let mut m = Membership::all_living(6);
        m.set_failed(CubId(3), true);
        assert_eq!(m.next_living_within(CubId(2), 4), Some(CubId(0)));
        assert_eq!(m.first_living_at(CubId(3), 4), CubId(0));
    }

    // Satellite coverage: the deadman declare/suppress boundary, driven
    // purely by synthetic inputs — no DES, no sockets.
    #[test]
    fn deadman_boundary_is_strictly_greater_than_timeout() {
        let mut ring = RingMachine::new(CubId(2), 4);
        let t0 = SimTime::from_secs(10);
        warm(&mut ring, t0);
        let at_timeout = t0 + cfg().deadman_timeout;
        assert_eq!(
            ring.poll_check(at_timeout, &cfg()),
            None,
            "silence exactly equal to the timeout must not declare"
        );
        let past = at_timeout + SimDuration::from_nanos(1);
        assert_eq!(
            ring.poll_check(past, &cfg()),
            Some((CubId(1), cfg().deadman_timeout + SimDuration::from_nanos(1))),
            "one nanosecond past the timeout declares the predecessor"
        );
        // A ping resets the clock and suppresses the declaration.
        assert!(
            !ring.on_ping(CubId(1), past),
            "live predecessor, not a zombie"
        );
        assert_eq!(ring.poll_check(past + cfg().deadman_timeout, &cfg()), None);
    }

    #[test]
    fn declaration_shifts_monitoring_to_the_next_predecessor() {
        let mut ring = RingMachine::new(CubId(2), 4);
        let t0 = SimTime::from_secs(10);
        warm(&mut ring, t0);
        let late = t0 + cfg().deadman_timeout + SimDuration::from_millis(1);
        let (pred, _) = ring.poll_check(late, &cfg()).expect("c1 silent too long");
        assert_eq!(pred, CubId(1));
        assert!(ring.declare_failed(pred, late));
        assert!(!ring.declare_failed(pred, late), "idempotent");
        assert!(ring.believes_failed(CubId(1)));
        // The new predecessor (c0) is monitored from the declaration
        // instant, not from its stale last-heard: no instant cascade.
        assert_eq!(ring.prev_living(CubId(2)), Some(CubId(0)));
        assert_eq!(ring.poll_check(late + cfg().deadman_timeout, &cfg()), None);
        assert!(ring
            .poll_check(
                late + cfg().deadman_timeout + SimDuration::from_nanos(1),
                &cfg()
            )
            .is_some());
    }

    #[test]
    fn a_cub_covers_only_a_believed_failed_predecessor() {
        let mut ring = RingMachine::new(CubId(2), 4);
        assert!(
            !ring.covers(CubId(1)),
            "a living predecessor is not covered"
        );
        assert!(ring.declare_failed(CubId(1), SimTime::from_secs(1)));
        assert!(ring.covers(CubId(1)));
        assert!(!ring.covers(CubId(0)), "c0 is alive");
        assert!(!ring.covers(CubId(3)), "c3 is alive, and c0 follows it");
        assert!(ring.declare_failed(CubId(3), SimTime::from_secs(2)));
        assert!(!ring.covers(CubId(3)), "c0, not c2, follows c3");
    }

    #[test]
    fn zombie_pings_are_flagged_for_fencing() {
        let mut ring = RingMachine::new(CubId(2), 4);
        warm(&mut ring, SimTime::from_secs(1));
        assert!(ring.declare_failed(CubId(1), SimTime::from_secs(4)));
        assert!(
            ring.on_ping(CubId(1), SimTime::from_secs(5)),
            "a ping from a declared-dead cub is a zombie"
        );
    }

    // Satellite coverage: the rejoin hand-back, driven synthetically.
    #[test]
    fn rejoin_from_the_covering_successor_opens_the_handback() {
        let mut ring = RingMachine::new(CubId(2), 4);
        let t0 = SimTime::from_secs(5);
        warm(&mut ring, t0);
        ring.declare_failed(CubId(1), t0);
        assert!(ring.covers(CubId(1)), "c2 covers c1");

        let t1 = SimTime::from_secs(15);
        let out = ring
            .on_rejoin_request(CubId(1), t1, &cfg())
            .expect("not self");
        assert!(out.was_covering, "the covering partner owes a hand-back");
        assert!(out.should_ack, "and is a ring neighbour");
        assert!(
            !out.should_replay,
            "the successor's retired tail advances away from the rejoiner"
        );
        assert!(!ring.believes_failed(CubId(1)), "belief cleared");
        assert!(ring.recently_rejoined(CubId(1), t1));
        assert!(
            !ring.recently_rejoined(CubId(1), t1 + cfg().rejoin_horizon()),
            "horizon closes"
        );

        // The driver opens the window; records owned by the rejoiner are
        // relayed until one schedule lead passes.
        ring.open_handback(CubId(1), t1, &cfg());
        assert!(ring.handback_relay(CubId(1), t1 + SimDuration::from_secs(1)));
        assert!(
            !ring.handback_relay(CubId(3), t1 + SimDuration::from_secs(1)),
            "records for other owners are not relayed"
        );
        let after = t1 + cfg().min_vstate_lead;
        assert!(!ring.handback_relay(CubId(1), after), "window expired");
        assert!(
            !ring.handback_relay(CubId(1), t1),
            "expiry closed the window for good"
        );
    }

    #[test]
    fn rejoin_from_a_non_covering_neighbour_only_acks() {
        let mut ring = RingMachine::new(CubId(0), 4);
        let t0 = SimTime::from_secs(5);
        warm(&mut ring, t0);
        ring.declare_failed(CubId(1), t0);
        assert!(!ring.covers(CubId(1)), "c2 covers, not c0");
        let out = ring
            .on_rejoin_request(CubId(1), SimTime::from_secs(15), &cfg())
            .expect("not self");
        assert!(!out.was_covering);
        assert!(out.should_ack, "c0 is the rejoiner's predecessor");
        assert!(
            out.should_replay,
            "the predecessor's retired tail lands on the rejoiner: replay"
        );
        assert!(
            ring.on_rejoin_request(CubId(0), t0, &cfg()).is_none(),
            "self"
        );
    }

    // Satellite coverage: the `rejoin_until` horizon boundary. The
    // shadow re-drive on a failure declaration consults
    // `recently_rejoined` — a record owned by a cub inside its horizon
    // is re-driven toward it, one past the horizon is not — so the
    // boundary semantics (`now < rejoin_until`, half-open) are pinned
    // here to the nanosecond.
    #[test]
    fn rejoin_horizon_closes_exactly_at_the_boundary() {
        let mut ring = RingMachine::new(CubId(0), 4);
        let t0 = SimTime::from_secs(5);
        warm(&mut ring, t0);
        ring.declare_failed(CubId(1), t0);
        let t1 = SimTime::from_secs(15);
        ring.on_rejoin_request(CubId(1), t1, &cfg()).expect("ok");
        let horizon = t1 + cfg().rejoin_horizon();
        assert!(
            ring.recently_rejoined(CubId(1), horizon - SimDuration::from_nanos(1)),
            "one tick before the horizon the rejoiner is still vulnerable"
        );
        assert!(
            !ring.recently_rejoined(CubId(1), horizon),
            "exactly at the horizon the window is closed (half-open interval)"
        );
        assert!(!ring.recently_rejoined(CubId(1), horizon + SimDuration::from_nanos(1)));
        // A second rejoin re-opens a fresh horizon from its own instant.
        let t2 = horizon + SimDuration::from_secs(1);
        ring.on_rejoin_request(CubId(1), t2, &cfg()).expect("ok");
        assert!(ring.recently_rejoined(
            CubId(1),
            t2 + cfg().rejoin_horizon() - SimDuration::from_nanos(1)
        ));
        assert!(!ring.recently_rejoined(CubId(1), t2 + cfg().rejoin_horizon()));
    }

    #[test]
    fn restart_assumes_the_striped_ring_alive_and_spares_dead() {
        let mut ring = RingMachine::new(CubId(1), 6);
        warm(&mut ring, SimTime::from_secs(1));
        ring.declare_failed(CubId(3), SimTime::from_secs(2));
        ring.open_handback(CubId(3), SimTime::from_secs(2), &cfg());
        let t = SimTime::from_secs(9);
        ring.restart(t, 4);
        assert!(!ring.believes_failed(CubId(3)), "beliefs wiped");
        assert!(ring.believes_failed(CubId(4)) && ring.believes_failed(CubId(5)));
        assert!(!ring.handback_relay(CubId(3), t), "handback closed");
        assert_eq!(ring.poll_check(t + cfg().deadman_timeout, &cfg()), None);
        let failed: Vec<u32> = vec![4, 5];
        assert_eq!(
            ring.rejoin_ack(),
            Message::RejoinAck {
                from: CubId(1),
                failed: failed.into()
            }
        );
    }

    #[test]
    fn set_ring_state_resizes_and_rebaselines() {
        let mut ring = RingMachine::new(CubId(0), 4);
        let t = SimTime::from_secs(30);
        ring.set_ring_state(&[false, false, false, false, false, true], t);
        assert_eq!(ring.num_cubs(), 6);
        assert!(ring.believes_failed(CubId(5)));
        assert_eq!(ring.poll_check(t + cfg().deadman_timeout, &cfg()), None);
        assert!(ring
            .poll_check(
                t + cfg().deadman_timeout + SimDuration::from_nanos(1),
                &cfg()
            )
            .is_some());
    }

    /// A driver that logs every hook call in one list, in call order.
    struct Log {
        ring: RingMachine,
        calls: Vec<String>,
    }

    impl Log {
        /// Cub `id` on an `n`-cub ring, every clock heard at 1 s.
        fn new(id: u32, n: u32) -> Self {
            let mut ring = RingMachine::new(CubId(id), n);
            warm(&mut ring, SimTime::from_secs(1));
            Log {
                ring,
                calls: Vec::new(),
            }
        }

        /// The calls logged since the last take.
        fn take(&mut self) -> Vec<String> {
            std::mem::take(&mut self.calls)
        }
    }

    impl RingDriver for Log {
        fn ring(&mut self) -> &mut RingMachine {
            &mut self.ring
        }
        fn send(&mut self, to: CubId, msg: Message) {
            let line = crate::wire::encode(&msg);
            self.calls.push(format!("send c{} {line}", to.raw()));
        }
        fn record(&mut self, event: TraceEvent) {
            let fields = event.fields().into_iter().map(|(k, v)| format!(" {k}={v}"));
            let line = format!("record {}{}", event.name(), fields.collect::<String>());
            self.calls.push(line);
        }
        fn fence(&mut self) {
            self.calls.push("fence".into());
        }
        fn replay(&mut self, to: CubId) {
            self.calls.push(format!("replay c{}", to.raw()));
        }
        fn to_controller(&mut self, msg: Message) {
            let line = crate::wire::encode(&msg);
            self.calls.push(format!("controller {line}"));
        }
        fn bridge(&mut self) {
            self.calls.push("bridge".into());
        }
        fn take_over(&mut self, failed: CubId) {
            self.calls.push(format!("take-over c{}", failed.raw()));
        }
        fn handing_back(&mut self, to: CubId) {
            self.calls.push(format!("handing-back c{}", to.raw()));
        }
    }

    // The order the provided methods call the hooks in is what keeps the
    // drivers bit-exact with one another.
    #[test]
    fn a_declare_bridges_then_takes_over_once() {
        let mut d = Log::new(2, 5);
        let t = SimTime::from_secs(2);
        d.declare(t, CubId(1));
        assert_eq!(
            d.take(),
            [
                "record failure-notice failed=1",
                "bridge",
                "record mirror-takeover failed_cub=1",
                "take-over c1",
            ]
        );
        d.declare(t, CubId(1));
        assert!(d.take().is_empty(), "a belief already held does nothing");
        d.declare(t, CubId(3));
        assert_eq!(
            d.take(),
            ["record failure-notice failed=3", "bridge"],
            "c4, not c2, follows c3"
        );
    }

    #[test]
    fn a_check_declares_then_announces_peers_ascending_then_the_controller() {
        let mut d = Log::new(2, 5);
        d.declare(SimTime::from_secs(1), CubId(4));
        d.take();
        let late = SimTime::from_secs(1) + cfg().deadman_timeout + SimDuration::from_nanos(1);
        assert_eq!(d.check(late, &cfg()), Some(CubId(1)));
        assert_eq!(
            d.take(),
            [
                "record deadman-declare failed=1 silence_ns=2000000001",
                "record failure-notice failed=1",
                "bridge",
                "record mirror-takeover failed_cub=1",
                "take-over c1",
                "send c0 NOTICE 1 0",
                "send c3 NOTICE 1 0",
                "controller NOTICE 1 0",
            ]
        );
        assert_eq!(d.check(late, &cfg()), None, "c0 is monitored from now");
        assert!(d.take().is_empty());
    }

    #[test]
    fn a_rejoin_request_acks_then_replays_then_hands_back() {
        // On two cubs the survivor is both the rejoiner's predecessor and
        // the cub covering it.
        let mut d = Log::new(0, 2);
        d.declare(SimTime::from_secs(2), CubId(1));
        d.take();
        let request = Message::RejoinRequest {
            from: CubId(1),
            life: 1,
        };
        let t = SimTime::from_secs(5);
        assert_eq!(d.on_ring_message(t, &cfg(), request), None);
        assert_eq!(
            d.take(),
            [
                "send c1 RACK 0 -",
                "replay c1",
                "handing-back c1",
                "record handback-open to=1",
            ]
        );
        assert!(d.ring.handback_relay(CubId(1), t), "the window is open");
        let own = Message::RejoinRequest {
            from: CubId(0),
            life: 0,
        };
        assert_eq!(d.on_ring_message(t, &cfg(), own), None);
        assert!(d.take().is_empty(), "a cub's own request is nothing");
    }

    #[test]
    fn a_rejoin_ack_declares_each_listed_cub_in_order() {
        let mut d = Log::new(2, 5);
        let ack = Message::RejoinAck {
            from: CubId(4),
            failed: vec![1, 3].into(),
        };
        assert_eq!(d.on_ring_message(SimTime::from_secs(2), &cfg(), ack), None);
        assert_eq!(
            d.take(),
            [
                "record failure-notice failed=1",
                "bridge",
                "record mirror-takeover failed_cub=1",
                "take-over c1",
                "record failure-notice failed=3",
                "bridge",
            ]
        );
    }

    #[test]
    fn a_notice_naming_the_receiver_fences_it_and_a_zombie_ping_earns_one() {
        let mut d = Log::new(2, 4);
        let t = SimTime::from_secs(2);
        let notice = Message::FailureNotice {
            failed: CubId(2),
            life: 0,
        };
        assert_eq!(d.on_ring_message(t, &cfg(), notice), None);
        assert_eq!(d.take(), ["record cub-fenced cub=2", "fence"]);
        assert!(!d.ring.believes_failed(CubId(2)));

        let ping = |from| Message::DeadmanPing {
            from: CubId(from),
            life: 0,
        };
        assert_eq!(d.on_ring_message(t, &cfg(), ping(1)), None);
        assert!(d.take().is_empty(), "a living predecessor's ping");
        d.declare(t, CubId(1));
        d.take();
        assert_eq!(d.on_ring_message(t, &cfg(), ping(1)), None);
        assert_eq!(d.take(), ["send c1 NOTICE 1 0"], "a zombie is told");
    }

    /// ROADMAP 1(f): a declare's notice and the rejoiner's request come
    /// from different senders, so a third cub may take the request first.
    /// The notice names the life its declarer knew, older than the
    /// request's, and is dropped: the rejoiner stays living here. So is
    /// the reply to a restarted cub's ping from a cub that has not yet
    /// seen its request. A notice of the new life still declares.
    #[test]
    fn a_notice_arriving_after_the_rejoin_request_of_its_cub_is_dropped() {
        let (mut d, t) = (Log::new(2, 4), SimTime::from_secs(2));
        let notice = |failed, life| Message::FailureNotice {
            failed: CubId(failed),
            life,
        };
        let request = Message::RejoinRequest {
            from: CubId(1),
            life: 1,
        };
        assert_eq!(d.on_ring_message(t, &cfg(), request), None);
        d.take();
        assert_eq!(d.on_ring_message(t, &cfg(), notice(1, 0)), None);
        assert!(d.take().is_empty(), "a notice of the life before");
        assert!(!d.ring.believes_failed(CubId(1)));
        assert_eq!(d.on_ring_message(t, &cfg(), notice(1, 1)), None);
        assert_eq!(
            d.take(),
            [
                "record failure-notice failed=1",
                "bridge",
                "record mirror-takeover failed_cub=1",
                "take-over c1",
            ]
        );
        // This cub restarts: a notice naming its previous life is stale.
        d.rejoin(t, 4);
        d.take();
        assert_eq!(d.on_ring_message(t, &cfg(), notice(2, 0)), None);
        assert!(d.take().is_empty(), "no fence for the life before");
        assert_eq!(d.on_ring_message(t, &cfg(), notice(2, 1)), None);
        assert_eq!(d.take(), ["record cub-fenced cub=2", "fence"]);
    }

    /// The cub that declares its predecessor names the life the peers
    /// know: it keeps the lives it saw across its own restart, and learns
    /// a restart it missed from the predecessor's pings. A ping in the
    /// life declared is a zombie's and is told so; a ping of a newer life
    /// is a restarted cub's whose request is on its way, and is not.
    #[test]
    fn a_declarer_names_the_life_of_its_predecessor_across_its_own_restart() {
        let (mut d, t) = (Log::new(2, 4), SimTime::from_secs(2));
        let request = Message::RejoinRequest {
            from: CubId(1),
            life: 1,
        };
        assert_eq!(d.on_ring_message(t, &cfg(), request), None);
        d.rejoin(t, 4);
        d.take();
        assert_eq!(d.ring.life(CubId(2)), 1, "its own life, raised");
        d.declare(t, CubId(1));
        d.announce(CubId(1));
        assert_eq!(
            &d.take()[4..],
            [
                "send c0 NOTICE 1 1",
                "send c3 NOTICE 1 1",
                "controller NOTICE 1 1"
            ]
        );

        let mut d = Log::new(2, 4);
        let ping = |life| Message::DeadmanPing {
            from: CubId(1),
            life,
        };
        assert_eq!(d.on_ring_message(t, &cfg(), ping(2)), None);
        assert!(d.take().is_empty(), "a living predecessor's ping");
        assert_eq!(d.ring.life(CubId(1)), 2, "a missed restart, learnt");
        d.declare(t, CubId(1));
        d.take();
        assert_eq!(d.on_ring_message(t, &cfg(), ping(2)), None);
        assert_eq!(d.take(), ["send c1 NOTICE 1 2"], "a zombie is told");
        assert_eq!(d.on_ring_message(t, &cfg(), ping(3)), None);
        assert!(d.take().is_empty(), "a restarted cub is not");
        assert_eq!(d.ring.life(CubId(1)), 2, "its request will tell");
    }

    #[test]
    fn a_ping_a_restart_and_other_messages() {
        let mut d = Log::new(1, 4);
        d.ping();
        assert_eq!(d.take(), ["record deadman-ping to=2", "send c2 PING 1 0"]);
        d.declare(SimTime::from_secs(2), CubId(2));
        d.rejoin(SimTime::from_secs(3), 4);
        assert_eq!(
            &d.take()[2..],
            [
                "send c0 REJOIN 1 1",
                "send c2 REJOIN 1 1",
                "send c3 REJOIN 1 1",
                "controller REJOIN 1 1",
            ]
        );
        assert!(!d.ring.believes_failed(CubId(2)), "a restart forgets");
        let other = Message::ViewerFinished {
            instance: Default::default(),
        };
        let back = d.on_ring_message(SimTime::from_secs(3), &cfg(), other.clone());
        assert_eq!(back, Some(other), "handed back to the caller");
        assert!(d.take().is_empty());
    }
}
