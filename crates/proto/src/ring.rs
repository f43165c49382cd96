//! The ring-membership / failure-detector state machine (§2.3, §4.1.1).
//!
//! [`RingMachine`] owns every belief a cub holds about the ring: which
//! cubs it believes failed, when it last heard from each, the per-cub
//! "recently rejoined" horizon, and the open mirror hand-back window.
//! Inputs are deadman pings, failure notices, rejoin requests/acks, and
//! timer expiries (the periodic deadman check); outputs are small typed
//! verdicts the driver turns into sends, traces, and metrics. The
//! machine itself never sends, schedules, or records anything — that is
//! the sans-io contract that lets the DES driver (`tiger_core::Cub`)
//! and the socket driver (`tiger-rt`) run identical protocol logic.
//!
//! [`Membership`] is the belief vector alone, shared with the
//! controller's routing table (the controller tracks cub liveness from
//! failure notices and rejoin requests but runs no deadman of its own).

use tiger_layout::CubId;
use tiger_sim::{SimDuration, SimTime};

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

/// A ring liveness-belief vector: which members are believed failed.
///
/// Ring scans are deterministic walks from a starting member; the
/// *within* variants bound the walk to the first `n` members, which is
/// how the controller routes on the striped ring while its vector spans
/// striped cubs and spares alike.
#[derive(Clone, Debug)]
pub struct Membership {
    failed: Vec<bool>,
}

impl Membership {
    /// All `n` members living.
    pub fn all_living(n: usize) -> Self {
        Membership {
            failed: vec![false; n],
        }
    }

    /// `total` members with the trailing spares (ids `>= striped`) marked
    /// failed — the boot-time vector: spares are not ring members until a
    /// restripe cut-over activates them.
    pub fn with_spares(total: u32, striped: u32) -> Self {
        Membership {
            failed: (0..total).map(|c| c >= striped).collect(),
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

    /// Replaces the whole vector (restripe cut-over ground truth).
    pub fn reset_from(&mut self, failed: &[bool]) {
        self.failed = failed.to_vec();
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

    /// The answer to a rejoin request: this cub's failure beliefs.
    pub fn rejoin_ack(&self) -> Message {
        let failed = self.members.failed_ids().into();
        Message::RejoinAck {
            from: self.id,
            failed,
        }
    }

    /// Every other cub this cub believes living, ascending: where a
    /// failure notice goes.
    pub fn living_peers(&self) -> impl Iterator<Item = CubId> + '_ {
        let ring = (0..self.num_cubs()).map(CubId);
        ring.filter(|&c| c != self.id && !self.believes_failed(c))
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
    /// true when the sender is a *zombie* — a cub this machine already
    /// declared dead — which the driver must answer with a failure
    /// notice so the zombie fences itself off.
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
    /// one-living-cub ring). The driver records the declaration and then
    /// calls [`RingMachine::declare_failed`].
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
    /// when the belief flipped — the driver then runs the gap-bridging
    /// re-drive and the acting-successor takeover. The return is the
    /// drivers' only guard: neither re-tests the belief. Flipping the
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
    /// and learns real failures from rejoin acks.
    pub fn restart(&mut self, now: SimTime, striped_cubs: u32) {
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
        let peers: Vec<CubId> = ring.living_peers().collect();
        assert_eq!(peers, vec![CubId(0), CubId(3)]);
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
}
