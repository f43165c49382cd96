//! The seam between the event loop and one cub: `Cub::on_event` runs
//! every event `TigerSystem` assigns the cub, the three periodic chains
//! (forwarding pass, deadman ping, deadman check) keep their due times
//! here, and a life is armed, cut and restarted here. A child module of
//! `cub.rs`, its file beside it, to share the private fields.

use tiger_proto::RingDriver;
use tiger_sim::{EventQueue, SimDuration, SimTime};

use super::{Cub, Driver};
use crate::event::Event;
use crate::system::Shared;

impl Cub {
    /// Runs one of this cub's events: a delivery to its node, or a timer
    /// or completion that names it (the event loop sends each here unless
    /// a freeze parks it; a power cut and a disk death are its own).
    ///
    /// A periodic event at or after its chain's due time belongs to the
    /// chain and schedules the next one. An earlier forward pass is a
    /// one-shot (`hasten_forward`): it runs but starts no second chain.
    /// An earlier ping or check was queued by a previous life: it dies.
    #[inline]
    pub fn on_event(&mut self, sh: &mut Shared, now: SimTime, event: Event) {
        match event {
            Event::Deliver { msg, .. } => self.on_message(sh, now, msg),
            Event::ReadIssue { token, .. } => self.on_read_issue(sh, now, token),
            Event::PoolFloor { .. } => self.on_pool_floor(sh, now),
            Event::DiskDone { token, .. } => self.on_disk_done(sh, now, token),
            Event::SendDue { token, .. } => self.on_send_due(sh, now, token),
            Event::SendDone { token, .. } => self.on_send_done(sh, now, token),
            Event::InsertAttempt { .. } => self.on_insert_attempt(sh, now),
            Event::ForwardPass { .. } => {
                let chained = self.next_forward_pass <= now;
                self.on_forward_pass(sh, now);
                if chained && !self.failed {
                    self.next_forward_pass = now + sh.cfg.forward_interval;
                    sh.queue.schedule(self.next_forward_pass, event);
                }
            }
            Event::DeadmanPing { .. } | Event::DeadmanCheck { .. } => {
                let ping = matches!(event, Event::DeadmanPing { .. });
                let due = if ping {
                    &mut self.next_deadman_ping
                } else {
                    &mut self.next_deadman_check
                };
                if *due <= now {
                    *due = now + sh.cfg.deadman_interval;
                    let next = *due;
                    self.on_deadman(sh, now, ping);
                    if !self.failed {
                        sh.queue.schedule(next, event);
                    }
                }
            }
            _ => unreachable!("{event:?} is not a cub's event"),
        }
        debug_assert!(self.pool.settled(), "{}: pool unsettled at {now}", self.id);
    }

    /// Arms the three periodic chains: at start-up, after a restart, and
    /// when a cut-over absorbs a spare. Each due time set here is the one
    /// `on_event` honours, so an event still queued from the cub's
    /// previous life cannot run a second chain beside the new one.
    ///
    /// Start-up staggers the work across cubs so the simulation does not
    /// synchronize artificial load spikes, and pings at once. A revived or
    /// absorbed cub starts a full interval out — its deadman check one
    /// full timeout after `restart` reset every last-heard clock, so the
    /// fresh baseline can never declare a predecessor on stale silence.
    pub(crate) fn arm_periodic(&mut self, sh: &mut Shared, now: SimTime, startup: bool) {
        let (cfg, me) = (&sh.cfg, u64::from(self.id.raw()));
        let slice = |interval: SimDuration| {
            let nanos = interval.as_nanos() * me / u64::from(cfg.stripe.num_cubs);
            SimDuration::from_nanos(if startup { nanos } else { 0 })
        };
        let forward = now + cfg.forward_interval + slice(cfg.forward_interval);
        let check = now + cfg.deadman_timeout + slice(cfg.deadman_interval);
        let ping = if startup {
            now + slice(cfg.deadman_interval) + SimDuration::from_millis(1)
        } else {
            now + cfg.deadman_interval
        };
        // A start-up pass leaves `next_forward_pass` at ZERO.
        if !startup {
            self.next_forward_pass = forward;
        }
        self.next_deadman_ping = ping;
        self.next_deadman_check = check;
        let cub = self.id;
        sh.queue.schedule(forward, Event::ForwardPass { cub });
        sh.queue.schedule(ping, Event::DeadmanPing { cub });
        sh.queue.schedule(check, Event::DeadmanCheck { cub });
    }

    /// A one-shot forward pass 1 ms out: records due to forward go now,
    /// not at the next periodic cadence.
    pub(super) fn hasten_forward(&self, queue: &mut EventQueue<Event>, now: SimTime) {
        let pass = Event::ForwardPass { cub: self.id };
        queue.schedule(now + SimDuration::from_millis(1), pass);
    }

    /// Power-cut: the cub stops doing anything, its disks die with it and
    /// its node leaves the network.
    pub(crate) fn power_cut(&mut self, sh: &mut Shared, now: SimTime) {
        if !self.failed {
            // Only a living member holds load-table reservations.
            for (_, e) in self.services.iter() {
                self.release_load(sh, e);
            }
        }
        self.failed = true;
        for d in &mut self.disks {
            d.fail(now);
        }
        self.services.clear();
        self.reset_viewer_state(false);
        self.pool.reset();
        let node = sh.cub_node(self.id);
        sh.net.fail_node(node);
    }

    /// Restarts a power-cut or fenced cub with empty schedule state. The
    /// disk contents (index, space maps) survive the crash — only the
    /// in-memory schedule is gone, which is the paper's point: "a cub can
    /// be rebooted... and rejoin" because the bounded view rebuilds from
    /// the ring. Everything protocol-visible is reset; the node comes
    /// back, the rejoin is announced (`RingDriver::rejoin`) and the
    /// chains are armed afresh.
    pub(crate) fn restart(&mut self, sh: &mut Shared, now: SimTime) {
        let (striped, node) = (sh.cfg.stripe.num_cubs, sh.cub_node(self.id));
        sh.net.revive_node(now, node);
        self.failed = false;
        for d in &mut self.disks {
            d.revive(now);
        }
        self.services.clear();
        self.reset_viewer_state(false);
        self.cache_resident.clear();
        self.pool.reset();
        self.ins.reset();
        self.rejoined_at = Some(now);
        // A restarted process knows nothing about who is down; it assumes
        // the full striped ring is alive (spares stay marked failed — they
        // are not ring members) and learns real failures from RejoinAcks.
        // Receivers clear their failure belief and re-baseline deadman
        // monitoring; ring neighbours answer with their own belief lists
        // (bounded-view exchange) and the covering mirror partner opens
        // its hand-back window.
        Driver { cub: self, sh, now }.rejoin(now, striped);
        self.arm_periodic(sh, now, false);
    }
}

#[cfg(test)]
mod tests {
    use tiger_faults::FaultPlan;
    use tiger_layout::CubId;
    use tiger_sim::SimTime;

    use crate::event::Event;
    use crate::{TigerConfig, TigerSystem};

    /// The cub the cases drive: on the idle 4-cub test ring, its passes
    /// fall at 0.625 s + k × 0.5 s, its pings at 0.126 s + k × 0.5 s and
    /// its checks at 2.125 s + k × 0.5 s.
    const C1: CubId = CubId(1);

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Invariant 9, one periodic chain per living cub: with nothing else
    /// scheduling cub 1's periodic work, the queue holds exactly one
    /// forward pass, one ping and one check for it, each at its chain's
    /// due time. Drains the queue.
    fn assert_one_chain_each(mut sys: TigerSystem, case: &str) {
        let c = &sys.cubs[C1.index()];
        let due = [
            c.next_forward_pass,
            c.next_deadman_ping,
            c.next_deadman_check,
        ];
        let mut queued: [Vec<SimTime>; 3] = Default::default();
        while let Some((at, ev)) = sys.shared.queue.pop() {
            match ev {
                Event::ForwardPass { cub: C1 } => queued[0].push(at),
                Event::DeadmanPing { cub: C1 } => queued[1].push(at),
                Event::DeadmanCheck { cub: C1 } => queued[2].push(at),
                _ => {}
            }
        }
        assert_eq!(queued, due.map(|d| vec![d]), "{case}: pass, ping, check");
    }

    #[test]
    fn one_periodic_chain_per_living_cub() {
        let one_shot = |sys: &mut TigerSystem, at| {
            sys.shared
                .queue
                .schedule(at, Event::ForwardPass { cub: C1 });
        };
        // One-shot passes before the chain's 1.125 s pass and after it:
        // both run, neither starts a second chain.
        let mut sys = TigerSystem::new(TigerConfig::small_test());
        one_shot(&mut sys, ms(1_000));
        one_shot(&mut sys, ms(1_200));
        sys.run_until(ms(1_300));
        assert_eq!(sys.cubs[C1.index()].next_forward_pass, ms(1_625));
        assert_one_chain_each(sys, "one-shot passes");

        // A freeze parks the 1.125 s pass and the 1.126 s ping to 1.3 s:
        // each still belongs to its chain, which goes on from there.
        let mut sys = TigerSystem::new(TigerConfig::small_test());
        let plan = FaultPlan::parse("freeze c1 from=1100ms until=1300ms");
        sys.apply_fault_plan(&plan.expect("plan parses"));
        sys.run_until(ms(1_400));
        let c = &sys.cubs[C1.index()];
        assert_eq!(
            (c.next_forward_pass, c.next_deadman_ping),
            (ms(1_800), ms(1_800))
        );
        assert_one_chain_each(sys, "a parked pass");

        // A restart 100 ms after a power cut: the previous life's pass,
        // ping and check at 10.125 s and 10.126 s find the new chains due
        // at 10.6 s and 12.1 s. The pass runs as a one-shot; the ping and
        // check die.
        let mut sys = TigerSystem::new(TigerConfig::small_test());
        sys.fail_cub_at(ms(10_000), C1);
        sys.restart_cub_at(ms(10_100), C1);
        sys.run_until(ms(10_200));
        let c = &sys.cubs[C1.index()];
        let due = [
            c.next_forward_pass,
            c.next_deadman_ping,
            c.next_deadman_check,
        ];
        assert_eq!(due, [ms(10_600), ms(10_600), ms(12_100)]);
        assert_one_chain_each(sys, "a sub-interval restart");
    }
}
