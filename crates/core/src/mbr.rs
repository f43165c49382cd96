//! Multiple-bitrate insertion: the two-phase reservation protocol of
//! §4.2, run as a *distributed* system over the event queue and the
//! switched network.
//!
//! In the multiple-bitrate Tiger, schedule entries are one block play time
//! wide, and cubs are exactly one block play time apart in the schedule —
//! so no single cub ever has exclusive ownership of the span an insertion
//! needs, and the single-bitrate ownership trick cannot work. Instead:
//!
//! 1. the originating cub checks its local view, tentatively inserts,
//!    **starts the first-block disk read speculatively**, and sends a
//!    reserve request to its successor over the (latency-bearing, FIFO)
//!    network;
//! 2. the successor checks *its* view — which may hold reservations the
//!    originator cannot see — records a reservation, and replies;
//! 3. if the positive reply arrives before the deadline (the scheduling
//!    lead budget), the originator commits and floods a commit notice
//!    around the ring so every view converges; the successor's reservation
//!    becomes a real entry. Otherwise the originator aborts, releases the
//!    reservation, and the disk read is wasted.
//!
//! Because the disk read and the round trip overlap, "there will almost
//! always be time for the communication with the succeeding cub without
//! having to increase the scheduling lead value" — the `ablation_mbr`
//! bench measures exactly that.
//!
//! An omniscient observer applies every commit to a reference schedule and
//! checks that the distributed views never overcommit the NIC anywhere —
//! the coherent-hallucination condition for the 2-D schedule.

use tiger_layout::ids::ViewerInstance;
use tiger_layout::ViewerId;
use tiger_net::{LatencyModel, NetNode, Network};
use tiger_sched::{NetEntryId, NetworkSchedule};
use tiger_sim::{Bandwidth, DetHashMap, EventQueue, RngTree, SimDuration, SimRng, SimTime};

/// Cubs in the ring.
const NUM_CUBS: u32 = 14;
/// Block play time: the width of a schedule entry.
const BLOCK_PLAY_TIME: SimDuration = SimDuration::from_secs(1);
/// Start-position quantum, `block_play_time / decluster` (§3.2).
const QUANTUM: SimDuration = SimDuration::from_millis(250);
/// Time to read a first block from disk (the speculative read).
const FIRST_READ: SimDuration = SimDuration::from_millis(60);
/// The ring's RNG seed.
const SEED: u64 = 42;

/// Configuration of a multiple-bitrate schedule ring: 14 cubs, 1 s
/// entries, starts quantized at bpt/4, a 60 ms first read.
#[derive(Clone, Debug)]
pub struct MbrConfig {
    /// NIC capacity (schedule height).
    pub nic_capacity: Bandwidth,
    /// Control latency between cubs.
    pub latency: LatencyModel,
}

impl MbrConfig {
    /// A testbed-like default: 135 Mbit/s NICs on a LAN.
    pub fn default_ring() -> Self {
        MbrConfig {
            nic_capacity: Bandwidth::from_mbit_per_sec(135),
            latency: LatencyModel::lan_default(),
        }
    }
}

/// Messages of the two-phase insertion protocol. The viewer instance
/// names the attempt end to end: the reservation at the successor, the
/// pending insertion at the originator, and the committed entry.
#[derive(Clone, Debug)]
enum MbrMsg {
    Reserve {
        instance: ViewerInstance,
        start: SimDuration,
        rate: Bandwidth,
    },
    ReserveReply {
        instance: ViewerInstance,
        ok: bool,
    },
    Commit {
        instance: ViewerInstance,
        start: SimDuration,
        rate: Bandwidth,
        hops_left: u32,
    },
    Release {
        instance: ViewerInstance,
    },
}

const MSG_BYTES: u64 = 64;

/// Events of the MBR simulation.
#[derive(Clone, Debug)]
enum MbrEvent {
    Deliver {
        dst: u32,
        msg: MbrMsg,
    },
    ReadDone {
        origin: u32,
        instance: ViewerInstance,
    },
    Deadline {
        origin: u32,
        instance: ViewerInstance,
    },
    Request {
        origin: u32,
        rate: Bandwidth,
    },
}

/// Outcome statistics of a distributed MBR run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MbrDistStats {
    /// Insertions committed.
    pub committed: u64,
    /// Insertions aborted (successor refusal or deadline miss).
    pub aborted: u64,
    /// Insertions rejected by the local view alone.
    pub rejected_local: u64,
    /// Commits whose reserve round trip finished before the speculative
    /// disk read (fully hidden latency).
    pub hidden_confirms: u64,
    /// Capacity violations found by the omniscient observer (must be 0).
    pub violations: u64,
}

/// One in-flight two-phase insertion at its originating cub.
#[derive(Clone, Copy, Debug)]
struct Pending {
    entry: NetEntryId,
    start: SimDuration,
    rate: Bandwidth,
    /// When the speculative first-block read finished.
    read_done_at: Option<SimTime>,
    /// The successor's answer and when it arrived.
    reply: Option<(bool, SimTime)>,
    deadline: SimTime,
}

/// Per-cub state.
struct MbrCub {
    view: NetworkSchedule,
    /// Reservations held on behalf of the predecessor.
    held: DetHashMap<ViewerInstance, NetEntryId>,
    /// Insertions this cub originated and has not yet resolved.
    pending: DetHashMap<ViewerInstance, Pending>,
}

/// The distributed multiple-bitrate schedule manager.
pub struct MbrSystem {
    queue: EventQueue<MbrEvent>,
    net: Network,
    cubs: Vec<MbrCub>,
    /// The omniscient reference schedule: all committed entries.
    reference: NetworkSchedule,
    stats: MbrDistStats,
    next_instance: u64,
    rng: SimRng,
    /// The insertion deadline budget (scheduling lead).
    deadline: SimDuration,
}

impl MbrSystem {
    /// Builds an idle ring.
    pub fn new(cfg: MbrConfig, deadline: SimDuration) -> Self {
        let rng_tree = RngTree::new(SEED);
        let make_sched =
            || NetworkSchedule::new(NUM_CUBS, BLOCK_PLAY_TIME, cfg.nic_capacity, Some(QUANTUM));
        MbrSystem {
            queue: EventQueue::new(),
            net: Network::new(
                NUM_CUBS,
                cfg.nic_capacity,
                cfg.latency,
                rng_tree.fork("mbr-net", 0),
            ),
            cubs: (0..NUM_CUBS)
                .map(|_| MbrCub {
                    view: make_sched(),
                    held: DetHashMap::default(),
                    pending: DetHashMap::default(),
                })
                .collect(),
            reference: make_sched(),
            stats: MbrDistStats::default(),
            next_instance: 0,
            rng: rng_tree.fork("mbr-sys", 0),
            deadline,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MbrDistStats {
        self.stats
    }

    /// The view of `cub` (for convergence checks).
    pub fn view(&self, cub: u32) -> &NetworkSchedule {
        &self.cubs[cub as usize].view
    }

    /// Total control bytes sent by `cub`.
    pub fn control_bytes(&self, cub: u32) -> u64 {
        self.net.total_control_bytes(NetNode(cub))
    }

    /// Schedules an insertion request at `at` from `origin`.
    pub fn request_insert(&mut self, at: SimTime, origin: u32, rate: Bandwidth) {
        self.queue.schedule(at, MbrEvent::Request { origin, rate });
    }

    /// Runs until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((now, ev)) = self.queue.pop_until(horizon) {
            self.dispatch(now, ev);
        }
    }

    fn send(&mut self, now: SimTime, src: u32, dst: u32, msg: MbrMsg) {
        let sent = self
            .net
            .send_control(now, NetNode(src), NetNode(dst), MSG_BYTES);
        if let Some(at) = sent.at {
            self.queue.schedule(at, MbrEvent::Deliver { dst, msg });
        }
    }

    fn succ(&self, cub: u32) -> u32 {
        (cub + 1) % NUM_CUBS
    }

    /// The reservation-expiry backstop: a tentative entry that has not
    /// been committed or released this long after it was made is assumed
    /// leaked (its originator died or the release was lost) and swept, so
    /// it cannot pin NIC capacity forever. Far beyond any legitimate
    /// round trip, so fault-free runs never trigger it.
    fn reservation_backstop(&self) -> SimDuration {
        self.deadline.mul_u64(4)
    }

    /// Sweeps expired reservations out of every view (and out of the
    /// successor-side `held` maps) before handling an event.
    fn sweep_expired(&mut self, now: SimTime) {
        for cub in &mut self.cubs {
            if cub.view.expire_reservations(now) > 0 {
                let MbrCub { view, held, .. } = cub;
                held.retain(|_, entry| view.contains_entry(*entry));
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: MbrEvent) {
        self.sweep_expired(now);
        match ev {
            MbrEvent::Request { origin, rate } => self.on_request(now, origin, rate),
            MbrEvent::ReadDone { origin, instance } => {
                if let Some(p) = self.cubs[origin as usize].pending.get_mut(&instance) {
                    p.read_done_at = Some(now);
                }
                self.try_resolve(now, origin, instance);
            }
            // "If a cub … doesn't receive a response from the succeeding
            // cub in time, it will abort the tentative schedule insertion
            // and stop the disk I/O." A no-op once the attempt resolved.
            MbrEvent::Deadline { origin, instance } => self.abort(now, origin, instance),
            MbrEvent::Deliver { dst, msg } => self.on_message(now, dst, msg),
        }
    }

    /// Cub `cub`'s position on the network-schedule ring at `t` (pointers
    /// are one block play time apart, as on the disk schedule).
    fn ring_position(&self, cub: u32, t: SimTime) -> SimDuration {
        let l = self.cubs[cub as usize].view.len_duration().as_nanos();
        let lag = (BLOCK_PLAY_TIME.as_nanos() as u128 * u128::from(cub) % u128::from(l)) as u64;
        SimDuration::from_nanos(((t.as_nanos() % l) + l - lag) % l)
    }

    fn on_request(&mut self, now: SimTime, origin: u32, rate: Bandwidth) {
        let instance = ViewerInstance {
            viewer: ViewerId(self.next_instance),
            incarnation: 0,
        };
        self.next_instance += 1;
        // Phase 0: "it first checks its local copy of the schedule to see
        // if it can rule out the insertion". The candidate start positions
        // are pinned to where this cub's pointer will be when the stream
        // must begin — this is what makes consulting only the *one*
        // succeeding cub sufficient: entries of cubs two or more apart can
        // never overlap, and adjacent cubs' conflicts are caught by the
        // successor's reservation check.
        let view = &self.cubs[origin as usize].view;
        let l = view.len_duration().as_nanos();
        let q = QUANTUM.as_nanos();
        // The pointer rounded up to the grid; one block play time of
        // candidates from there, wrapping at the ring end.
        let first = self
            .ring_position(origin, now + self.deadline)
            .as_nanos()
            .div_ceil(q)
            * q;
        let start = (0..BLOCK_PLAY_TIME.as_nanos().div_ceil(q))
            .map(|k| SimDuration::from_nanos((first + k * q) % l))
            .find(|&candidate| view.fits(candidate, rate));
        let Some(start) = start else {
            self.stats.rejected_local += 1;
            return;
        };
        // Phase 1: tentative insert + speculative read + reserve request.
        // The expiry is pure defense in depth — the deadline event always
        // resolves the attempt long before the backstop.
        let backstop = now + self.reservation_backstop();
        let entry = self.cubs[origin as usize]
            .view
            .insert_with_expiry(instance, start, rate, true, Some(backstop))
            .expect("admissible start fits the local view");
        let read_time = SimDuration::from_nanos(
            (FIRST_READ.as_nanos() as f64 * self.rng.gen_range(0.7..1.3)) as u64,
        );
        let deadline = now + self.deadline;
        self.queue
            .schedule(now + read_time, MbrEvent::ReadDone { origin, instance });
        self.queue
            .schedule(deadline, MbrEvent::Deadline { origin, instance });
        self.cubs[origin as usize].pending.insert(
            instance,
            Pending {
                entry,
                start,
                rate,
                read_done_at: None,
                reply: None,
                deadline,
            },
        );
        self.send(
            now,
            origin,
            self.succ(origin),
            MbrMsg::Reserve {
                instance,
                start,
                rate,
            },
        );
    }

    fn on_message(&mut self, now: SimTime, me: u32, msg: MbrMsg) {
        match msg {
            MbrMsg::Reserve {
                instance,
                start,
                rate,
            } => {
                // If the originator dies before committing or releasing,
                // the expiry backstop reclaims the reservation.
                let backstop = now + self.reservation_backstop();
                let cub = &mut self.cubs[me as usize];
                let ok = cub.view.fits(start, rate);
                if ok {
                    let entry = cub
                        .view
                        .insert_with_expiry(instance, start, rate, true, Some(backstop))
                        .expect("fits just checked");
                    cub.held.insert(instance, entry);
                }
                // Reply to the predecessor (the originator).
                let pred = (me + NUM_CUBS - 1) % NUM_CUBS;
                self.send(now, me, pred, MbrMsg::ReserveReply { instance, ok });
            }
            MbrMsg::ReserveReply { instance, ok } => {
                if let Some(p) = self.cubs[me as usize].pending.get_mut(&instance) {
                    p.reply = Some((ok, now));
                }
                self.try_resolve(now, me, instance);
            }
            MbrMsg::Commit {
                instance,
                start,
                rate,
                hops_left,
            } => {
                let cub = &mut self.cubs[me as usize];
                // The successor replaces its reservation with a real entry.
                // Every other cub learns of the commit and adds it — as
                // does a successor whose reservation lost the race against
                // the expiry backstop — unless the flood has lapped back
                // to a cub that knows. Views are kept consistent by commit
                // flooding, so a committed entry always fits here too.
                let reserved = cub
                    .held
                    .remove(&instance)
                    .is_some_and(|entry| cub.view.commit(entry).is_ok());
                if !reserved && !cub.view.has_instance(instance) {
                    let _ = cub.view.insert(instance, start, rate, false);
                }
                if let Some(hops_left) = hops_left.checked_sub(1) {
                    let onward = MbrMsg::Commit {
                        instance,
                        start,
                        rate,
                        hops_left,
                    };
                    self.send(now, me, self.succ(me), onward);
                }
            }
            MbrMsg::Release { instance } => {
                let cub = &mut self.cubs[me as usize];
                if let Some(entry) = cub.held.remove(&instance) {
                    let _ = cub.view.abort(entry);
                }
            }
        }
    }

    /// Commits or aborts once both the read and the reply are in.
    fn try_resolve(&mut self, now: SimTime, origin: u32, instance: ViewerInstance) {
        let cub = &mut self.cubs[origin as usize];
        let Some(&p) = cub.pending.get(&instance) else {
            return;
        };
        let (Some(read_at), Some((ok, reply_at))) = (p.read_done_at, p.reply) else {
            return;
        };
        if !ok || now > p.deadline {
            return self.abort(now, origin, instance);
        }
        cub.pending.remove(&instance);
        cub.view.commit(p.entry).expect("tentative entry exists");
        self.stats.committed += 1;
        if reply_at <= read_at {
            self.stats.hidden_confirms += 1;
        }
        // Omniscient reference: committed entries must always fit.
        if self
            .reference
            .insert(instance, p.start, p.rate, false)
            .is_err()
        {
            self.stats.violations += 1;
        }
        // Flood the commit around the ring (everyone's view converges).
        self.send(
            now,
            origin,
            self.succ(origin),
            MbrMsg::Commit {
                instance,
                start: p.start,
                rate: p.rate,
                hops_left: NUM_CUBS - 1,
            },
        );
    }

    fn abort(&mut self, now: SimTime, origin: u32, instance: ViewerInstance) {
        let Some(p) = self.cubs[origin as usize].pending.remove(&instance) else {
            return;
        };
        let _ = self.cubs[origin as usize].view.abort(p.entry);
        self.stats.aborted += 1;
        self.send(now, origin, self.succ(origin), MbrMsg::Release { instance });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> MbrSystem {
        MbrSystem::new(MbrConfig::default_ring(), SimDuration::from_millis(700))
    }

    fn mbit(n: u64) -> Bandwidth {
        Bandwidth::from_mbit_per_sec(n)
    }

    #[test]
    fn insertions_commit_over_the_wire() {
        let mut sys = ring();
        for i in 0..40u64 {
            sys.request_insert(SimTime::from_millis(i * 100), (i % 14) as u32, mbit(2));
        }
        sys.run_until(SimTime::from_secs(20));
        let stats = sys.stats();
        assert_eq!(stats.committed, 40, "{stats:?}");
        assert_eq!(stats.violations, 0);
        assert_eq!(stats.aborted, 0);
        // Views converge: every cub sees all 40 entries.
        for cub in 0..14 {
            assert_eq!(sys.view(cub).len(), 40, "cub {cub} view incomplete");
        }
    }

    #[test]
    fn lan_latency_is_hidden_behind_the_read() {
        let mut sys = ring();
        for i in 0..60u64 {
            sys.request_insert(SimTime::from_millis(i * 200), (i % 14) as u32, mbit(2));
        }
        sys.run_until(SimTime::from_secs(30));
        let stats = sys.stats();
        assert_eq!(stats.committed, 60);
        // ~60 ms read vs 4-20 ms round trip: almost always hidden (§4.2).
        assert!(
            stats.hidden_confirms as f64 / stats.committed as f64 > 0.9,
            "{stats:?}"
        );
    }

    #[test]
    fn slow_network_aborts_and_releases() {
        let mut cfg = MbrConfig::default_ring();
        cfg.latency = LatencyModel::fixed(SimDuration::from_millis(500));
        let mut sys = MbrSystem::new(cfg, SimDuration::from_millis(700));
        sys.request_insert(SimTime::ZERO, 0, mbit(2));
        sys.run_until(SimTime::from_secs(5));
        let stats = sys.stats();
        assert_eq!(stats.aborted, 1, "{stats:?}");
        assert_eq!(stats.committed, 0);
        // Both the tentative entry and the reservation were released.
        assert_eq!(sys.view(0).len(), 0);
        assert_eq!(sys.view(1).len(), 0);
    }

    #[test]
    fn concurrent_insertions_never_overcommit() {
        // A storm of concurrent insertions from every cub against a small
        // NIC: successor reservations must serialize what local views
        // cannot see; the reference schedule (checked on every commit)
        // catches any overcommit.
        let mut cfg = MbrConfig::default_ring();
        cfg.nic_capacity = mbit(8);
        let mut sys = MbrSystem::new(cfg, SimDuration::from_millis(700));
        for i in 0..200u64 {
            sys.request_insert(SimTime::from_millis(i * 7), (i % 14) as u32, mbit(2));
        }
        sys.run_until(SimTime::from_secs(60));
        let stats = sys.stats();
        assert_eq!(stats.violations, 0, "{stats:?}");
        // 8 Mbit/s × 14 s ring / (2 Mbit/s × 1 s) = 56 streams max.
        assert!(stats.committed <= 56, "{stats:?}");
        assert!(stats.committed >= 40, "storm should mostly fill: {stats:?}");
        assert_eq!(stats.committed + stats.aborted + stats.rejected_local, 200);
    }

    #[test]
    fn full_ring_rejects_locally() {
        // The exact-capacity claim: 4 Mbit/s × 14 s ring / (2 Mbit/s ×
        // 1 s entries) = 28 streams, and every request past the 28th is
        // ruled out by the originator's own view. The 500 ms spacing
        // matters: candidates are pinned to the originator's pointer
        // window, and round-robin origins one block play time apart
        // requested 1000 ms apart would all land on the *same* window,
        // where only 2 fit — the pinning at work, not a shortfall.
        let mut cfg = MbrConfig::default_ring();
        cfg.nic_capacity = mbit(4);
        let mut sys = MbrSystem::new(cfg, SimDuration::from_millis(700));
        for i in 0..200u64 {
            sys.request_insert(SimTime::from_millis(i * 500), (i % 14) as u32, mbit(2));
        }
        sys.run_until(SimTime::from_secs(110));
        let stats = sys.stats();
        assert_eq!(stats.committed, 28, "{stats:?}");
        assert_eq!(stats.rejected_local, 172, "{stats:?}");
        assert_eq!((stats.aborted, stats.violations), (0, 0), "{stats:?}");
        for cub in 0..14 {
            assert_eq!(sys.view(cub).len(), 28, "cub {cub}");
        }
    }

    #[test]
    fn leaked_reservation_expires_instead_of_pinning_capacity() {
        // The originator reserves at its successor, then drops off the
        // network before it can commit or release. Without the expiry
        // backstop the successor's reservation would pin 2 Mbit/s of NIC
        // capacity forever.
        let mut cfg = MbrConfig::default_ring();
        cfg.latency = LatencyModel::fixed(SimDuration::from_millis(100));
        let mut sys = MbrSystem::new(cfg, SimDuration::from_millis(700));
        sys.request_insert(SimTime::ZERO, 0, mbit(2));
        // Let the request dispatch (the reserve message is now in flight),
        // then sever the originator from the network: the reply and any
        // release are lost.
        sys.run_until(SimTime::from_millis(1));
        sys.net.fail_node(NetNode(0));
        sys.run_until(SimTime::from_secs(2));
        let inst = ViewerInstance {
            viewer: ViewerId(0),
            incarnation: 0,
        };
        // The successor holds the leaked reservation (reserve arrived at
        // 100 ms; the originator's own deadline abort at 700 ms could not
        // reach it).
        assert!(sys.view(1).has_instance(inst), "reservation was made");
        assert_eq!(sys.stats().aborted, 1);
        // Any later event past the backstop (4 × 700 ms after the reserve)
        // sweeps it; an unrelated insertion provides the tick.
        sys.request_insert(SimTime::from_secs(4), 7, mbit(2));
        sys.run_until(SimTime::from_secs(6));
        assert!(
            !sys.view(1).has_instance(inst),
            "leaked reservation should have expired"
        );
        assert_eq!(sys.stats().committed, 1, "later insertion unaffected");
        assert_eq!(sys.stats().violations, 0);
    }
}
