//! Multiple-bitrate insertion (§4.2) run as a *distributed* system: the
//! DES driver of one [`ReserveMachine`] a cub (`tiger_proto::reserve`
//! describes the protocol), over the event queue and the latency-bearing
//! FIFO network. The `ablation_mbr` bench measures the paper's claim that
//! the reserve round trip hides behind the speculative first-block read.
//! An omniscient observer applies every commit to a reference schedule
//! and counts each one that overcommits the NIC there.

use tiger_layout::ids::ViewerInstance;
use tiger_layout::ViewerId;
use tiger_net::{LatencyModel, NetNode, Network};
use tiger_proto::reserve::{Outcome, ReserveMachine, ReserveMsg, Wake};
use tiger_sched::NetworkSchedule;
use tiger_sim::{Bandwidth, EventQueue, RngTree, SimDuration, SimRng, SimTime};

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

const MSG_BYTES: u64 = 64;

/// Events of the MBR simulation: a message for a cub, an attempt's wake
/// at its origin, and an origin's request.
#[derive(Clone, Debug)]
enum MbrEvent {
    Deliver(u32, ReserveMsg),
    Wake(u32, ViewerInstance, Wake),
    Request(u32, Bandwidth),
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

/// The distributed multiple-bitrate schedule manager.
pub struct MbrSystem {
    queue: EventQueue<MbrEvent>,
    net: Network,
    cubs: Vec<ReserveMachine>,
    /// The omniscient reference schedule: all committed entries.
    reference: NetworkSchedule,
    stats: MbrDistStats,
    next_instance: u64,
    rng: SimRng,
}

impl MbrSystem {
    /// Builds an idle ring; an insertion must resolve within `deadline`
    /// (the scheduling lead).
    pub fn new(cfg: MbrConfig, deadline: SimDuration) -> Self {
        let rng_tree = RngTree::new(SEED);
        let ring =
            || NetworkSchedule::new(NUM_CUBS, BLOCK_PLAY_TIME, cfg.nic_capacity, Some(QUANTUM));
        let net_rng = rng_tree.fork("mbr-net", 0);
        MbrSystem {
            queue: EventQueue::new(),
            net: Network::new(NUM_CUBS, cfg.nic_capacity, cfg.latency, net_rng),
            cubs: (0..NUM_CUBS)
                .map(|me| ReserveMachine::new(me, ring(), deadline))
                .collect(),
            reference: ring(),
            stats: MbrDistStats::default(),
            next_instance: 0,
            rng: rng_tree.fork("mbr-sys", 0),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> MbrDistStats {
        self.stats
    }

    /// The view of `cub` (for convergence checks).
    pub fn view(&self, cub: u32) -> &NetworkSchedule {
        self.cubs[cub as usize].view()
    }

    /// Total control bytes sent by `cub`.
    pub fn control_bytes(&self, cub: u32) -> u64 {
        self.net.total_control_bytes(NetNode(cub))
    }

    /// Schedules an insertion request at `at` from `origin`.
    pub fn request_insert(&mut self, at: SimTime, origin: u32, rate: Bandwidth) {
        self.queue.schedule(at, MbrEvent::Request(origin, rate));
    }

    /// Runs until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((now, ev)) = self.queue.pop_until(horizon) {
            self.dispatch(now, ev);
        }
    }

    fn send(&mut self, now: SimTime, src: u32, (dst, msg): (u32, ReserveMsg)) {
        let sent = self
            .net
            .send_control(now, NetNode(src), NetNode(dst), MSG_BYTES);
        if let Some(at) = sent.at {
            self.queue.schedule(at, MbrEvent::Deliver(dst, msg));
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: MbrEvent) {
        for cub in &mut self.cubs {
            cub.sweep(now);
        }
        let (cub, step) = match ev {
            MbrEvent::Request(origin, rate) => return self.on_request(now, origin, rate),
            MbrEvent::Wake(cub, i, wake) => (cub, self.cubs[cub as usize].wake(now, i, wake)),
            MbrEvent::Deliver(cub, msg) => (cub, self.cubs[cub as usize].on_message(now, msg)),
        };
        if let Some(outcome) = step.outcome {
            self.tally(outcome);
        }
        if let Some(send) = step.send {
            self.send(now, cub, send);
        }
    }

    fn on_request(&mut self, now: SimTime, origin: u32, rate: Bandwidth) {
        let instance = ViewerInstance {
            viewer: ViewerId(self.next_instance),
            incarnation: 0,
        };
        self.next_instance += 1;
        let cub = &mut self.cubs[origin as usize];
        let entry = match cub.fit(now, instance, rate) {
            Ok(entry) => entry,
            Err(outcome) => return self.tally(outcome),
        };
        let read_time = SimDuration::from_nanos(
            (FIRST_READ.as_nanos() as f64 * self.rng.gen_range(0.7..1.3)) as u64,
        );
        let begun = cub.begin(now, entry, read_time);
        for (at, wake) in begun.wakes {
            self.queue
                .schedule(at, MbrEvent::Wake(origin, instance, wake));
        }
        self.send(now, origin, begun.send);
    }

    fn tally(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Committed { entry: e, hidden } => {
                self.stats.committed += 1;
                self.stats.hidden_confirms += u64::from(hidden);
                // Omniscient reference: committed entries must always fit.
                let fits = self.reference.insert(e.instance, e.start, e.rate, false);
                self.stats.violations += u64::from(fits.is_err());
            }
            Outcome::Aborted => self.stats.aborted += 1,
            Outcome::RejectedLocal => self.stats.rejected_local += 1,
        }
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
