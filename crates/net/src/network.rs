//! The switched network: nodes, ordered control channels, and NICs.

use tiger_faults::{NetFaults, NetPerturb};
use tiger_sim::{Bandwidth, Counter, DetHashMap, SimDuration, SimRng, SimTime};

use crate::latency::LatencyModel;
use crate::nic::Nic;

/// A node attached to the switched network (controller, cub, or client);
/// ids are assigned by the system builder.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NetNode(pub u32);

impl NetNode {
    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a usize for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Errors from network operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The referenced node id was never registered.
    UnknownNode(NetNode),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown network node {n}"),
        }
    }
}

impl std::error::Error for NetError {}

/// What became of one send: when it arrives, and what fault injection did
/// to it on the way (see [`NetFaults::verdict`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sent {
    /// Delivery time; `None` when the message vanished (a failed endpoint
    /// or an injected drop).
    pub at: Option<SimTime>,
    /// Delivery time of an injected duplicate (control messages only).
    pub dup_at: Option<SimTime>,
    /// The injection applied: a drop, or an extra delay and duplication.
    pub perturb: Option<NetPerturb>,
}

/// The switched network connecting all machines.
///
/// Control messages get per-pair FIFO (TCP-like) delivery with sampled
/// latency; stream data occupies the sender's NIC at the stream rate. A
/// failed node neither sends nor receives ("cub 3 is failed, and neither
/// sends nor receives any messages", Figure 5).
#[derive(Debug)]
pub struct Network {
    latency: LatencyModel,
    rng: SimRng,
    nics: Vec<Nic>,
    failed: Vec<bool>,
    /// Last delivery time per ordered (src, dst) pair, enforcing FIFO.
    last_delivery: DetHashMap<(NetNode, NetNode), SimTime>,
    /// Per-sender control-message bytes (the Figures 8/9 right-axis metric).
    control_bytes: Vec<Counter>,
    control_msgs: Vec<Counter>,
    /// Fault injector; disabled (one pointer test per send) by default.
    faults: NetFaults,
}

impl Network {
    /// Creates a network with `nodes` nodes, each with a NIC of
    /// `nic_capacity`, a shared latency model, and a dedicated RNG stream.
    pub fn new(nodes: u32, nic_capacity: Bandwidth, latency: LatencyModel, rng: SimRng) -> Self {
        Network {
            latency,
            rng,
            nics: (0..nodes).map(|_| Nic::new(nic_capacity)).collect(),
            failed: vec![false; nodes as usize],
            last_delivery: DetHashMap::default(),
            control_bytes: (0..nodes).map(|_| Counter::new()).collect(),
            control_msgs: (0..nodes).map(|_| Counter::new()).collect(),
            faults: NetFaults::disabled(),
        }
    }

    /// Installs a compiled fault injector (replacing the disabled
    /// default). The injector draws from its own RNG stream, so
    /// installing a disabled one is exactly the no-faults network.
    pub fn set_faults(&mut self, faults: NetFaults) {
        self.faults = faults;
    }

    /// Number of registered nodes.
    pub fn num_nodes(&self) -> u32 {
        self.nics.len() as u32
    }

    /// Marks a node failed: it will neither send nor receive from now on.
    pub fn fail_node(&mut self, node: NetNode) {
        self.failed[node.index()] = true;
    }

    /// Whether a node is failed.
    pub fn is_failed(&self, node: NetNode) -> bool {
        self.failed[node.index()]
    }

    /// Revives a failed node: it may send and receive again. Any paced
    /// stream sends that were in flight at the failure never ended, so
    /// the node's NIC reservation state is cleared too.
    pub fn revive_node(&mut self, now: SimTime, node: NetNode) {
        self.failed[node.index()] = false;
        self.nics[node.index()].reset_active(now);
    }

    /// Sends a control message of `bytes` from `src` to `dst` at `now`.
    ///
    /// The message vanishes (no delivery time) if either endpoint is
    /// failed, as with a crashed machine, or if fault injection drops it.
    /// Delivery is FIFO per (src, dst): a message never overtakes an
    /// earlier one on the same channel, an injected duplicate included.
    pub fn send_control(&mut self, now: SimTime, src: NetNode, dst: NetNode, bytes: u64) -> Sent {
        debug_assert!(src.index() < self.nics.len() && dst.index() < self.nics.len());
        if self.failed[src.index()] || self.failed[dst.index()] {
            return Sent::default();
        }
        // Metering happens before injection: a dropped message was still
        // sent and paid for at the sender.
        self.control_bytes[src.index()].add(bytes);
        self.control_msgs[src.index()].incr();
        let perturb = self.faults.verdict(now, src.raw(), dst.raw());
        let (extra, duplicate) = match perturb {
            Some(NetPerturb::Drop { .. }) => {
                return Sent {
                    perturb,
                    ..Sent::default()
                }
            }
            Some(NetPerturb::Tweak { extra, duplicate }) => (extra, duplicate),
            None => (SimDuration::ZERO, false),
        };
        let model = self.latency.skewed(extra);
        let sampled = now + model.sample(&mut self.rng);
        let at = Some(self.fifo_clamp(src, dst, sampled));
        // The copy is a fresh send on the same channel: own latency
        // sample, FIFO-clamped behind the original.
        let dup_at = duplicate.then(|| {
            let sampled = now + model.sample(&mut self.rng);
            self.fifo_clamp(src, dst, sampled)
        });
        Sent {
            at,
            dup_at,
            perturb,
        }
    }

    /// FIFO per (src, dst): never deliver before (or at the same instant
    /// as) the previous message on this channel.
    fn fifo_clamp(&mut self, src: NetNode, dst: NetNode, sampled: SimTime) -> SimTime {
        let entry = self
            .last_delivery
            .entry((src, dst))
            .or_insert(SimTime::ZERO);
        let delivery = if sampled > *entry {
            sampled
        } else {
            *entry + SimDuration::from_nanos(1)
        };
        *entry = delivery;
        delivery
    }

    /// Sends a data-plane payload (stream data) from `src` to `dst`:
    /// latency is sampled but the message is *not* counted as control
    /// traffic and needs no FIFO guarantee. It vanishes if either endpoint
    /// is failed or fault injection drops it.
    pub fn send_data(&mut self, now: SimTime, src: NetNode, dst: NetNode) -> Sent {
        if self.failed[src.index()] || self.failed[dst.index()] {
            return Sent::default();
        }
        // Fault injection applies drops and delays to the data plane but
        // never duplication: a double-delivered block must stay provably
        // a protocol bug, not an injected one.
        let mut perturb = self.faults.verdict(now, src.raw(), dst.raw());
        let extra = match &mut perturb {
            Some(NetPerturb::Drop { .. }) => {
                return Sent {
                    perturb,
                    ..Sent::default()
                }
            }
            Some(NetPerturb::Tweak { extra, duplicate }) => {
                *duplicate = false;
                *extra
            }
            None => SimDuration::ZERO,
        };
        let at = Some(now + self.latency.skewed(extra).sample(&mut self.rng));
        Sent {
            at,
            dup_at: None,
            perturb,
        }
    }

    /// Begins a paced stream send from `src`; returns `false` on overcommit
    /// or if the sender is failed.
    pub fn begin_stream(&mut self, now: SimTime, src: NetNode, rate: Bandwidth) -> bool {
        if self.failed[src.index()] {
            return false;
        }
        self.nics[src.index()].begin_send(now, rate)
    }

    /// Ends a paced stream send from `src`.
    pub fn end_stream(&mut self, now: SimTime, src: NetNode, rate: Bandwidth, bytes: u64) {
        if self.failed[src.index()] {
            return;
        }
        self.nics[src.index()].end_send(now, rate, bytes);
    }

    /// The NIC of `node` (for load reporting).
    pub fn nic(&self, node: NetNode) -> &Nic {
        &self.nics[node.index()]
    }

    /// Mutable NIC access (window resets).
    pub fn nic_mut(&mut self, node: NetNode) -> &mut Nic {
        &mut self.nics[node.index()]
    }

    /// Control bytes/s sent by `node` over the current window.
    pub fn control_rate(&self, now: SimTime, node: NetNode) -> f64 {
        self.control_bytes[node.index()].window_rate(now)
    }

    /// Control messages/s sent by `node` over the current window.
    pub fn control_msg_rate(&self, now: SimTime, node: NetNode) -> f64 {
        self.control_msgs[node.index()].window_rate(now)
    }

    /// Lifetime control bytes sent by `node`.
    pub fn total_control_bytes(&self, node: NetNode) -> u64 {
        self.control_bytes[node.index()].total()
    }

    /// Lifetime control messages sent by `node`.
    pub fn total_control_msgs(&self, node: NetNode) -> u64 {
        self.control_msgs[node.index()].total()
    }

    /// Starts a fresh measurement window on every per-node counter.
    pub fn reset_windows(&mut self, now: SimTime) {
        for nic in &mut self.nics {
            nic.reset_window(now);
        }
        for c in &mut self.control_bytes {
            c.reset_window(now);
        }
        for c in &mut self.control_msgs {
            c.reset_window(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::RngTree;

    fn net(nodes: u32) -> Network {
        Network::new(
            nodes,
            Bandwidth::from_mbit_per_sec(135),
            LatencyModel::lan_default(),
            RngTree::new(5).fork("net", 0),
        )
    }

    #[test]
    fn control_messages_are_fifo_per_pair() {
        let mut n = net(3);
        let a = NetNode(0);
        let b = NetNode(1);
        let mut prev = SimTime::ZERO;
        for _ in 0..1000 {
            let d = n.send_control(prev, a, b, 100).at.expect("delivers");
            assert!(d > prev, "FIFO violated");
            prev = d;
        }
    }

    #[test]
    fn fifo_applies_even_for_sends_at_the_same_instant() {
        let mut n = net(2);
        let a = NetNode(0);
        let b = NetNode(1);
        let mut deliveries = Vec::new();
        for _ in 0..100 {
            deliveries.push(
                n.send_control(SimTime::ZERO, a, b, 10)
                    .at
                    .expect("delivers"),
            );
        }
        for w in deliveries.windows(2) {
            assert!(w[1] > w[0], "same-instant sends must preserve order");
        }
    }

    #[test]
    fn different_pairs_are_independent() {
        let mut n = net(3);
        // Flood a->b, then check a->c is not delayed behind it.
        let mut last_ab = SimTime::ZERO;
        for _ in 0..100 {
            last_ab = n
                .send_control(SimTime::ZERO, NetNode(0), NetNode(1), 10)
                .at
                .expect("delivers");
        }
        let ac = n
            .send_control(SimTime::ZERO, NetNode(0), NetNode(2), 10)
            .at
            .expect("delivers");
        // The a->c channel saw one message; it must arrive within one
        // worst-case latency of its send, unaffected by the a->b backlog.
        assert!(ac <= SimTime::ZERO + LatencyModel::lan_default().worst_case());
        assert!(last_ab > ac, "backlogged channel is far behind");
    }

    #[test]
    fn failed_nodes_drop_messages() {
        let mut n = net(3);
        n.fail_node(NetNode(1));
        let mut delivers = |src, dst| n.send_control(SimTime::ZERO, src, dst, 10).at.is_some();
        assert!(!delivers(NetNode(0), NetNode(1)));
        assert!(!delivers(NetNode(1), NetNode(2)));
        assert!(delivers(NetNode(0), NetNode(2)));
        // Failed-sender attempts are not metered.
        assert_eq!(n.total_control_bytes(NetNode(1)), 0);
    }

    #[test]
    fn control_traffic_is_metered_at_sender() {
        let mut n = net(2);
        for _ in 0..5 {
            n.send_control(SimTime::ZERO, NetNode(0), NetNode(1), 100)
                .at
                .expect("delivers");
        }
        assert_eq!(n.total_control_bytes(NetNode(0)), 500);
        assert_eq!(n.total_control_msgs(NetNode(0)), 5);
        assert_eq!(n.total_control_bytes(NetNode(1)), 0);
        let rate = n.control_rate(SimTime::from_secs(10), NetNode(0));
        assert!((rate - 50.0).abs() < 1e-9);
    }

    #[test]
    fn stream_sends_route_to_nic() {
        let mut n = net(2);
        let rate = Bandwidth::from_mbit_per_sec(2);
        assert!(n.begin_stream(SimTime::ZERO, NetNode(0), rate));
        n.end_stream(SimTime::from_secs(1), NetNode(0), rate, 250_000);
        assert_eq!(n.nic(NetNode(0)).total_bytes(), 250_000);
    }

    #[test]
    fn failed_sender_cannot_stream() {
        let mut n = net(2);
        n.fail_node(NetNode(0));
        assert!(!n.begin_stream(SimTime::ZERO, NetNode(0), Bandwidth::from_mbit_per_sec(2)));
    }

    // --- Fault injection -----------------------------------------------------

    use tiger_faults::{FaultPlan, Topology};

    /// A 2-cub/0-client topology whose nodes line up with `net(3)`:
    /// ctrl=0, cub0=1, cub1=2.
    fn topo3() -> Topology {
        Topology { num_cubs: 2 }
    }

    fn with_plan(plan: &str) -> Network {
        let mut n = net(3);
        n.set_faults(NetFaults::compile(
            &FaultPlan::parse(plan).expect("plan parses"),
            topo3(),
            RngTree::new(5).subtree("faults", 0).fork("net", 0),
        ));
        n
    }

    #[test]
    fn injected_drop_vanishes_but_meters_and_reports() {
        let mut n = with_plan("drop c0>c1 prob=1 from=0s until=10s");
        let sent = n.send_control(SimTime::from_secs(1), NetNode(1), NetNode(2), 100);
        assert_eq!(
            sent,
            Sent {
                perturb: Some(NetPerturb::Drop { partition: false }),
                ..Sent::default()
            }
        );
        // The sender still paid for the send.
        assert_eq!(n.total_control_bytes(NetNode(1)), 100);
        // The untouched reverse link still delivers, reporting nothing.
        let back = n.send_control(SimTime::from_secs(1), NetNode(2), NetNode(1), 100);
        assert!(back.at.is_some());
        assert_eq!(back.perturb, None);
    }

    #[test]
    fn injected_delay_shifts_delivery_past_the_clean_worst_case() {
        let extra = SimDuration::from_millis(50);
        let mut n = with_plan("delay c0>c1 extra=50ms from=0s until=10s");
        let now = SimTime::from_secs(1);
        let sent = n.send_control(now, NetNode(1), NetNode(2), 100);
        let d = sent.at.expect("delayed, not dropped");
        assert!(d >= now + extra, "delivery {d} must include the extra");
        assert!(d <= now + LatencyModel::lan_default().worst_case() + extra);
        assert_eq!(
            sent.perturb,
            Some(NetPerturb::Tweak {
                extra,
                duplicate: false
            })
        );
        assert_eq!(sent.dup_at, None);
    }

    #[test]
    fn injected_duplicate_delivers_twice_in_fifo_order() {
        let mut n = with_plan("dup c0>c1 prob=1 from=0s until=10s");
        let sent = n.send_control(SimTime::from_secs(1), NetNode(1), NetNode(2), 100);
        let (first, second) = (sent.at.expect("delivers"), sent.dup_at.expect("copied"));
        assert!(
            second > first,
            "the copy is FIFO-ordered behind the original"
        );
        // Only the one message was metered.
        assert_eq!(n.total_control_msgs(NetNode(1)), 1);
    }

    #[test]
    fn data_plane_gets_drops_but_never_duplicates() {
        let mut n = with_plan(
            "drop c0>c1 prob=1 from=0s until=10s\n\
             dup c1>c0 prob=1 from=0s until=10s\n",
        );
        let dropped = n.send_data(SimTime::from_secs(1), NetNode(1), NetNode(2));
        assert_eq!(dropped.at, None);
        assert_eq!(dropped.perturb, Some(NetPerturb::Drop { partition: false }));
        // The dup-flagged direction delivers exactly once on the data
        // plane: duplication is control-plane only.
        let once = n.send_data(SimTime::from_secs(1), NetNode(2), NetNode(1));
        assert!(once.at.is_some());
        assert_eq!(once.dup_at, None);
        assert!(!matches!(
            once.perturb,
            Some(NetPerturb::Tweak {
                duplicate: true,
                ..
            })
        ));
    }
}
