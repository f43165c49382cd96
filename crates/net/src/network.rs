//! The switched network: nodes, ordered control channels, and NICs.

use tiger_faults::{NetFaults, NetInjection, NetInjectionKind, NetPerturb};
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

    /// Whether [`take_fault_injections`](Self::take_fault_injections)
    /// would return anything — the cheap post-send check.
    pub fn has_fault_injections(&self) -> bool {
        self.faults.has_injections()
    }

    /// Drains the log of fault injections carried out since the last
    /// drain, in the order they happened. The caller turns these into
    /// trace events and (for duplicates) extra deliveries.
    pub fn take_fault_injections(&mut self) -> Vec<NetInjection> {
        self.faults.take_injections()
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
    /// Returns the delivery time, or `None` if either endpoint is failed
    /// (the message silently vanishes, as with a crashed machine). Delivery
    /// is FIFO per (src, dst): a message never overtakes an earlier one on
    /// the same channel.
    pub fn send_control(
        &mut self,
        now: SimTime,
        src: NetNode,
        dst: NetNode,
        bytes: u64,
    ) -> Option<SimTime> {
        debug_assert!(src.index() < self.nics.len() && dst.index() < self.nics.len());
        if self.failed[src.index()] || self.failed[dst.index()] {
            return None;
        }
        // Metering happens before injection: a dropped message was still
        // sent and paid for at the sender.
        self.control_bytes[src.index()].add(bytes);
        self.control_msgs[src.index()].incr();
        let mut extra = SimDuration::ZERO;
        let mut duplicate = false;
        if self.faults.active() {
            match self.faults.verdict(now, src.raw(), dst.raw()) {
                Some(NetPerturb::Drop { partition }) => {
                    self.faults.note(NetInjection {
                        src: src.raw(),
                        dst: dst.raw(),
                        kind: NetInjectionKind::Dropped { partition },
                    });
                    return None;
                }
                Some(NetPerturb::Tweak {
                    extra: e,
                    duplicate: d,
                }) => {
                    extra = e;
                    duplicate = d;
                }
                None => {}
            }
        }
        let model = self.latency.skewed(extra);
        let sampled = now + model.sample(&mut self.rng);
        let delivery = self.fifo_clamp(src, dst, sampled);
        if !extra.is_zero() {
            self.faults.note(NetInjection {
                src: src.raw(),
                dst: dst.raw(),
                kind: NetInjectionKind::Delayed { extra },
            });
        }
        if duplicate {
            // The copy is a fresh send on the same channel: own latency
            // sample, FIFO-clamped behind the original.
            let sampled = now + model.sample(&mut self.rng);
            let second_delivery = self.fifo_clamp(src, dst, sampled);
            self.faults.note(NetInjection {
                src: src.raw(),
                dst: dst.raw(),
                kind: NetInjectionKind::Duplicated { second_delivery },
            });
        }
        Some(delivery)
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

    /// Computes a delivery time for a data-plane payload (stream data) from
    /// `src` to `dst`: latency is sampled but the message is *not* counted
    /// as control traffic and needs no FIFO guarantee. Returns `None` if
    /// either endpoint is failed.
    pub fn send_data(&mut self, now: SimTime, src: NetNode, dst: NetNode) -> Option<SimTime> {
        if self.failed[src.index()] || self.failed[dst.index()] {
            return None;
        }
        // Fault injection applies drops and delays to the data plane but
        // never duplication: a double-delivered block must stay provably
        // a protocol bug, not an injected one.
        let mut extra = SimDuration::ZERO;
        if self.faults.active() {
            match self.faults.verdict(now, src.raw(), dst.raw()) {
                Some(NetPerturb::Drop { partition }) => {
                    self.faults.note(NetInjection {
                        src: src.raw(),
                        dst: dst.raw(),
                        kind: NetInjectionKind::Dropped { partition },
                    });
                    return None;
                }
                Some(NetPerturb::Tweak { extra: e, .. }) => extra = e,
                None => {}
            }
        }
        if !extra.is_zero() {
            self.faults.note(NetInjection {
                src: src.raw(),
                dst: dst.raw(),
                kind: NetInjectionKind::Delayed { extra },
            });
        }
        Some(now + self.latency.skewed(extra).sample(&mut self.rng))
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
            let d = n.send_control(prev, a, b, 100).expect("delivers");
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
            deliveries.push(n.send_control(SimTime::ZERO, a, b, 10).expect("delivers"));
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
                .expect("delivers");
        }
        let ac = n
            .send_control(SimTime::ZERO, NetNode(0), NetNode(2), 10)
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
        assert!(n
            .send_control(SimTime::ZERO, NetNode(0), NetNode(1), 10)
            .is_none());
        assert!(n
            .send_control(SimTime::ZERO, NetNode(1), NetNode(2), 10)
            .is_none());
        assert!(n
            .send_control(SimTime::ZERO, NetNode(0), NetNode(2), 10)
            .is_some());
        // Failed-sender attempts are not metered.
        assert_eq!(n.total_control_bytes(NetNode(1)), 0);
    }

    #[test]
    fn control_traffic_is_metered_at_sender() {
        let mut n = net(2);
        for _ in 0..5 {
            n.send_control(SimTime::ZERO, NetNode(0), NetNode(1), 100)
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

    use tiger_faults::{FaultPlan, NetInjectionKind, NodeSel, Topology};

    /// A 2-cub/0-client topology whose nodes line up with `net(3)`:
    /// ctrl=0, cub0=1, cub1=2.
    fn topo3() -> Topology {
        Topology {
            num_cubs: 2,
            num_clients: 0,
            backup_controller: false,
        }
    }

    fn with_plan(nodes: u32, topo: Topology, plan: &FaultPlan) -> Network {
        let mut n = net(nodes);
        n.set_faults(NetFaults::compile(
            plan,
            topo,
            RngTree::new(5).subtree("faults", 0).fork("net", 0),
        ));
        n
    }

    #[test]
    fn injected_drop_vanishes_but_meters_and_logs() {
        let plan = FaultPlan::new().drop_msgs(
            NodeSel::Cub(0),
            NodeSel::Cub(1),
            1.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let mut n = with_plan(3, topo3(), &plan);
        assert!(n
            .send_control(SimTime::from_secs(1), NetNode(1), NetNode(2), 100)
            .is_none());
        // The sender still paid for the send.
        assert_eq!(n.total_control_bytes(NetNode(1)), 100);
        assert!(n.has_fault_injections());
        let inj = n.take_fault_injections();
        assert_eq!(inj.len(), 1);
        assert_eq!(inj[0].kind, NetInjectionKind::Dropped { partition: false });
        assert!(!n.has_fault_injections());
        // The untouched reverse link still delivers, logging nothing.
        assert!(n
            .send_control(SimTime::from_secs(1), NetNode(2), NetNode(1), 100)
            .is_some());
        assert!(!n.has_fault_injections());
    }

    #[test]
    fn injected_delay_shifts_delivery_past_the_clean_worst_case() {
        let extra = SimDuration::from_millis(50);
        let plan = FaultPlan::new().delay_msgs(
            NodeSel::Cub(0),
            NodeSel::Cub(1),
            extra,
            SimDuration::ZERO,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let mut n = with_plan(3, topo3(), &plan);
        let now = SimTime::from_secs(1);
        let d = n
            .send_control(now, NetNode(1), NetNode(2), 100)
            .expect("delayed, not dropped");
        assert!(d >= now + extra, "delivery {d} must include the extra");
        assert!(d <= now + LatencyModel::lan_default().worst_case() + extra);
        let inj = n.take_fault_injections();
        assert_eq!(inj.len(), 1);
        assert_eq!(inj[0].kind, NetInjectionKind::Delayed { extra });
    }

    #[test]
    fn injected_duplicate_delivers_twice_in_fifo_order() {
        let plan = FaultPlan::new().duplicate_msgs(
            NodeSel::Cub(0),
            NodeSel::Cub(1),
            1.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let mut n = with_plan(3, topo3(), &plan);
        let first = n
            .send_control(SimTime::from_secs(1), NetNode(1), NetNode(2), 100)
            .expect("delivers");
        let inj = n.take_fault_injections();
        assert_eq!(inj.len(), 1);
        let NetInjectionKind::Duplicated { second_delivery } = inj[0].kind else {
            panic!("expected a duplicate, got {:?}", inj[0].kind);
        };
        assert!(
            second_delivery > first,
            "the copy is FIFO-ordered behind the original"
        );
        // Only the one message was metered.
        assert_eq!(n.total_control_msgs(NetNode(1)), 1);
    }

    #[test]
    fn data_plane_gets_drops_but_never_duplicates() {
        let plan = FaultPlan::new()
            .drop_msgs(
                NodeSel::Cub(0),
                NodeSel::Cub(1),
                1.0,
                SimTime::ZERO,
                SimTime::from_secs(10),
            )
            .duplicate_msgs(
                NodeSel::Cub(1),
                NodeSel::Cub(0),
                1.0,
                SimTime::ZERO,
                SimTime::from_secs(10),
            );
        let mut n = with_plan(3, topo3(), &plan);
        assert!(n
            .send_data(SimTime::from_secs(1), NetNode(1), NetNode(2))
            .is_none());
        // The dup-flagged direction delivers exactly once on the data
        // plane: duplication is control-plane only.
        assert!(n
            .send_data(SimTime::from_secs(1), NetNode(2), NetNode(1))
            .is_some());
        let kinds: Vec<_> = n.take_fault_injections().iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![NetInjectionKind::Dropped { partition: false }]);
    }
}
