//! Property tests for the network model: FIFO per channel under arbitrary
//! interleavings, NIC begin/end balance, and failure semantics.
//!
//! Ported from `proptest` to the in-tree `tiger_sim::check` harness: each
//! property runs over many deterministically seeded cases, and failures
//! report a replayable case seed.

use tiger_net::{LatencyModel, NetNode, Network};
use tiger_sim::check::{check, vec_of};
use tiger_sim::{Bandwidth, RngTree, SimDuration, SimTime};

fn net(nodes: u32, seed: u64) -> Network {
    Network::new(
        nodes,
        Bandwidth::from_mbit_per_sec(135),
        LatencyModel::lan_default(),
        RngTree::new(seed).fork("net", 0),
    )
}

/// Deliveries on each (src, dst) channel are strictly increasing in
/// time, no matter how sends across channels interleave.
#[test]
fn fifo_per_channel_under_interleaving() {
    check("fifo_per_channel_under_interleaving", |rng| {
        let mut sends = vec_of(rng, 1..200, |r| {
            (
                r.gen_range(0u32..4),
                r.gen_range(0u32..4),
                r.gen_range(0u64..500),
            )
        });
        let seed = rng.gen_range(0u64..1000);
        let mut n = net(4, seed);
        let mut now = SimTime::ZERO;
        let mut last: std::collections::HashMap<(u32, u32), SimTime> =
            std::collections::HashMap::new();
        // Sends happen in nondecreasing time order.
        sends.sort_by_key(|&(_, _, t)| t);
        for (src, dst, t_ms) in sends {
            if src == dst {
                continue;
            }
            now = now.max(SimTime::from_millis(t_ms));
            if let Some(at) = n.send_control(now, NetNode(src), NetNode(dst), 100).at {
                assert!(at > now, "delivery not after send");
                if let Some(&prev) = last.get(&(src, dst)) {
                    assert!(at > prev, "channel ({src},{dst}) reordered");
                }
                last.insert((src, dst), at);
            }
        }
    });
}

/// Control-byte accounting equals the sum of successful sends.
#[test]
fn control_bytes_accounting() {
    check("control_bytes_accounting", |rng| {
        let sizes = vec_of(rng, 1..100, |r| r.gen_range(1u64..5_000));
        let seed = rng.gen_range(0u64..1000);
        let mut n = net(2, seed);
        let mut expected = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            if n.send_control(now, NetNode(0), NetNode(1), size)
                .at
                .is_some()
            {
                expected += size;
            }
        }
        assert_eq!(n.total_control_bytes(NetNode(0)), expected);
        assert_eq!(n.total_control_msgs(NetNode(0)), sizes.len() as u64);
    });
}

/// Balanced begin/end stream pairs always return the NIC to zero load,
/// and the active rate never goes negative.
#[test]
fn nic_begin_end_balance() {
    check("nic_begin_end_balance", |rng| {
        let rates = vec_of(rng, 1..40, |r| r.gen_range(1u64..20));
        let seed = rng.gen_range(0u64..1000);
        let mut n = net(2, seed);
        let node = NetNode(0);
        let mut t = SimTime::ZERO;
        for &r in &rates {
            n.begin_stream(t, node, Bandwidth::from_mbit_per_sec(r));
            t += SimDuration::from_millis(10);
        }
        // End in reverse order (any order would do).
        for &r in rates.iter().rev() {
            n.end_stream(t, node, Bandwidth::from_mbit_per_sec(r), 1000);
            t += SimDuration::from_millis(10);
        }
        assert_eq!(n.nic(node).active_rate(), Bandwidth::ZERO);
        assert_eq!(n.nic(node).active_sends(), 0);
    });
}

/// A failed node never sends, never receives, and is never metered.
#[test]
fn failed_nodes_are_inert() {
    check("failed_nodes_are_inert", |rng| {
        let ops = vec_of(rng, 1..60, |r| (r.gen_range(0u32..3), r.gen_range(0u32..3)));
        let seed = rng.gen_range(0u64..1000);
        let mut n = net(3, seed);
        n.fail_node(NetNode(1));
        for (i, &(src, dst)) in ops.iter().enumerate() {
            if src == dst {
                continue;
            }
            let now = SimTime::from_millis(i as u64);
            let delivered = n.send_control(now, NetNode(src), NetNode(dst), 10).at;
            if src == 1 || dst == 1 {
                assert!(delivered.is_none());
            } else {
                assert!(delivered.is_some());
            }
        }
        assert_eq!(n.total_control_bytes(NetNode(1)), 0);
    });
}
