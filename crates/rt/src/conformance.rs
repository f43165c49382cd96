//! Seq-normalized protocol-decision extraction.
//!
//! A raw trace is full of driver-specific detail: global sequence
//! numbers, timestamps, data-plane events, periodic pings. What the two
//! drivers must agree on is the *decision sequence* — per ring lane, in
//! order: who was declared failed, who adopted the belief, who took
//! over, who was fenced, who granted a hand-back, who replayed its
//! retired tail to a rejoiner, and who was fenced out of the stripe by
//! a shrink cut-over. This module reduces a `&[TraceRecord]` from
//! either driver to exactly that.
//!
//! Normalization rules:
//!
//! * Sequence numbers and timestamps are dropped. The DES measures
//!   silence on a virtual clock and the socket driver on a wall clock,
//!   so `silence_ns` is dropped from declarations too — the decision is
//!   *that* the predecessor was declared, and by whom.
//! * `power-cut` and `cub-restart` are harness actions and
//!   `shrink-fence` a cut-over action, all recorded on the control
//!   lane; both drivers remap them onto the affected cub's lane so each
//!   lane reads as that cub's complete protocol history.
//! * Periodic pings and data-plane events (`rejoin-done` fires on the
//!   first re-accepted *block*, which a control-plane-only driver never
//!   sends) are excluded.

use std::collections::BTreeMap;

use tiger_trace::{TraceEvent, TraceRecord};

/// The per-lane decision sequences, keyed by raw cub id.
pub fn decision_lanes(records: &[TraceRecord]) -> BTreeMap<u32, Vec<String>> {
    let mut lanes: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for r in records {
        let (lane, line) = match r.ev {
            TraceEvent::PowerCut { cub } => (cub, "power-cut".to_string()),
            TraceEvent::CubRestart { cub } => (cub, "restart".to_string()),
            TraceEvent::DeadmanDeclare { failed, .. } => {
                (r.cub, format!("declare failed={failed}"))
            }
            TraceEvent::FailureNotice { failed } => (r.cub, format!("believe failed={failed}")),
            TraceEvent::MirrorTakeover { failed_cub } => {
                (r.cub, format!("takeover failed={failed_cub}"))
            }
            TraceEvent::CubFenced { cub } => (cub, "fenced".to_string()),
            TraceEvent::HandbackOpen { to } => (r.cub, format!("handback-open to={to}")),
            // The sub-interval rejoin: the ring predecessor's decision to
            // replay its retired tail. The batch size is data-plane
            // detail, but in a control-only run both drivers carry an
            // empty tail, so the count stays comparable.
            TraceEvent::RetiredReplay { to, count } => {
                (r.cub, format!("handback-replay to={to} count={count}"))
            }
            // A shrink cut-over fencing the drained cub out of the
            // stripe: recorded on the control lane by the executor,
            // remapped like the other harness actions.
            TraceEvent::ShrinkFence { cub } => (cub, "shrink-fence".to_string()),
            _ => continue,
        };
        lanes.entry(lane).or_default().push(line);
    }
    lanes
}

/// Renders the decision lanes as stable text, one `cN: decision` line per
/// decision, lanes in ascending id order. Two conformant runs render to
/// byte-equal strings.
pub fn render_decisions(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for (lane, decisions) in decision_lanes(records) {
        for d in decisions {
            out.push_str(&format!("c{lane}: {d}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::SimTime;
    use tiger_trace::CTRL;

    fn rec(seq: u64, cub: u32, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            at: SimTime::from_millis(seq),
            cub,
            ev,
        }
    }

    #[test]
    fn harness_events_remap_to_the_cub_lane() {
        let records = vec![
            rec(0, CTRL, TraceEvent::PowerCut { cub: 1 }),
            rec(
                1,
                2,
                TraceEvent::DeadmanDeclare {
                    failed: 1,
                    silence_ns: 2_100_000_000,
                },
            ),
            rec(2, 2, TraceEvent::FailureNotice { failed: 1 }),
            rec(3, 2, TraceEvent::MirrorTakeover { failed_cub: 1 }),
            rec(4, 0, TraceEvent::FailureNotice { failed: 1 }),
            rec(5, CTRL, TraceEvent::CubRestart { cub: 1 }),
            rec(6, 0, TraceEvent::RetiredReplay { to: 1, count: 3 }),
            rec(7, 2, TraceEvent::HandbackOpen { to: 1 }),
            // Excluded: pings and data-plane rejoin completion.
            rec(8, 0, TraceEvent::DeadmanPing { to: 1 }),
            rec(9, 1, TraceEvent::RejoinDone { cub: 1 }),
            // A shrink cut-over fences the drained cub on its own lane.
            rec(10, CTRL, TraceEvent::ShrinkFence { cub: 3 }),
        ];
        let lanes = decision_lanes(&records);
        assert_eq!(lanes[&1], vec!["power-cut", "restart"]);
        assert_eq!(
            lanes[&2],
            vec![
                "declare failed=1",
                "believe failed=1",
                "takeover failed=1",
                "handback-open to=1",
            ]
        );
        assert_eq!(
            lanes[&0],
            vec!["believe failed=1", "handback-replay to=1 count=3"]
        );
        assert_eq!(lanes[&3], vec!["shrink-fence"]);
    }

    #[test]
    fn rendering_is_timing_independent() {
        let a = vec![rec(
            0,
            2,
            TraceEvent::DeadmanDeclare {
                failed: 1,
                silence_ns: 2_100_000_000,
            },
        )];
        let b = vec![rec(
            99,
            2,
            TraceEvent::DeadmanDeclare {
                failed: 1,
                silence_ns: 2_430_517_211,
            },
        )];
        assert_eq!(render_decisions(&a), render_decisions(&b));
    }
}
