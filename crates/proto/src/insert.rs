//! The ownership-window insertion state machine (§4.1.3).
//!
//! [`InsertMachine`] owns a cub's queued start requests: the primary
//! queue (starts this cub must insert) and the redundant holds (starts
//! the controller also routed to the successor, promoted only on the
//! primary holder's failure). Inputs are routed starts, deschedules,
//! viewer-state sightings, takeover promotions, and the insert-attempt
//! timer; outputs say whether the driver must (re)arm the attempt timer
//! and, per queued start, whether it committed, missed, or was dropped.
//!
//! The machine deliberately does *not* know slot arithmetic or the
//! catalog: whether a slot is free inside an owned window is the
//! driver's question to its schedule view. The machine's job is the
//! queue discipline — idempotent enqueue, ordered retry, one armed
//! attempt at a time — which is what both drivers must agree on.

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, FileId};
use tiger_sim::SimTime;

/// A queued start request (§4.1.3).
#[derive(Clone, Copy, Debug)]
pub struct PendingStart {
    /// The viewer instance to start.
    pub instance: ViewerInstance,
    /// The client's network node id.
    pub client: u32,
    /// The file to play.
    pub file: FileId,
    /// First block to play (0 from the beginning; seeks/resumes start
    /// mid-file).
    pub from_block: BlockNum,
    /// When the client asked (latency measurement).
    pub requested_at: SimTime,
}

/// The driver's verdict on one queued start during an attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptDecision {
    /// Unknown file, out-of-range block, or another cub's insertion:
    /// drop the start from the queue.
    Drop,
    /// An owned free slot was found; the driver committed the insert.
    Commit,
    /// No free owned slot in the current window: keep the start queued
    /// for the next ownership window.
    Miss,
}

/// The insertion queue machine.
#[derive(Clone, Debug, Default)]
pub struct InsertMachine {
    start_queue: Vec<PendingStart>,
    redundant_starts: Vec<PendingStart>,
    attempt_scheduled: bool,
}

impl InsertMachine {
    /// An empty machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued primary starts (waiting for an ownership window).
    pub fn queued(&self) -> usize {
        self.start_queue.len()
    }

    /// The queue head (the start whose disk gates the retry timer).
    pub fn head(&self) -> Option<&PendingStart> {
        self.start_queue.first()
    }

    /// Input: a routed start. Redundant copies are held (idempotently)
    /// and never trigger an attempt; primary copies enqueue unless the
    /// instance is already queued or `already_carried` (the driver's
    /// idempotence check against its view/active/retired state). Returns
    /// true when the driver must arm an insert attempt — always, for a
    /// primary start, even when the enqueue was a duplicate.
    pub fn on_routed_start(
        &mut self,
        pending: PendingStart,
        redundant: bool,
        already_carried: bool,
    ) -> bool {
        if redundant {
            if !self
                .redundant_starts
                .iter()
                .any(|p| p.instance == pending.instance)
            {
                self.redundant_starts.push(pending);
            }
            return false;
        }
        if !self
            .start_queue
            .iter()
            .any(|p| p.instance == pending.instance)
            && !already_carried
        {
            self.start_queue.push(pending);
        }
        true
    }

    /// Arms the attempt timer. Returns true when the driver must
    /// schedule the attempt (false: one is already pending).
    pub fn arm_attempt(&mut self) -> bool {
        if self.attempt_scheduled {
            return false;
        }
        self.attempt_scheduled = true;
        true
    }

    /// Timer input: the armed attempt fired. Always disarms (a failed
    /// cub consumes the expiry without running the attempt).
    pub fn attempt_due(&mut self) {
        self.attempt_scheduled = false;
    }

    /// Runs one whole attempt against the driver's `decide` verdicts, in
    /// queue order: commits and drops leave the queue, misses stay (in
    /// order). Returns the number of commits.
    pub fn attempt(&mut self, mut decide: impl FnMut(&PendingStart) -> AttemptDecision) -> u32 {
        let mut commits = 0;
        self.start_queue.retain(|pending| match decide(pending) {
            AttemptDecision::Drop => false,
            AttemptDecision::Commit => {
                commits += 1;
                false
            }
            AttemptDecision::Miss => true,
        });
        commits
    }

    /// Input: a viewer-state sighting for `instance` — any sighting
    /// supersedes a redundant hold for the same instance.
    pub fn superseded_by_sighting(&mut self, instance: &ViewerInstance) {
        self.redundant_starts.retain(|p| p.instance != *instance);
    }

    /// Input: a deschedule for `instance` — both queues drop it.
    pub fn drop_instance(&mut self, instance: &ViewerInstance) {
        self.start_queue.retain(|p| p.instance != *instance);
        self.redundant_starts.retain(|p| p.instance != *instance);
    }

    /// Takeover input: promote every redundant hold matching `covers`
    /// (its file's start disk belonged to the failed cub, per the
    /// driver's catalog) into the primary queue, idempotently.
    pub fn promote_where(&mut self, covers: impl Fn(&PendingStart) -> bool) {
        let promote: Vec<PendingStart> = self
            .redundant_starts
            .iter()
            .filter(|p| covers(p))
            .copied()
            .collect();
        self.redundant_starts.retain(|p| !covers(p));
        for p in promote {
            if !self.start_queue.iter().any(|q| q.instance == p.instance) {
                self.start_queue.push(p);
            }
        }
    }

    /// Power-cut / restripe cut-over: both queues empty. The armed flag
    /// is left alone on a power cut (the stale expiry is consumed by
    /// [`InsertMachine::attempt_due`]); restart clears it via
    /// [`InsertMachine::reset`].
    pub fn clear_queues(&mut self) {
        self.start_queue.clear();
        self.redundant_starts.clear();
    }

    /// Restart: empty queues, nothing armed.
    pub fn reset(&mut self) {
        self.clear_queues();
        self.attempt_scheduled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ViewerId;

    fn pending(v: u64) -> PendingStart {
        PendingStart {
            instance: ViewerInstance {
                viewer: ViewerId(v),
                incarnation: 0,
            },
            client: 1,
            file: FileId(0),
            from_block: BlockNum(0),
            requested_at: SimTime::ZERO,
        }
    }

    #[test]
    fn routed_starts_enqueue_idempotently_and_always_want_an_attempt() {
        let mut m = InsertMachine::new();
        assert!(m.on_routed_start(pending(1), false, false));
        assert!(
            m.on_routed_start(pending(1), false, false),
            "duplicate still wants an attempt"
        );
        assert_eq!(m.queued(), 1, "but does not enqueue twice");
        assert!(
            m.on_routed_start(pending(2), false, true),
            "already-carried wants an attempt too"
        );
        assert_eq!(m.queued(), 1, "without enqueueing");
        assert!(
            !m.on_routed_start(pending(3), true, false),
            "redundant: no attempt"
        );
        m.on_routed_start(pending(3), true, false);
        assert_eq!(m.redundant_starts.len(), 1, "redundant holds dedup");
    }

    #[test]
    fn only_one_attempt_is_armed_at_a_time() {
        let mut m = InsertMachine::new();
        assert!(m.arm_attempt(), "first arm schedules");
        assert!(!m.arm_attempt(), "second is a no-op");
        m.attempt_due();
        assert!(m.arm_attempt(), "disarmed by the expiry");
    }

    // Satellite coverage: insertion commit/miss driven purely by
    // synthetic verdicts — no DES, no slot arithmetic.
    #[test]
    fn attempt_commits_drop_and_misses_keep_order() {
        let mut m = InsertMachine::new();
        for v in 1..=4 {
            m.on_routed_start(pending(v), false, false);
        }
        // v1 commits, v2 has no free owned slot, v3 is another cub's
        // insertion, v4 also misses.
        let commits = m.attempt(|p| match p.instance.viewer.raw() {
            1 => AttemptDecision::Commit,
            3 => AttemptDecision::Drop,
            _ => AttemptDecision::Miss,
        });
        assert_eq!(commits, 1);
        assert_eq!(m.queued(), 2, "misses stay queued");
        let order: Vec<u64> = [m.head().unwrap().instance.viewer.raw()].to_vec();
        assert_eq!(order, vec![2], "retry order preserved");
        // Next window: everything left commits.
        assert_eq!(m.attempt(|_| AttemptDecision::Commit), 2);
        assert_eq!(m.queued(), 0);
    }

    #[test]
    fn takeover_promotes_matching_redundant_holds() {
        let mut m = InsertMachine::new();
        m.on_routed_start(pending(1), true, false);
        m.on_routed_start(pending(2), true, false);
        m.on_routed_start(pending(2), false, false); // already queued as primary
        m.promote_where(|p| p.instance.viewer.raw() <= 2);
        assert_eq!(m.redundant_starts.len(), 0);
        assert_eq!(m.queued(), 2, "promotion dedups against the queue");
    }

    #[test]
    fn sightings_and_deschedules_clean_the_queues() {
        let mut m = InsertMachine::new();
        m.on_routed_start(pending(1), false, false);
        m.on_routed_start(pending(1), true, false);
        m.superseded_by_sighting(&pending(1).instance);
        assert_eq!(
            m.redundant_starts.len(),
            0,
            "sighting clears the redundant hold"
        );
        assert_eq!(m.queued(), 1, "but not the primary queue");
        m.drop_instance(&pending(1).instance);
        assert_eq!(m.queued(), 0, "deschedule clears both");
    }
}
