//! The Tiger controller (§2.1, §4.1.2–§4.1.3).
//!
//! "The Tiger controller serves only as a contact point (i.e., an IP
//! address) for clients, the system clock master, and a few other low
//! effort tasks." It routes start requests to the cub holding the first
//! block (and its successor, for redundancy), routes stop requests to the
//! cub currently serving the viewer, and does *no* per-block work — which
//! is what keeps its load flat as the system grows.
//!
//! [`Controller`] is one controller's viewer table and request counters;
//! [`ControlPlane`] is the DES driver around it: the primary, an optional
//! hot standby fed the same notices, their ring-membership view (a
//! sans-io `tiger_proto::Membership`, see `docs/PROTOCOL.md`), and the
//! one message handler both roles run.

use std::collections::HashMap;

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, DiskId};
use tiger_net::NetNode;
use tiger_proto::msg::Message;
use tiger_proto::Membership;
use tiger_sched::{Deschedule, ScheduleParams, SlotId};
use tiger_sim::{Counter, SimTime};
use tiger_trace::{TraceEvent, CTRL};

use crate::system::Shared;

/// What the controller remembers about one viewer.
#[derive(Clone, Copy, Debug)]
pub struct ViewerRecord {
    /// The slot the viewer occupies, once a cub commits the insertion.
    pub slot: Option<SlotId>,
    /// A stop arrived while the start was still queued at a cub (no
    /// committed slot yet). The stop cannot be routed — there is no slot
    /// to deschedule — so it is remembered here and honoured the moment
    /// the insertion commits. Dropping it instead would leak a zombie
    /// stream: the cub would serve a viewer nobody can ever stop.
    pub stop_wanted: bool,
}

/// The controller's state.
#[derive(Debug, Default)]
pub struct Controller {
    viewers: HashMap<ViewerInstance, ViewerRecord>,
    requests: Counter,
    active_streams: u32,
}

impl Controller {
    /// Creates an idle controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a start request; returns false if the instance is already
    /// known (duplicate request).
    pub fn on_start_request(&mut self, instance: ViewerInstance) -> bool {
        self.requests.incr();
        let rec = ViewerRecord {
            slot: None,
            stop_wanted: false,
        };
        self.viewers.insert(instance, rec).is_none()
    }

    /// Records a commit notification from the inserting cub. Returns true
    /// if a stop already arrived for the viewer while it was queued (the
    /// stop/insert race): the caller must deschedule it immediately, now
    /// that there finally is a slot to deschedule.
    pub fn on_insert_committed(&mut self, instance: ViewerInstance, slot: SlotId) -> bool {
        if let Some(rec) = self.viewers.get_mut(&instance) {
            if rec.slot.is_none() {
                self.active_streams += 1;
            }
            rec.slot = Some(slot);
            rec.stop_wanted
        } else {
            false
        }
    }

    /// Handles a stop request: returns the slot and the cub whose disk next
    /// services it (plus that cub's successor gets a copy), or `None` for
    /// an unknown/uncommitted viewer.
    pub fn on_stop_request(
        &mut self,
        instance: ViewerInstance,
        params: &ScheduleParams,
        now: SimTime,
    ) -> Option<(SlotId, CubId)> {
        self.requests.incr();
        let rec = self.viewers.get_mut(&instance)?;
        let Some(slot) = rec.slot else {
            // The start is still queued at a cub — nothing to deschedule
            // yet. Keep the record and honour the stop at commit time.
            rec.stop_wanted = true;
            return None;
        };
        self.viewers.remove(&instance);
        self.active_streams = self.active_streams.saturating_sub(1);
        // "The controller determines from which cub the viewer is receiving
        // data": the disk that will next cross the viewer's slot.
        let stripe = params.stripe();
        let next = (0..stripe.num_disks())
            .map(DiskId)
            .min_by_key(|&d| params.slot_send_time(d, slot, now));
        next.map(|d| (slot, stripe.cub_of(d)))
    }

    /// Marks a viewer finished (EOF); frees its record.
    pub fn on_viewer_finished(&mut self, instance: ViewerInstance) {
        if self.viewers.remove(&instance).is_some() {
            self.active_streams = self.active_streams.saturating_sub(1);
        }
    }

    /// Streams currently committed into the schedule.
    pub fn active_streams(&self) -> u32 {
        self.active_streams
    }

    /// The record for `instance`, if known.
    pub fn viewer(&self, instance: &ViewerInstance) -> Option<&ViewerRecord> {
        self.viewers.get(instance)
    }

    /// Start/stop requests handled per second over the current window.
    pub fn request_rate(&self, now: SimTime) -> f64 {
        self.requests.window_rate(now)
    }

    /// Starts a fresh measurement window.
    pub fn reset_window(&mut self, now: SimTime) {
        self.requests.reset_window(now);
    }
}

/// The control plane: the primary controller, its optional hot standby,
/// and the failure beliefs they route by. Both roles run the one handler
/// `ControlPlane::on_message`; until it is promoted the standby runs it
/// *muted* — the same state transitions, but no sends, no trace records,
/// no omniscient-checker updates and no shield launches.
#[derive(Debug)]
pub struct ControlPlane {
    /// The acting controller's state: the primary's, until a promotion
    /// installs what the standby mirrored.
    acting: Controller,
    /// The hot standby's state (idle when no backup is configured).
    standby: Controller,
    /// The controllers' failure beliefs (for routing around dead cubs) —
    /// the same sans-io [`Membership`] vector the cubs' ring machines use.
    /// A restripe cut-over resets it from the ground-truth map.
    pub(crate) believes_failed: Membership,
    /// The node the acting controller sends from.
    node: NetNode,
    /// Whether the standby has taken over.
    promoted: bool,
}

impl ControlPlane {
    /// An idle control plane that routes around the spares (cubs past
    /// `striped`) until a cut-over absorbs them.
    pub(crate) fn new(total_cubs: u32, striped: u32) -> Self {
        ControlPlane {
            acting: Controller::new(),
            standby: Controller::new(),
            believes_failed: Membership::with_spares(total_cubs, striped),
            node: NetNode(0),
            promoted: false,
        }
    }

    /// The acting controller's state.
    pub fn acting(&self) -> &Controller {
        &self.acting
    }

    /// The record either role holds for `instance`.
    pub(crate) fn viewer(&self, instance: &ViewerInstance) -> Option<&ViewerRecord> {
        self.acting
            .viewer(instance)
            .or_else(|| self.standby.viewer(instance))
    }

    /// Restripe cut-over: both roles drop the fenced `instance`.
    pub(crate) fn forget_viewer(&mut self, instance: ViewerInstance) {
        self.acting.on_viewer_finished(instance);
        self.standby.on_viewer_finished(instance);
    }

    /// Starts a fresh measurement window.
    pub(crate) fn reset_window(&mut self, now: SimTime) {
        self.acting.reset_window(now);
    }

    /// The standby's silence timer fired: its mirrored state becomes
    /// authoritative and it starts answering from its own address.
    pub(crate) fn promote(&mut self, standby_node: NetNode) {
        if !self.promoted {
            self.promoted = true;
            self.acting = std::mem::take(&mut self.standby);
            self.node = standby_node;
        }
    }

    /// The state a message updates: the standby's while it is muted.
    fn role(&mut self, muted: bool) -> &mut Controller {
        if muted {
            &mut self.standby
        } else {
            &mut self.acting
        }
    }

    /// Handles a message delivered to the primary's address, or — with
    /// `to_standby` — to the standby's. Returns a cub the (unmuted)
    /// controller just learned has failed, for the caller to shield.
    pub(crate) fn on_message(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        to_standby: bool,
        msg: Message,
    ) -> Option<CubId> {
        let muted = to_standby && !self.promoted;
        let role = self.role(muted);
        match msg {
            Message::StartRequest {
                client,
                instance,
                file,
                from_block,
                requested_at,
            } => {
                // Admission control (disabled for the §5 tests).
                if let Some(limit) = sh.cfg.admission_limit {
                    let cap = f64::from(sh.params.capacity());
                    if f64::from(role.active_streams()) >= limit * cap {
                        return None; // Rejected; the client never starts.
                    }
                }
                if !role.on_start_request(instance) || muted {
                    return None; // Duplicate, or nothing to route.
                }
                let loc = sh.catalog.locate(file, BlockNum(from_block))?;
                let home = sh.params.stripe().cub_of(loc.disk);
                let (primary, redundant) = self.living_pair(sh, home);
                sh.tracer.record(
                    now,
                    CTRL,
                    TraceEvent::CtrlRouteStart {
                        viewer: instance.viewer.raw(),
                        inc: instance.incarnation,
                        primary: primary.raw(),
                        redundant: redundant.map_or(u32::MAX, CubId::raw),
                    },
                );
                self.send_pair(sh, now, (primary, redundant), |redundant| {
                    Message::RoutedStart {
                        client,
                        instance,
                        file,
                        from_block,
                        requested_at,
                        redundant,
                    }
                });
            }
            Message::StopRequest { instance } => self.route_deschedule(sh, now, instance, muted),
            Message::InsertCommitted { instance, slot, .. } => {
                if role.on_insert_committed(instance, slot) {
                    // The viewer was stopped while its start was still
                    // queued (the §4.1.3 stop/insert race). Now that a cub
                    // has committed it into a slot, honour the stop —
                    // otherwise the stream would play on with nobody left
                    // to deschedule it (and the standby would keep
                    // counting it).
                    self.route_deschedule(sh, now, instance, muted);
                }
            }
            Message::ViewerFinished { instance } => {
                let slot = role.viewer(&instance).and_then(|rec| rec.slot);
                if let (false, Some(slot), Some(omni)) = (muted, slot, sh.omniscient.as_mut()) {
                    omni.on_remove(slot, instance, now);
                }
                role.on_viewer_finished(instance);
            }
            Message::FailureNotice { failed } => {
                let first = !self.believes_failed.is_failed(failed);
                self.believes_failed.set_failed(failed, true);
                return (first && !muted).then_some(failed);
            }
            Message::RejoinRequest { from } => {
                // A restarted cub is routable again.
                self.believes_failed.set_failed(from, false);
            }
            other => {
                debug_assert!(false, "controller received unexpected message: {other:?}");
            }
        }
        None
    }

    /// Routes a deschedule for `instance` if the role knows its slot: the
    /// cub whose disk next services the slot (plus its successor) gets the
    /// kill. A viewer without a committed slot is tombstoned inside
    /// [`Controller::on_stop_request`] and descheduled when its
    /// `InsertCommitted` arrives.
    fn route_deschedule(
        &mut self,
        sh: &mut Shared,
        now: SimTime,
        instance: ViewerInstance,
        muted: bool,
    ) {
        let routed = self.role(muted).on_stop_request(instance, &sh.params, now);
        let Some((slot, cub)) = routed else {
            return;
        };
        if muted {
            return; // The standby mirrors the state change; it routes nothing.
        }
        sh.tracer.record(
            now,
            CTRL,
            TraceEvent::CtrlRouteDesched {
                viewer: instance.viewer.raw(),
                inc: instance.incarnation,
                slot: slot.raw(),
                target: cub.raw(),
            },
        );
        if let Some(omni) = sh.omniscient.as_mut() {
            omni.on_remove(slot, instance, now);
        }
        // §4.1.2: deschedules propagate "until they're more than
        // maxVStateLead in front of the slot being descheduled".
        let cfg = &sh.cfg;
        let lead_cubs = (cfg.max_vstate_lead.as_nanos() + cfg.deschedule_hold.as_nanos())
            .div_ceil(cfg.block_play_time.as_nanos()) as u32;
        let hops_left = (lead_cubs + 2).min(cfg.stripe.num_cubs);
        let request = Deschedule { instance, slot };
        let pair = self.living_pair(sh, cub);
        self.send_pair(sh, now, pair, |_| Message::Deschedule {
            request,
            hops_left,
        });
    }

    /// The first living cub at or after `cub` and its living successor,
    /// per the controllers' beliefs: every routed request goes to both
    /// (§4.1.3's redundant start, §4.1.2's doubled deschedule).
    fn living_pair(&self, sh: &Shared, cub: CubId) -> (CubId, Option<CubId>) {
        let n = sh.cfg.stripe.num_cubs;
        let target = self.believes_failed.first_living_at(cub, n);
        (target, self.believes_failed.next_living_within(target, n))
    }

    /// Sends `msg(false)` to the pair's target and `msg(true)` to its
    /// successor, from the acting controller's address.
    fn send_pair(
        &self,
        sh: &mut Shared,
        now: SimTime,
        (target, successor): (CubId, Option<CubId>),
        msg: impl Fn(bool) -> Message,
    ) {
        sh.send_control(now, self.node, sh.cub_node(target), msg(false));
        if let Some(succ) = successor {
            sh.send_control(now, self.node, sh.cub_node(succ), msg(true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::{StripeConfig, ViewerId};
    use tiger_sim::{Bandwidth, ByteSize, SimDuration};

    fn params() -> ScheduleParams {
        ScheduleParams::derive(
            StripeConfig::new(4, 1, 2),
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            SimDuration::from_millis(100),
            Bandwidth::from_mbit_per_sec(135),
        )
    }

    fn inst(v: u64) -> ViewerInstance {
        ViewerInstance {
            viewer: ViewerId(v),
            incarnation: 0,
        }
    }

    #[test]
    fn start_commit_stop_lifecycle() {
        let p = params();
        let mut c = Controller::new();
        assert!(c.on_start_request(inst(1)));
        assert!(!c.on_start_request(inst(1)), "duplicate");
        assert_eq!(c.active_streams(), 0, "not committed yet");
        c.on_insert_committed(inst(1), SlotId(7));
        assert_eq!(c.active_streams(), 1);
        let (slot, cub) = c
            .on_stop_request(inst(1), &p, SimTime::from_secs(10))
            .expect("known viewer");
        assert_eq!(slot, SlotId(7));
        assert!(cub.raw() < 4);
        assert_eq!(c.active_streams(), 0);
        assert!(c
            .on_stop_request(inst(1), &p, SimTime::from_secs(10))
            .is_none());
    }

    #[test]
    fn stop_routes_to_next_servicing_cub() {
        let p = params();
        let mut c = Controller::new();
        c.on_start_request(inst(1));
        c.on_insert_committed(inst(1), SlotId(0));
        let now = SimTime::from_secs(10);
        let (slot, cub) = c.on_stop_request(inst(1), &p, now).expect("known");
        // Verify the chosen cub really is the next to service the slot.
        let stripe = p.stripe();
        let mut times: Vec<(SimTime, CubId)> = (0..stripe.num_disks())
            .map(|d| {
                let disk = tiger_layout::DiskId(d);
                (p.slot_send_time(disk, slot, now), stripe.cub_of(disk))
            })
            .collect();
        times.sort();
        assert_eq!(cub, times[0].1);
    }

    #[test]
    fn stop_before_commit_is_remembered_not_dropped() {
        let p = params();
        let mut c = Controller::new();
        c.on_start_request(inst(4));
        // Stop while the start is still queued at a cub: unroutable now …
        assert!(c
            .on_stop_request(inst(4), &p, SimTime::from_secs(1))
            .is_none());
        // … but the record survives with the stop pinned to it.
        assert!(c.viewer(&inst(4)).expect("record kept").stop_wanted);
        // The commit reports the pending stop so the caller deschedules.
        assert!(c.on_insert_committed(inst(4), SlotId(2)));
        let (slot, _) = c
            .on_stop_request(inst(4), &p, SimTime::from_secs(3))
            .expect("routable once committed");
        assert_eq!(slot, SlotId(2));
        assert_eq!(c.active_streams(), 0, "commit+stop nets out");
        // A normal lifecycle reports no pending stop at commit.
        c.on_start_request(inst(5));
        assert!(!c.on_insert_committed(inst(5), SlotId(3)));
    }

    #[test]
    fn eof_releases_stream_count() {
        let mut c = Controller::new();
        c.on_start_request(inst(2));
        c.on_insert_committed(inst(2), SlotId(3));
        c.on_viewer_finished(inst(2));
        assert_eq!(c.active_streams(), 0);
        c.on_viewer_finished(inst(2)); // idempotent
        assert_eq!(c.active_streams(), 0);
    }

    #[test]
    fn request_rate_windows() {
        let mut c = Controller::new();
        c.reset_window(SimTime::ZERO);
        for i in 0..10 {
            c.on_start_request(inst(i));
        }
        assert!((c.request_rate(SimTime::from_secs(5)) - 2.0).abs() < 1e-9);
    }
}
