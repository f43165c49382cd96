//! What a cub, the controller and the copy pipeline act through (§4: each
//! acts on its own view, and on the rest of the system by messages): the
//! world, [`crate::system::Shared`]'s static half, to read, and a [`Ctx`]
//! holding the fields of the dynamic half a handler uses, each borrowed
//! straight from the system, with the event's instant and the actor's node.

use tiger_faults::{NetPerturb, Topology};
use tiger_layout::{CubId, FileCatalog};
use tiger_net::{NetNode, Network, Sent};
use tiger_proto::msg::Message;
use tiger_sched::disk_schedule::Omniscient;
use tiger_sched::ScheduleParams;
use tiger_sim::{Bandwidth, EventQueue, SimTime};
use tiger_trace::{TraceEvent, Tracer, CTRL};

use crate::backend::{Backend, Loads};
use crate::config::TigerConfig;
use crate::event::Event;
use crate::metrics::Metrics;
use crate::shield::ShieldMap;

/// The static half of the system: every handler reads it, and only
/// [`crate::TigerSystem`] writes it (loading content, a restripe cut-over).
#[derive(Debug)]
pub struct World {
    /// Static configuration.
    pub cfg: TigerConfig,
    /// Derived schedule parameters.
    pub params: ScheduleParams,
    /// The network node numbering. It counts *total* cub machines
    /// (striped plus spare), so nothing shifts when spares join the
    /// stripe at a restripe cut-over; fault plans compile against it.
    pub topology: Topology,
    /// The (replicated) file catalog.
    pub catalog: FileCatalog,
    /// The redundancy backend's placement: mirrored or coded.
    pub backend: Backend,
}

impl World {
    /// The controller's network node.
    pub fn controller_node(&self) -> NetNode {
        NetNode(0)
    }

    /// The network node of `cub`.
    pub fn cub_node(&self, cub: CubId) -> NetNode {
        NetNode(self.topology.cub_node(cub.raw()))
    }

    /// The cub machine at network node `node`, if it is one (the inverse
    /// of [`World::cub_node`]).
    pub fn cub_at(&self, node: NetNode) -> Option<CubId> {
        let c = node.raw().wrapping_sub(self.topology.cub_node(0));
        (c < self.topology.num_cubs).then_some(CubId(c))
    }

    /// The network node of client machine `client` (0-based).
    pub fn client_node(&self, client: u32) -> NetNode {
        NetNode(self.topology.client_node(client))
    }
}

/// One actor's context at one event: a cub's, or the controller's, a
/// client's or the copy pipeline's (on the `CTRL` lane).
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The static half: configuration, geometry, catalog and placement.
    pub world: &'a World,
    /// The event's instant.
    pub now: SimTime,
    /// The node this actor's sends leave from.
    pub(crate) node: NetNode,
    /// The lane this actor traces on: its cub's id, or `CTRL`.
    pub(crate) lane: u32,
    pub(crate) queue: &'a mut EventQueue<Event>,
    pub(crate) net: &'a mut Network,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) omniscient: &'a mut Option<Omniscient>,
    pub(crate) shield: &'a mut ShieldMap,
    pub(crate) loads: &'a mut Loads,
}

impl Ctx<'_> {
    /// Schedules `event` at `at`.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.schedule(at, event);
    }

    /// Records `event` on this actor's lane at the event's instant.
    #[inline]
    pub(crate) fn trace(&mut self, event: TraceEvent) {
        self.tracer.record(self.now, self.lane, event);
    }

    /// Sends control message `msg` to cub `to`.
    pub(crate) fn send(&mut self, to: CubId, msg: Message) {
        self.send_control(self.world.cub_node(to), msg);
    }

    /// Sends a controller-bound notice to the controller.
    pub(crate) fn send_to_controller(&mut self, msg: Message) {
        self.send_control(self.world.controller_node(), msg);
    }

    /// Sends a control message from this node and schedules its delivery
    /// event, an injected duplicate's first.
    fn send_control(&mut self, dst: NetNode, msg: Message) {
        let bytes = msg.control_bytes();
        let sent = self.net.send_control(self.now, self.node, dst, bytes);
        self.trace_injection(self.node, dst, sent);
        if let Some(at) = sent.dup_at {
            let msg = msg.clone();
            self.queue.schedule(at, Event::Deliver { dst, msg });
        }
        if let Some(at) = sent.at {
            self.queue.schedule(at, Event::Deliver { dst, msg });
        }
    }

    /// Sends a data transfer from `src` to `dst`: when its last byte
    /// lands, unless it is lost.
    pub(crate) fn send_data(&mut self, src: NetNode, dst: NetNode) -> Option<SimTime> {
        let sent = self.net.send_data(self.now, src, dst);
        self.trace_injection(src, dst, sent);
        sent.at
    }

    /// Opens a paced stream of `bitrate` on this node's NIC: whether it
    /// fit under the NIC's capacity.
    pub(crate) fn begin_stream(&mut self, bitrate: Bandwidth) -> bool {
        self.net.begin_stream(self.now, self.node, bitrate)
    }

    /// Closes a paced stream of `bitrate` that carried `bytes`.
    pub(crate) fn end_stream(&mut self, bitrate: Bandwidth, bytes: u64) {
        self.net.end_stream(self.now, self.node, bitrate, bytes);
    }

    /// Traces what fault injection did to one send from `src` to `dst`,
    /// on the sender's lane: a cub's own, else `CTRL`.
    fn trace_injection(&mut self, src: NetNode, dst: NetNode, sent: Sent) {
        let Some(perturb) = sent.perturb else { return };
        let lane = self.world.cub_at(src).map_or(CTRL, CubId::raw);
        let (src, dst) = (src.raw(), dst.raw());
        let mut record = |ev| self.tracer.record(self.now, lane, ev);
        match perturb {
            NetPerturb::Drop { partition } => record(TraceEvent::NetDrop {
                src,
                dst,
                partition,
            }),
            NetPerturb::Tweak { extra, duplicate } => {
                if !extra.is_zero() {
                    let extra_ns = extra.as_nanos();
                    record(TraceEvent::NetDelay { src, dst, extra_ns });
                }
                if duplicate {
                    record(TraceEvent::NetDup { src, dst });
                }
            }
        }
    }
}
