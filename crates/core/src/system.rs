//! The assembled Tiger system: event loop, node wiring, content loading,
//! fault injection, and measurement windows.

use tiger_disk::Disk;
use tiger_faults::{
    DiskFaultKind, DiskFaults, FaultPlan, NetFaults, NetPerturb, ProcFaults, ProcessFault, Topology,
};
use tiger_layout::catalog::BitrateMode;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{BlockNum, CubId, FileCatalog, FileId, ViewerId};
use tiger_net::{NetNode, Network, Sent};
use tiger_proto::msg::Message;
use tiger_sched::disk_schedule::Omniscient;
use tiger_sched::ScheduleParams;
use tiger_sim::{Bandwidth, EventQueue, RngTree, SimDuration, SimTime};
use tiger_trace::{TraceEvent, Tracer, CTRL};

use crate::backend::Backend;
use crate::client::{Client, ClientReport};
use crate::config::TigerConfig;
use crate::controller::{ControlPlane, Controller};
use crate::cpu::CpuModel;
use crate::cub::Cub;
use crate::event::Event;
use crate::metrics::{Metrics, WindowSample};
use crate::reconfig::Reconfig;
use crate::shield::ShieldMap;

/// State shared by all component handlers: the event queue, the network,
/// static configuration, and measurement sinks.
#[derive(Debug)]
pub struct Shared {
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
    /// The redundancy backend: mirrored or coded placement, and the
    /// coded backend's per-disk load rings.
    pub backend: Backend,
    /// The deterministic event queue.
    pub queue: EventQueue<Event>,
    /// The switched network.
    pub net: Network,
    /// Measurement sinks.
    pub metrics: Metrics,
    /// Omniscient hallucination checker (tests and verification runs).
    pub omniscient: Option<Omniscient>,
    /// Protocol event recorder (disabled unless `TIGER_TRACE*` is set or
    /// [`crate::TigerSystem::enable_trace`] is called). Purely an
    /// observer: nothing in the simulation reads it back, so enabling it
    /// cannot change a run.
    pub tracer: Tracer,
    /// Process-level fault injections (freeze windows). Disabled unless a
    /// fault plan was applied; like the tracer, the no-faults path costs
    /// one pointer test.
    pub faults: ProcFaults,
    /// Ready spare-shield spans: which spare serves which failed disk's
    /// mirror pieces. Cubs consult it on the cover path; empty (and
    /// costing one hash probe on the failure paths only) unless a shield
    /// campaign completed spans.
    pub shield: ShieldMap,
}

impl Shared {
    /// The (primary) controller's network node.
    pub fn controller_node(&self) -> NetNode {
        NetNode(0)
    }

    /// The backup controller's network node, if one is configured.
    pub fn backup_controller_node(&self) -> Option<NetNode> {
        self.topology.backup_node().map(NetNode)
    }

    /// Sends a controller-bound notice to the primary and, when a backup
    /// is configured, mirrors it there (state replication).
    pub fn send_to_controllers(&mut self, now: SimTime, src: NetNode, msg: Message) {
        let primary = self.controller_node();
        self.send_control(now, src, primary, msg.clone());
        if let Some(backup) = self.backup_controller_node() {
            self.send_control(now, src, backup, msg);
        }
    }

    /// The network node of `cub`.
    pub fn cub_node(&self, cub: CubId) -> NetNode {
        NetNode(self.topology.cub_node(cub.raw()))
    }

    /// The cub machine at network node `node`, if it is one (the inverse
    /// of [`Shared::cub_node`]).
    pub fn cub_at(&self, node: NetNode) -> Option<CubId> {
        let c = node.raw().wrapping_sub(self.topology.cub_node(0));
        (c < self.topology.num_cubs).then_some(CubId(c))
    }

    /// The network node of client machine `client` (0-based).
    pub fn client_node(&self, client: u32) -> NetNode {
        NetNode(self.topology.client_node(client))
    }

    /// Sends a control message and schedules its delivery event, an
    /// injected duplicate's first.
    pub fn send_control(&mut self, now: SimTime, src: NetNode, dst: NetNode, msg: Message) {
        let sent = self.net.send_control(now, src, dst, msg.control_bytes());
        self.trace_injection(now, src, dst, sent);
        if let Some(at) = sent.dup_at {
            let msg = msg.clone();
            self.queue.schedule(at, Event::Deliver { dst, msg });
        }
        if let Some(at) = sent.at {
            self.queue.schedule(at, Event::Deliver { dst, msg });
        }
    }

    /// Traces what fault injection did to one send from `src` to `dst`,
    /// on the sender's lane: a cub's own, else CTRL.
    pub(crate) fn trace_injection(&mut self, now: SimTime, src: NetNode, dst: NetNode, sent: Sent) {
        let Some(perturb) = sent.perturb else { return };
        let lane = self.cub_at(src).map_or(CTRL, CubId::raw);
        let (src, dst) = (src.raw(), dst.raw());
        let tracer = &mut self.tracer;
        match perturb {
            NetPerturb::Drop { partition } => {
                let ev = TraceEvent::NetDrop {
                    src,
                    dst,
                    partition,
                };
                tracer.record(now, lane, ev);
            }
            NetPerturb::Tweak { extra, duplicate } => {
                if !extra.is_zero() {
                    let extra_ns = extra.as_nanos();
                    tracer.record(now, lane, TraceEvent::NetDelay { src, dst, extra_ns });
                }
                if duplicate {
                    tracer.record(now, lane, TraceEvent::NetDup { src, dst });
                }
            }
        }
    }
}

/// The whole simulated Tiger system.
#[derive(Debug)]
pub struct TigerSystem {
    pub(crate) shared: Shared,
    pub(crate) cubs: Vec<Cub>,
    pub(crate) clients: Vec<Client>,
    cpu: CpuModel,
    /// The primary controller and its optional hot standby.
    pub(crate) ctl: ControlPlane,
    /// Restripe steps, shield campaigns and their copy lanes.
    pub(crate) reconfig: Reconfig,
    next_viewer: u64,
    clients_handed: u32,
    /// Events dispatched so far, by [`Event::kind`].
    dispatched_by_kind: [u64; Event::KIND_NAMES.len()],
}

impl TigerSystem {
    /// Builds an idle system (no content, no viewers) from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TigerConfig::validate`]).
    pub fn new(cfg: TigerConfig) -> Self {
        cfg.validate();
        let params = cfg.schedule_params();
        let catalog = FileCatalog::new(
            cfg.stripe,
            cfg.block_play_time,
            cfg.max_bitrate,
            BitrateMode::Single,
        );
        let rng = RngTree::new(cfg.seed);
        let total_cubs = cfg.total_cubs();
        let topology = Topology {
            num_cubs: total_cubs,
            num_clients: cfg.num_clients,
            backup_controller: cfg.backup_controller,
        };
        let nodes = 1 + total_cubs + cfg.num_clients + u32::from(cfg.backup_controller);
        let net = Network::new(nodes, cfg.nic_capacity, cfg.latency, rng.fork("net", 0));
        let mut cubs = Vec::with_capacity(total_cubs as usize);
        for c in 0..total_cubs {
            let disks: Vec<Disk> = (0..cfg.stripe.disks_per_cub)
                .map(|l| {
                    Disk::new(
                        cfg.disk.clone(),
                        rng.fork("disk", u64::from(c) * 1000 + u64::from(l)),
                    )
                })
                .collect();
            let mut cub = Cub::new(CubId(c), total_cubs, disks, &cfg);
            // Spares are powered machines with live disks (they receive
            // moved blocks during a live restripe) but not ring members:
            // they run no protocol work until the cut-over activates them,
            // and every ring member starts out believing them failed.
            if c >= cfg.stripe.num_cubs {
                cub.failed = true;
            }
            cubs.push(cub);
        }
        for cub in &mut cubs {
            for s in cfg.stripe.num_cubs..total_cubs {
                cub.mark_believed_failed(CubId(s));
            }
        }
        let clients = (0..cfg.num_clients).map(|_| Client::new()).collect();
        let backend = Backend::new(&cfg);
        let striped = cfg.stripe.num_cubs;
        // Pre-size the event queue's slab for full load, so no run regrows
        // it: viewer state runs up to `max_vstate_lead` ahead of the sends,
        // each block in that lead keeps a `ReadIssue` and a `SendDue` pending
        // per shard (18 events a stream at `sosp97`, 17.6 measured), plus
        // periodic work and queued starts; the bucket being drained left it.
        let lead = cfg.max_vstate_lead.as_nanos();
        let shards = backend.shards() as usize;
        let per_stream = 2 * lead.div_ceil(cfg.block_play_time.as_nanos()) as usize * shards;
        let queue_hint = params.capacity() as usize * per_stream + nodes as usize * 4 + 128;
        let mut sys = TigerSystem {
            shared: Shared {
                cfg,
                params,
                topology,
                catalog,
                backend,
                queue: EventQueue::with_capacity(queue_hint),
                net,
                metrics: Metrics::new(),
                omniscient: None,
                tracer: Tracer::from_env(),
                faults: ProcFaults::disabled(),
                shield: ShieldMap::default(),
            },
            cubs,
            clients,
            cpu: CpuModel::pentium133(),
            // The controller, too, routes around spares until cut-over.
            ctl: ControlPlane::new(total_cubs, striped),
            reconfig: Reconfig::default(),
            next_viewer: 0,
            clients_handed: 0,
            dispatched_by_kind: [0; Event::KIND_NAMES.len()],
        };
        for c in 0..striped {
            sys.arm_periodic(CubId(c), SimTime::ZERO, true);
        }
        sys
    }

    /// Enables the omniscient hallucination checker; tests use this to
    /// verify every cub action against the materialized global schedule.
    ///
    /// The in-flight grace window covers the maximum viewer-state lead plus
    /// one block play time: an end-of-file notice (and hence the checker's
    /// removal) can run that far ahead of the stream's final block send.
    pub fn enable_omniscient(&mut self) {
        let grace = self.shared.cfg.max_vstate_lead
            + self.shared.cfg.block_play_time
            + SimDuration::from_millis(500);
        self.shared.omniscient =
            Some(Omniscient::new(self.shared.params.clone()).with_grace(grace));
    }

    /// Turns on protocol tracing with a ring of `cap` events,
    /// irrespective of the environment. Tests use this instead of setting
    /// `TIGER_TRACE` (the test suite runs multithreaded, and process
    /// environment mutations race across tests).
    pub fn enable_trace(&mut self, cap: usize) {
        self.shared.tracer = Tracer::enabled(cap);
    }

    /// The tracer (read-only; tests assert on its records).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Runs `f` with direct mutable access to one cub and the shared
    /// state. Test support: the deadman edge-case tests drive individual
    /// handlers (`on_deadman_check` at an exact instant) without steering
    /// the whole event loop there.
    pub fn with_cub_mut<R>(&mut self, cub: CubId, f: impl FnOnce(&mut Cub, &mut Shared) -> R) -> R {
        f(&mut self.cubs[cub.index()], &mut self.shared)
    }

    /// The one place a cub's periodic work — forwarding passes, deadman
    /// pings and checks — is armed: at start-up, after a restart, and when
    /// a cut-over absorbs a spare. Each chain's due time is recorded on
    /// the cub and `dispatch` honours a periodic event only at or after
    /// it, so an event still queued from the cub's previous life dies
    /// instead of running a second chain beside the new one.
    ///
    /// Start-up staggers the work across cubs so the simulation does not
    /// synchronize artificial load spikes, and pings at once. A revived or
    /// absorbed cub starts a full interval out — its deadman check one
    /// full timeout after `restart` reset every last-heard clock, so the
    /// fresh baseline can never declare a predecessor on stale silence.
    pub(crate) fn arm_periodic(&mut self, cub: CubId, now: SimTime, startup: bool) {
        let cfg = &self.shared.cfg;
        let slice = |interval: SimDuration| {
            let n = u64::from(cfg.stripe.num_cubs);
            let nanos = interval.as_nanos() * u64::from(cub.raw()) / n;
            SimDuration::from_nanos(if startup { nanos } else { 0 })
        };
        let forward = now + cfg.forward_interval + slice(cfg.forward_interval);
        let check = now + cfg.deadman_timeout + slice(cfg.deadman_interval);
        let ping = if startup {
            now + slice(cfg.deadman_interval) + SimDuration::from_millis(1)
        } else {
            now + cfg.deadman_interval
        };
        let c = &mut self.cubs[cub.index()];
        // Until the first start-up pass fires `next_forward_pass` stays
        // ZERO ("a pass is overdue"): acceptance reads it to decide whether
        // a record can wait, and must not forward promptly before then.
        if !startup {
            c.next_forward_pass = forward;
        }
        c.next_deadman_ping = ping;
        c.next_deadman_check = check;
        let queue = &mut self.shared.queue;
        queue.schedule(forward, Event::ForwardPass { cub });
        queue.schedule(ping, Event::DeadmanPing { cub });
        queue.schedule(check, Event::DeadmanCheck { cub });
    }

    // --- Content loading ---------------------------------------------------

    /// Adds a file of `bitrate` and `duration`, laying its primary blocks
    /// and declustered mirror pieces out across every disk (§2.2–§2.3).
    pub fn add_file(&mut self, bitrate: Bandwidth, duration: SimDuration) -> FileId {
        let file = self.shared.catalog.add_file(bitrate, duration);
        let meta = *self.shared.catalog.get(file).expect("just added");
        let stripe = self.shared.params.stripe();
        for b in 0..meta.num_blocks {
            let loc = self
                .shared
                .catalog
                .locate(file, BlockNum(b))
                .expect("in range");
            let local = stripe.local_index_of(loc.disk);
            self.cubs[loc.cub.index()].load_primary(
                loc.disk,
                local,
                file,
                BlockNum(b),
                self.shared.backend.primary_extent(meta.block_size),
            );
        }
        // The secondary region allocates independently of the primary one,
        // so the mirror pieces are laid out in a pass of their own.
        self.lay_secondaries(&meta);
        file
    }

    /// Hands out a client machine index (round-robin over the
    /// `TigerConfig::num_clients` pre-allocated client machines).
    pub fn add_client(&mut self) -> u32 {
        let idx = self.clients_handed % self.shared.cfg.num_clients;
        self.clients_handed += 1;
        idx
    }

    // --- Workload API --------------------------------------------------------

    /// Schedules a start request from `client` for `file` at time `at`.
    /// Returns the viewer instance that will be used.
    pub fn request_start(&mut self, at: SimTime, client: u32, file: FileId) -> ViewerInstance {
        self.request_start_at(at, client, file, 0)
    }

    /// Schedules a start request beginning at `from_block` (VCR semantics:
    /// a resume or a chapter jump starts mid-file).
    pub fn request_start_at(
        &mut self,
        at: SimTime,
        client: u32,
        file: FileId,
        from_block: u32,
    ) -> ViewerInstance {
        assert!(client < self.shared.cfg.num_clients, "unknown client");
        let instance = ViewerInstance {
            viewer: ViewerId(self.next_viewer),
            incarnation: 0,
        };
        self.next_viewer += 1;
        self.shared.queue.schedule(
            at,
            Event::ClientStart {
                client,
                file,
                from_block,
                instance,
            },
        );
        instance
    }

    /// Schedules a stop request for `instance` at time `at`.
    pub fn request_stop(&mut self, at: SimTime, instance: ViewerInstance) {
        self.shared
            .queue
            .schedule(at, Event::ClientStop { instance });
    }

    /// Schedules a pause: the viewer leaves the schedule (a deschedule),
    /// but the client remembers how far it got so a later
    /// [`TigerSystem::request_resume`] can pick up from there.
    pub fn request_pause(&mut self, at: SimTime, instance: ViewerInstance) {
        self.request_stop(at, instance);
    }

    /// Schedules a resume of a paused viewer: a fresh play instance (the
    /// incarnation number bumps, so stale deschedules cannot kill it,
    /// §4.1.2) starting at the first block the paused instance did not
    /// receive. Returns the resumed instance.
    pub fn request_resume(&mut self, at: SimTime, instance: ViewerInstance) -> ViewerInstance {
        self.shared
            .queue
            .schedule(at, Event::ClientResume { instance });
        instance.next_incarnation()
    }

    /// Schedules a seek: stop the current play instance and start a new
    /// incarnation at `to_block`. Returns the new instance.
    pub fn request_seek(
        &mut self,
        at: SimTime,
        instance: ViewerInstance,
        to_block: u32,
    ) -> ViewerInstance {
        self.shared
            .queue
            .schedule(at, Event::ClientSeek { instance, to_block });
        instance.next_incarnation()
    }

    /// Schedules a power-cut of `cub` at time `at`.
    pub fn fail_cub_at(&mut self, at: SimTime, cub: CubId) {
        self.shared.queue.schedule(at, Event::FailCub { cub });
    }

    /// Schedules a controller-attributed trace annotation at `at` —
    /// experiment drivers use this to drop timeline markers (e.g. a
    /// workload plan's flash-crowd onset) into the same ring buffer the
    /// protocol events land in, so churn can be correlated against its
    /// cause in one dump. A no-op unless tracing is enabled.
    pub fn trace_note_at(&mut self, at: SimTime, ev: TraceEvent) {
        self.note_at(at, CTRL, ev);
    }

    /// Schedules trace marker `ev` on `lane` (a cub id, or `CTRL`) at `at`.
    fn note_at(&mut self, at: SimTime, lane: u32, ev: TraceEvent) {
        let note = Event::FaultNote { cub: lane, ev };
        self.shared.queue.schedule(at, note);
    }

    /// Compiles and installs a declarative fault plan (see
    /// [`tiger_faults::FaultPlan`]): network injectors on the switch, disk
    /// injectors on each targeted drive, freeze windows on the event loop,
    /// and one-shot faults (crashes, power-domain cuts, disk deaths) as
    /// scheduled events. Fault randomness draws from a dedicated
    /// `"faults"` RNG subtree, so an empty plan leaves the run
    /// byte-identical and a fixed plan perturbs nothing but itself.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let topo = self.shared.topology;
        let disks_per_cub = self.shared.cfg.stripe.disks_per_cub;
        let tree = RngTree::new(self.shared.cfg.seed).subtree("faults", 0);
        let net_faults = NetFaults::compile(plan, topo, tree.fork("net", 0));
        if net_faults.active() {
            self.shared.net.set_faults(net_faults);
        }
        for c in 0..topo.num_cubs {
            for l in 0..disks_per_cub {
                let df = DiskFaults::compile(
                    plan,
                    c,
                    l,
                    tree.fork("disk", u64::from(c) * 1000 + u64::from(l)),
                );
                if df.active() {
                    self.cubs[c as usize].disks_mut()[l as usize].set_faults(df);
                }
            }
        }
        self.shared.faults = ProcFaults::compile(plan);
        for pf in &plan.process {
            match pf {
                ProcessFault::Crash { cub, at } => self.fail_cub_at(*at, CubId(*cub)),
                ProcessFault::PowerDomain { cubs, at } => {
                    // One physical power domain: every cub on it dies at
                    // the same instant (correlated, not independent).
                    for &c in cubs {
                        self.fail_cub_at(*at, CubId(c));
                    }
                }
                ProcessFault::Freeze { cub, from, until } => {
                    self.note_at(*from, *cub, TraceEvent::CubFreeze { cub: *cub });
                    self.note_at(*until, *cub, TraceEvent::CubResume { cub: *cub });
                }
                ProcessFault::Restart { cub, at } => self.restart_cub_at(*at, CubId(*cub)),
            }
        }
        for decl in &plan.restripes {
            self.enqueue_restripe(decl.at, decl.add_cubs, decl.remove_cubs);
        }
        for df in &plan.disks {
            if let DiskFaultKind::Death { at } = df.kind {
                self.shared.queue.schedule(
                    at,
                    Event::FailDisk {
                        cub: CubId(df.cub),
                        disk_local: df.disk,
                    },
                );
            }
        }
        for w in plan.windows() {
            self.note_at(w.from, CTRL, TraceEvent::FaultStart { clause: w.clause });
            if w.until < SimTime::MAX {
                self.note_at(w.until, CTRL, TraceEvent::FaultEnd { clause: w.clause });
            }
        }
    }

    /// Invariant check: no living cub's schedule view runs further ahead
    /// of real time than `maxVStateLead` allows (§3.3), plus one slack
    /// term for the declustered mirror fan-out (a failure forwards mirror
    /// entries up to `decluster + 1` slots ahead of the primary's time).
    /// Returns violation strings (empty = pass). On rings short enough
    /// that the legitimate lead wraps the whole schedule the check is
    /// vacuous and reports nothing.
    pub fn check_view_lead(&self) -> Vec<String> {
        let now = self.shared.queue.now();
        let params = &self.shared.params;
        let stripe = params.stripe();
        let bpt = params.block_play_time();
        let max_lead =
            self.shared.cfg.max_vstate_lead + bpt.mul_u64(u64::from(stripe.decluster) + 1);
        if max_lead >= params.schedule_len() {
            return Vec::new();
        }
        let mut violations = Vec::new();
        for cub in &self.cubs {
            if cub.failed {
                continue;
            }
            // Listed by slot: the view's own order is arbitrary.
            let mut entries: Vec<_> = cub.view().iter().collect();
            entries.sort_by_key(|&(slot, _)| slot);
            for (slot, entry) in entries {
                // A just-serviced entry awaiting the retirement pass
                // measures a whole lap ahead; only entries still waiting
                // for their service count against the lead.
                if cub.already_served(entry) {
                    continue;
                }
                // The entry is due when the earliest of this cub's disks
                // next meets the slot.
                let lead = (0..stripe.disks_per_cub)
                    .map(|l| {
                        let disk = stripe.disk_of(cub.id, l);
                        params.slot_send_time(disk, slot, now).saturating_since(now)
                    })
                    .min()
                    .unwrap_or(SimDuration::ZERO);
                if lead > max_lead {
                    violations.push(format!(
                        "{}: view entry for slot {} (viewer {}) leads by {lead:?} > \
                         {max_lead:?} at {now}",
                        cub.id,
                        slot.raw(),
                        entry.instance.viewer.raw(),
                    ));
                }
            }
        }
        violations
    }

    /// Schedules a power-cut of the primary controller at time `at`. With
    /// a backup controller configured, the backup promotes itself after
    /// the failover timeout; without one, running streams continue
    /// unaffected but no new viewer can start or stop (the paper's §2.3
    /// single-point-of-failure caveat).
    pub fn fail_controller_at(&mut self, at: SimTime) {
        self.shared.queue.schedule(at, Event::FailController);
    }

    // --- Event loop ----------------------------------------------------------

    /// Runs the simulation until `horizon` (inclusive).
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((now, event)) = self.shared.queue.pop_until(horizon) {
            self.dispatch(now, event);
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.queue.now()
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        self.dispatched_by_kind[event.kind()] += 1;
        if self.shared.faults.active() {
            if let Some(cub) = self.frozen_target(&event) {
                if let Some(resume) = self.shared.faults.frozen_until(cub.raw(), now) {
                    // A frozen cub processes nothing: its events are parked
                    // until the resume instant. Arrival order is preserved
                    // (the queue breaks timestamp ties by insertion order),
                    // so a thaw replays the backlog in the original order.
                    self.shared.queue.schedule(resume, event);
                    return;
                }
            }
        }
        // Debug builds check that every handler of a cub leaves its buffer
        // pool at rest.
        let ran_on = if cfg!(debug_assertions) {
            self.frozen_target(&event)
        } else {
            None
        };
        match event {
            Event::Deliver { dst, msg } => self.on_deliver(now, dst, msg),
            Event::ReadIssue { cub, token } => {
                self.cubs[cub.index()].on_read_issue(&mut self.shared, now, token);
            }
            Event::PoolFloor { cub } => {
                self.cubs[cub.index()].on_pool_floor(&mut self.shared, now);
            }
            Event::DiskDone { cub, token } => {
                self.cubs[cub.index()].on_disk_done(&mut self.shared, now, token);
            }
            Event::SendDue { cub, token } => {
                self.cubs[cub.index()].on_send_due(&mut self.shared, now, token);
            }
            Event::SendDone { cub, token } => {
                self.cubs[cub.index()].on_send_done(&mut self.shared, now, token);
            }
            // Periodic work. An event ahead of its chain's due time is not
            // the chain's own: an extra one-shot forward pass (commit_insert
            // schedules those; they run but must not multiply), or a ping or
            // check queued before a crash that a fast restart overtook.
            Event::ForwardPass { cub } => {
                let c = &mut self.cubs[cub.index()];
                let periodic = c.next_forward_pass <= now;
                c.on_forward_pass(&mut self.shared, now);
                if periodic && !c.failed {
                    let next = now + self.shared.cfg.forward_interval;
                    c.next_forward_pass = next;
                    self.shared.queue.schedule(next, Event::ForwardPass { cub });
                }
            }
            Event::InsertAttempt { cub } => {
                self.cubs[cub.index()].on_insert_attempt(&mut self.shared, now);
            }
            ev @ (Event::DeadmanPing { cub } | Event::DeadmanCheck { cub }) => {
                let c = &mut self.cubs[cub.index()];
                let ping = matches!(ev, Event::DeadmanPing { .. });
                let due = if ping {
                    &mut c.next_deadman_ping
                } else {
                    &mut c.next_deadman_check
                };
                if *due <= now {
                    let next = now + self.shared.cfg.deadman_interval;
                    *due = next;
                    if ping {
                        c.on_deadman_ping(&mut self.shared, now);
                    } else {
                        c.on_deadman_check(&mut self.shared, now);
                    }
                    if !c.failed {
                        self.shared.queue.schedule(next, ev);
                    }
                }
            }
            Event::FailCub { cub } => {
                self.shared
                    .tracer
                    .record(now, CTRL, TraceEvent::PowerCut { cub: cub.raw() });
                self.cubs[cub.index()].power_cut(&mut self.shared, now);
                let node = self.shared.cub_node(cub);
                self.shared.net.fail_node(node);
            }
            Event::FailDisk { cub, disk_local } => {
                self.shared.tracer.record(
                    now,
                    CTRL,
                    TraceEvent::DiskDeath {
                        cub: cub.raw(),
                        disk: disk_local,
                    },
                );
                self.cubs[cub.index()].disks_mut()[disk_local as usize].fail(now);
            }
            Event::FaultNote { cub, ev } => {
                self.shared.tracer.record(now, cub, ev);
            }
            Event::FailController => {
                let node = self.shared.controller_node();
                self.shared.net.fail_node(node);
                if self.shared.cfg.backup_controller {
                    self.shared.queue.schedule_in(
                        self.shared.cfg.controller_failover_timeout,
                        Event::PromoteBackup,
                    );
                }
            }
            Event::PromoteBackup => {
                // Queued by `FailController` only when a backup is configured.
                let node = self.shared.backup_controller_node();
                self.ctl
                    .promote(node.expect("promotion requires a configured backup"));
            }
            Event::ClientStart {
                client,
                file,
                from_block,
                instance,
            } => {
                self.on_client_start(now, client, file, from_block, instance);
            }
            Event::ClientStop { instance } => self.on_client_stop(now, instance),
            Event::ClientResume { instance } => self.reincarnate(now, instance, None),
            Event::ClientSeek { instance, to_block } => {
                self.reincarnate(now, instance, Some(to_block));
            }
            Event::RestartCub { cub } => self.restart_cub(now, cub),
            Event::RestripeStart => self.restripe_start(now),
            Event::CopyTick { lane } => self.copy_tick(now, lane),
            Event::CopyRead { lane, idx } => {
                self.with_lane(now, lane, |p, sh, cubs| p.on_read_done(sh, cubs, now, idx));
            }
            Event::CopyArrive { lane, idx } => {
                self.with_lane(now, lane, |p, sh, cubs| p.on_arrive(sh, cubs, now, idx));
            }
        }
        if let Some(cub) = ran_on {
            let at_rest = self.cubs[cub.index()].pool_settled();
            debug_assert!(at_rest, "{cub}: buffer pool left unsettled at {now}");
        }
    }

    /// The cub whose execution `event` represents, if freeze deferral
    /// applies. Fault-injection events are exempt (a power cut kills even
    /// a frozen cub), as is controller and client work: freezes model a
    /// stalled cub process, nothing else.
    fn frozen_target(&self, event: &Event) -> Option<CubId> {
        match event {
            Event::Deliver { dst, .. } => self.shared.cub_at(*dst),
            Event::ReadIssue { cub, .. }
            | Event::PoolFloor { cub }
            | Event::DiskDone { cub, .. }
            | Event::SendDue { cub, .. }
            | Event::SendDone { cub, .. }
            | Event::ForwardPass { cub }
            | Event::InsertAttempt { cub }
            | Event::DeadmanPing { cub }
            | Event::DeadmanCheck { cub } => Some(*cub),
            _ => None,
        }
    }

    fn on_deliver(&mut self, now: SimTime, dst: NetNode, msg: Message) {
        if let Some(cub) = self.shared.cub_at(dst) {
            return self.cubs[cub.index()].on_message(&mut self.shared, now, msg);
        }
        let to_standby = Some(dst) == self.shared.backup_controller_node();
        if to_standby || dst == self.shared.controller_node() {
            if let Some(failed) = self.ctl.on_message(&mut self.shared, now, to_standby, msg) {
                self.maybe_shield(now, failed);
            }
        } else {
            let client = dst.raw() - self.shared.client_node(0).raw();
            self.on_client_message(now, client, msg);
        }
    }

    fn on_client_message(&mut self, now: SimTime, client: u32, msg: Message) {
        let Message::StreamData {
            instance,
            block,
            piece,
            total_pieces,
            ..
        } = msg
        else {
            debug_assert!(false, "client received unexpected message: {msg:?}");
            return;
        };
        let c = &mut self.clients[client as usize];
        if let Some(v) = c.on_stream_data(instance, block, piece, total_pieces, now) {
            // `on_stream_data` returns a viewer just as its first block lands.
            let latency = v.start_latency_secs().expect("first block just arrived");
            self.shared.metrics.record_start(v.load_at_request, latency);
        }
    }

    pub(crate) fn on_client_start(
        &mut self,
        now: SimTime,
        client: u32,
        file: FileId,
        from_block: u32,
        instance: ViewerInstance,
    ) {
        let Some(meta) = self.shared.catalog.get(file).copied() else {
            return;
        };
        if from_block >= meta.num_blocks {
            return; // Nothing to play.
        }
        let load = f64::from(self.controller().active_streams())
            / f64::from(self.shared.params.capacity());
        self.clients[client as usize].on_request(
            instance,
            file,
            meta.num_blocks,
            from_block,
            now,
            load,
        );
        let node = self.shared.client_node(client);
        self.shared.send_to_controllers(
            now,
            node,
            Message::StartRequest {
                client: node.raw(),
                instance,
                file,
                from_block,
                requested_at: now,
            },
        );
    }

    /// The one VCR transition: starts `instance`'s next incarnation (the
    /// number bumps, so stale deschedules cannot kill it, §4.1.2) at
    /// `seek_to`, or — a resume — at the first block the paused instance
    /// did not receive.
    fn reincarnate(&mut self, now: SimTime, instance: ViewerInstance, seek_to: Option<u32>) {
        let held = self.clients.iter().enumerate().find_map(|(i, c)| {
            let v = c.viewer(&instance)?;
            Some((i as u32, v.file, v.resume_block()))
        });
        let Some((client, file, resume_at)) = held else {
            return;
        };
        if seek_to.is_some() {
            // Stop the old instance (idempotent if already gone) first.
            self.on_client_stop(now, instance);
        }
        let next = instance.next_incarnation();
        let to_block = seek_to.unwrap_or(resume_at);
        self.shared.tracer.record(
            now,
            CTRL,
            TraceEvent::SessionTransition {
                viewer: next.viewer.raw(),
                inc: next.incarnation,
                kind: if seek_to.is_some() { 2 } else { 1 },
                to_block,
            },
        );
        self.on_client_start(now, client, file, to_block, next);
    }

    fn on_client_stop(&mut self, now: SimTime, instance: ViewerInstance) {
        // The owning client tells the controllers, whatever their tables
        // say: its start may still be on the wire, and control delivery
        // is FIFO per channel, so the stop lands after it.
        let Some(client) = self.clients.iter_mut().position(|c| c.on_stopped(instance)) else {
            return; // Never requested, or already stopped.
        };
        let node = self.shared.client_node(client as u32);
        self.shared
            .send_to_controllers(now, node, Message::StopRequest { instance });
    }

    // --- Reporting -----------------------------------------------------------

    /// Access to the shared state (tests and experiment drivers).
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// How many events of each kind the event loop has dispatched, those
    /// it parked for a frozen cub included: where a run's events go.
    pub fn events_dispatched_by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let counts = self.dispatched_by_kind.iter();
        Event::KIND_NAMES.iter().copied().zip(counts.copied())
    }

    /// The cubs (read-only).
    pub fn cubs(&self) -> &[Cub] {
        &self.cubs
    }

    /// The acting controller (read-only).
    pub fn controller(&self) -> &Controller {
        self.ctl.acting()
    }

    /// Aggregate report for one client machine.
    pub fn client_report(&self, client: u32) -> ClientReport {
        self.clients[client as usize].report()
    }

    /// Aggregate report across all clients.
    pub fn all_clients_report(&self) -> ClientReport {
        let mut total = ClientReport::default();
        for c in &self.clients {
            let r = c.report();
            total.completed_viewers += r.completed_viewers;
            total.stopped_viewers += r.stopped_viewers;
            total.never_started += r.never_started;
            total.blocks_received += r.blocks_received;
            total.blocks_missing += r.blocks_missing;
            total.dup_blocks += r.dup_blocks;
        }
        total
    }

    /// The clients (read-only).
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Rebuilds this system's content on a new hardware configuration
    /// (§2.2 restriping). Restriping is an offline operation: all viewers
    /// stop, the mover plan is computed and "executed" (its duration
    /// estimated from the plan and the hardware rates), and a fresh system
    /// comes up with every file re-laid-out on the new geometry.
    ///
    /// Returns the new system and the executed plan.
    pub fn restripe_into(
        self,
        new_stripe: tiger_layout::StripeConfig,
    ) -> (TigerSystem, tiger_layout::RestripePlan) {
        let old_stripe = self.shared.cfg.stripe;
        let plan = tiger_layout::RestripePlan::plan(&self.shared.catalog, old_stripe, new_stripe);
        let mut cfg = self.shared.cfg.clone();
        cfg.stripe = new_stripe;
        let mut sys = TigerSystem::new(cfg);
        // Reload the catalog in file order so ids are preserved.
        for meta in self.shared.catalog.files() {
            let duration = self
                .shared
                .cfg
                .block_play_time
                .mul_u64(u64::from(meta.num_blocks));
            let id = sys.add_file(meta.bitrate, duration);
            debug_assert_eq!(id, meta.id, "file ids must survive a restripe");
        }
        (sys, plan)
    }

    /// Finalizes and returns the omniscient checker's violations, merging
    /// them into the metrics.
    pub fn take_violations(&mut self) -> Vec<String> {
        let mut v = self.shared.metrics.violations.clone();
        if let Some(omni) = &self.shared.omniscient {
            v.extend(omni.violations().iter().cloned());
        }
        v
    }

    /// Closes a measurement window at `now`: computes the Figure 8/9 row
    /// (loads, control traffic) and starts a fresh window.
    ///
    /// `report_cub` selects the cub whose control traffic is plotted and,
    /// if `disk_report_cub` is set, whose disks' load is reported (the
    /// failed-mode test reports a mirroring cub's disks).
    pub fn sample_window(
        &mut self,
        now: SimTime,
        report_cub: CubId,
        disk_report_cub: Option<CubId>,
    ) -> WindowSample {
        let mut cub_cpu_sum = 0.0;
        let mut living = 0u32;
        for cub in &self.cubs {
            if cub.failed {
                continue;
            }
            living += 1;
            let node = self.shared.cub_node(cub.id);
            let bytes = self.shared.net.nic(node).window_bytes_per_sec(now);
            let ios: f64 = cub
                .disks()
                .iter()
                .map(|d| d.window_reads_per_sec(now))
                .sum();
            let msgs = self.shared.net.control_msg_rate(now, node) + cub.msgs_processed_rate(now);
            cub_cpu_sum += self.cpu.cub_load(bytes, ios, msgs);
        }
        // NIC utilization is reported for the selected cub, matching the
        // paper's per-cub send-rate quotes (a mirroring cub in the failed
        // test).
        let report_node = self.shared.cub_node(report_cub);
        let nic_util = self.shared.net.nic_mut(report_node).window_utilization(now);
        let controller_cpu = self.cpu.controller_load(
            self.controller().request_rate(now),
            self.shared
                .net
                .control_msg_rate(now, self.shared.controller_node()),
        );
        let disk_load = {
            let cubs: Vec<&Cub> = match disk_report_cub {
                Some(c) => vec![&self.cubs[c.index()]],
                None => self.cubs.iter().filter(|c| !c.failed).collect(),
            };
            let mut sum = 0.0;
            let mut n = 0u32;
            for cub in cubs {
                for d in cub.disks() {
                    if !d.is_failed() {
                        sum += d.load_window(now);
                        n += 1;
                    }
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / f64::from(n)
            }
        };
        let sample = WindowSample {
            at: now,
            streams: self.controller().active_streams(),
            cub_cpu: if living == 0 {
                0.0
            } else {
                cub_cpu_sum / f64::from(living)
            },
            controller_cpu,
            disk_load,
            control_bytes_per_sec: self.shared.net.control_rate(now, report_node),
            nic_utilization: nic_util,
        };
        self.shared.metrics.windows.push(sample.clone());
        self.reset_windows(now);
        sample
    }

    fn reset_windows(&mut self, now: SimTime) {
        self.shared.net.reset_windows(now);
        self.ctl.reset_window(now);
        for cub in &mut self.cubs {
            cub.reset_window(now);
        }
    }
}
