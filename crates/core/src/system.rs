//! The assembled Tiger system: event loop, node wiring, content loading,
//! fault injection, and measurement windows.

use tiger_coded::CodedPlacement;
use tiger_disk::Disk;
use tiger_faults::{
    DiskFaultKind, DiskFaults, FaultPlan, NetFaults, NetInjection, NetInjectionKind, ProcFaults,
    ProcessFault, Topology,
};
use tiger_layout::catalog::BitrateMode;
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{
    BlockNum, CubId, DiskId, FileCatalog, FileId, MirrorPiece, MirrorPlacement, Redundancy as _,
    RedundancyMode, StripeConfig, ViewerId,
};
use tiger_net::{NetNode, Network};
use tiger_proto::msg::Message;
use tiger_proto::Membership;
use tiger_sched::disk_schedule::Omniscient;
use tiger_sched::{Deschedule, NetworkSchedule, ScheduleParams};
use tiger_sim::{Bandwidth, ByteSize, EventQueue, RngTree, SimDuration, SimTime};
use tiger_trace::{TraceEvent, Tracer, CTRL};

use crate::client::{Client, ClientReport};
use crate::config::TigerConfig;
use crate::controller::Controller;
use crate::cpu::CpuModel;
use crate::cub::Cub;
use crate::event::Event;
use crate::metrics::{Metrics, WindowSample};

/// State shared by all component handlers: the event queue, the network,
/// static configuration, and measurement sinks.
#[derive(Debug)]
pub struct Shared {
    /// Static configuration.
    pub cfg: TigerConfig,
    /// Derived schedule parameters.
    pub params: ScheduleParams,
    /// The (replicated) file catalog.
    pub catalog: FileCatalog,
    /// Mirror placement helper.
    pub placement: MirrorPlacement,
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
    /// Coded-backend runtime (shard placement plus the per-disk load
    /// index holder choice ranks against). `None` under mirroring.
    pub coded: Option<CodedRuntime>,
    /// Ready spare-shield spans: which spare serves which failed disk's
    /// mirror pieces. Cubs consult it on the cover path; empty (and
    /// costing one hash probe on the failure paths only) unless a shield
    /// campaign completed spans.
    pub shield: crate::shield::ShieldMap,
}

/// Runtime state of the `tiger-coded` backend: the shard placement and
/// one admission ring per *disk* — PR 7's incrementally-maintained load
/// index, reused here so the home's coordinator can rank a block's
/// `2k − 1` candidate shard holders by how loaded each disk already is
/// at the block's ring position. Capacity is effectively unbounded (the
/// rings track load, they never reject), and reservations are released
/// when the home's schedule entry is reclaimed.
#[derive(Debug)]
pub struct CodedRuntime {
    /// Shard placement/geometry helper (`k = decluster`, `n = 2k`).
    pub placement: CodedPlacement,
    /// Per-disk load rings, indexed by `DiskId`.
    pub loads: Vec<NetworkSchedule>,
    /// Ring length (`block_play_time × num_disks`), cached for position
    /// arithmetic.
    ring_len: SimDuration,
    /// Entry quantum (= the block play time).
    quantum: SimDuration,
}

impl CodedRuntime {
    /// Builds the runtime for `stripe` with entry windows of `bpt`.
    pub fn new(stripe: StripeConfig, bpt: SimDuration) -> Self {
        let num_disks = stripe.num_disks();
        // The rings only *measure* load; give them more capacity than any
        // schedule can commit so an insert never rejects.
        let unbounded = Bandwidth::from_bits_per_sec(1 << 60);
        let loads = (0..num_disks)
            .map(|_| NetworkSchedule::new(num_disks, bpt, unbounded, Some(bpt)))
            .collect();
        CodedRuntime {
            placement: CodedPlacement::new(stripe),
            loads,
            ring_len: bpt.mul_u64(u64::from(num_disks)),
            quantum: bpt,
        }
    }

    /// The quantized ring position of absolute time `at`.
    fn ring_pos(&self, at: SimTime) -> SimDuration {
        let pos = SimDuration::from_nanos(at.as_nanos() % self.ring_len.as_nanos());
        pos - SimDuration::from_nanos(pos.as_nanos() % self.quantum.as_nanos())
    }

    /// Peak reserved load on `disk` in the entry window containing `at`.
    pub fn load_at(&self, disk: DiskId, at: SimTime) -> Bandwidth {
        self.loads[disk.index()].max_load_in_entry_window(self.ring_pos(at))
    }

    /// Reserves `rate` on `disk` for `instance` around `at` (the block's
    /// send window). Idempotence is not needed: each accepted block
    /// reserves once and releases at reclaim.
    pub fn reserve(
        &mut self,
        disk: DiskId,
        instance: ViewerInstance,
        at: SimTime,
        rate: Bandwidth,
    ) {
        let pos = self.ring_pos(at);
        let _ = self.loads[disk.index()].insert(instance, pos, rate, false);
    }

    /// Releases every reservation `instance` holds on the `2k` disks of
    /// the block homed on `home`.
    pub fn release(&mut self, home: DiskId, instance: ViewerInstance) {
        for j in 0..self.placement.n() {
            let d = self.placement.shard_disk(home, j);
            self.loads[d.index()].remove_instance(instance);
        }
    }
}

impl Shared {
    /// The (primary) controller's network node.
    pub fn controller_node(&self) -> NetNode {
        NetNode(0)
    }

    /// The backup controller's network node, if one is configured. It
    /// sits past the clients in the node numbering. Node numbering counts
    /// *total* cub machines (striped plus spare) so nothing shifts when
    /// spares join the stripe at a restripe cut-over.
    pub fn backup_controller_node(&self) -> Option<NetNode> {
        self.cfg
            .backup_controller
            .then(|| NetNode(1 + self.cfg.total_cubs() + self.cfg.num_clients))
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
        NetNode(1 + cub.raw())
    }

    /// The network node of client machine `client` (0-based).
    pub fn client_node(&self, client: u32) -> NetNode {
        NetNode(1 + self.cfg.total_cubs() + client)
    }

    /// Sends a control message and schedules its delivery event.
    pub fn send_control(&mut self, now: SimTime, src: NetNode, dst: NetNode, msg: Message) {
        let at = self.net.send_control(now, src, dst, msg.control_bytes());
        if self.net.has_fault_injections() {
            for inj in self.net.take_fault_injections() {
                if let NetInjectionKind::Duplicated { second_delivery } = inj.kind {
                    self.queue.schedule(
                        second_delivery,
                        Event::Deliver {
                            dst,
                            msg: msg.clone(),
                        },
                    );
                }
                self.record_net_injection(now, &inj);
            }
        }
        if let Some(at) = at {
            self.queue.schedule(at, Event::Deliver { dst, msg });
        }
    }

    /// How many sends a healthy block is assembled from, the home's own
    /// being the first: 1 under mirroring (the whole block), `k` under
    /// the coded backend (the home's primary extent is shard 0).
    pub fn primary_shards(&self) -> u32 {
        self.coded.as_ref().map_or(1, |c| c.placement.k())
    }

    /// Bytes of a block stored in the home disk's primary region: the
    /// whole block under mirroring, one shard under the coded backend.
    pub fn primary_extent(&self, block_size: ByteSize) -> ByteSize {
        block_size.div_u64_ceil(u64::from(self.primary_shards()))
    }

    /// The secondary pieces of a block homed on `home`, per the active
    /// redundancy backend.
    pub fn secondary_pieces(&self, home: DiskId, block_size: ByteSize) -> Vec<MirrorPiece> {
        match &self.coded {
            Some(c) => c.placement.secondary_pieces(home, block_size),
            None => self.placement.pieces_for(home, block_size),
        }
    }

    /// Trace cub id for a fault event on network node `node`: cubs record
    /// on their own lane, everything else (controllers, clients) on CTRL.
    fn fault_lane(&self, node: u32) -> u32 {
        let cubs = self.cfg.total_cubs();
        if node >= 1 && node <= cubs {
            node - 1
        } else {
            CTRL
        }
    }

    fn record_net_injection(&mut self, now: SimTime, inj: &NetInjection) {
        let lane = self.fault_lane(inj.src);
        let ev = match inj.kind {
            NetInjectionKind::Dropped { partition } => TraceEvent::NetDrop {
                src: inj.src,
                dst: inj.dst,
                partition,
            },
            NetInjectionKind::Delayed { extra } => TraceEvent::NetDelay {
                src: inj.src,
                dst: inj.dst,
                extra_ns: extra.as_nanos(),
            },
            NetInjectionKind::Duplicated { .. } => TraceEvent::NetDup {
                src: inj.src,
                dst: inj.dst,
            },
        };
        self.tracer.record(now, lane, ev);
    }

    /// Drains and traces data-plane injections after a
    /// [`tiger_net::Network::send_data`] call (cub send path). The data
    /// plane never duplicates, so only drops and delays can appear here.
    pub fn trace_net_injections(&mut self, now: SimTime) {
        if self.net.has_fault_injections() {
            for inj in self.net.take_fault_injections() {
                debug_assert!(
                    !matches!(inj.kind, NetInjectionKind::Duplicated { .. }),
                    "send_data must never duplicate"
                );
                self.record_net_injection(now, &inj);
            }
        }
    }
}

/// The whole simulated Tiger system.
#[derive(Debug)]
pub struct TigerSystem {
    shared: Shared,
    cubs: Vec<Cub>,
    controller: Controller,
    clients: Vec<Client>,
    cpu: CpuModel,
    /// The controller's failure beliefs (for routing around dead cubs) —
    /// the same sans-io [`Membership`] vector the cubs' ring machines use.
    controller_believes_failed: Membership,
    /// Hot-standby controller state, mirrored from the cubs' notices.
    backup: Controller,
    /// Where clients currently address controller requests.
    active_controller: NetNode,
    /// Whether the backup has taken over.
    promoted: bool,
    next_viewer: u64,
    clients_handed: u32,
    window_start: SimTime,
    /// When each cub's next *periodic* forward pass is due (extra one-shot
    /// passes triggered by fresh inserts do not reschedule).
    periodic_forward_due: Vec<SimTime>,
    /// An in-progress live restripe, if one is executing.
    restripe: Option<crate::restripe::LiveRestripe>,
    /// The geometry delta the restripe currently executing (or armed to
    /// start) applies at its cut-over.
    restripe_step: Option<RestripeStep>,
    /// Queued follow-on restripe steps, executed in order: each starts at
    /// the previous step's cut-over (or at its own armed start time,
    /// whichever is later).
    restripe_queue: std::collections::VecDeque<RestripeStep>,
    /// How many [`Event::RestripeStart`] instants have fired while an
    /// earlier step was still executing: each arms the next queued step
    /// to begin at that step's cut-over.
    restripe_armed: usize,
    /// Background spare-shield copy pipeline (None when idle).
    shield_exec: Option<crate::shield::ShieldExec>,
    /// Striped cubs already shielded in the current geometry epoch (the
    /// campaign runs once per failure declaration; cleared at cut-over).
    shield_done: std::collections::HashSet<CubId>,
    /// Spares currently holding shield copies (one campaign per spare).
    shield_spares_used: std::collections::HashSet<CubId>,
}

/// One queued restripe step: the membership delta applied at its
/// cut-over. Exactly one of `add`/`remove` is nonzero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestripeStep {
    /// Spares absorbed into the stripe.
    pub add: u32,
    /// Trailing stripe members drained and fenced out (they rejoin the
    /// spare pool).
    pub remove: u32,
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
        let params = ScheduleParams::derive(
            cfg.stripe,
            cfg.block_play_time,
            cfg.block_size(),
            cfg.disk_worst_read(),
            cfg.nic_capacity,
        )
        .with_scheduling_lead(cfg.scheduling_lead)
        .with_ownership_duration(cfg.ownership_duration);
        let catalog = FileCatalog::new(
            cfg.stripe,
            cfg.block_play_time,
            cfg.max_bitrate,
            BitrateMode::Single,
        );
        let rng = RngTree::new(cfg.seed);
        let total_cubs = cfg.total_cubs();
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
            let mut cub = Cub::new(CubId(c), total_cubs, disks);
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
        let placement = MirrorPlacement::new(cfg.stripe);
        let coded = (cfg.redundancy == RedundancyMode::Coded)
            .then(|| CodedRuntime::new(cfg.stripe, cfg.block_play_time));
        let num_cubs = total_cubs;
        let cfg_striped = cfg.stripe.num_cubs;
        // Pre-size the event queue for a full-load steady state so long
        // ramps never regrow the heap mid-run: each active stream keeps a
        // handful of events in flight (read issue/done, send due/done,
        // delivery), plus per-node periodic work and driver-queued starts.
        let queue_hint = params.capacity() as usize * 8 + nodes as usize * 4 + 128;
        let mut sys = TigerSystem {
            shared: Shared {
                cfg,
                params,
                catalog,
                placement,
                queue: EventQueue::with_capacity(queue_hint),
                net,
                metrics: Metrics::new(),
                omniscient: None,
                tracer: Tracer::from_env(),
                faults: ProcFaults::disabled(),
                coded,
                shield: crate::shield::ShieldMap::default(),
            },
            cubs,
            controller: Controller::new(),
            clients,
            cpu: CpuModel::pentium133(),
            // The controller, too, routes around spares until cut-over.
            controller_believes_failed: Membership::with_spares(num_cubs, cfg_striped),
            backup: Controller::new(),
            active_controller: NetNode(0),
            promoted: false,
            next_viewer: 0,
            clients_handed: 0,
            window_start: SimTime::ZERO,
            periodic_forward_due: vec![SimTime::ZERO; num_cubs as usize],
            restripe: None,
            restripe_step: None,
            restripe_queue: std::collections::VecDeque::new(),
            restripe_armed: 0,
            shield_exec: None,
            shield_done: std::collections::HashSet::new(),
            shield_spares_used: std::collections::HashSet::new(),
        };
        sys.schedule_periodic_events();
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

    fn schedule_periodic_events(&mut self) {
        let cfg = &self.shared.cfg;
        let n = u64::from(cfg.stripe.num_cubs);
        for c in 0..cfg.stripe.num_cubs {
            // Stagger periodic work across cubs so the simulation does not
            // synchronize artificial load spikes.
            let offset =
                SimDuration::from_nanos(cfg.forward_interval.as_nanos() * u64::from(c) / n);
            self.shared.queue.schedule(
                SimTime::ZERO + cfg.forward_interval + offset,
                Event::ForwardPass { cub: CubId(c) },
            );
            let ping_offset =
                SimDuration::from_nanos(cfg.deadman_interval.as_nanos() * u64::from(c) / n);
            self.shared.queue.schedule(
                SimTime::ZERO + ping_offset + SimDuration::from_millis(1),
                Event::DeadmanPing { cub: CubId(c) },
            );
            self.shared.queue.schedule(
                SimTime::ZERO + cfg.deadman_timeout + ping_offset,
                Event::DeadmanCheck { cub: CubId(c) },
            );
        }
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
                self.shared.primary_extent(meta.block_size),
            );
            for piece in self.shared.secondary_pieces(loc.disk, meta.block_size) {
                let pcub = stripe.cub_of(piece.disk);
                let plocal = stripe.local_index_of(piece.disk);
                self.cubs[pcub.index()].load_secondary(
                    piece.disk,
                    plocal,
                    file,
                    BlockNum(b),
                    piece.piece,
                    piece.size,
                );
            }
        }
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
        ViewerInstance {
            viewer: instance.viewer,
            incarnation: instance.incarnation + 1,
        }
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
        ViewerInstance {
            viewer: instance.viewer,
            incarnation: instance.incarnation + 1,
        }
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
        self.shared
            .queue
            .schedule(at, Event::FaultNote { cub: CTRL, ev });
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
        // The topology counts total cub machines (striped + spare): node
        // numbering places clients after every cub machine, and fault
        // selectors must resolve to the same nodes the system uses.
        let num_cubs = self.shared.cfg.total_cubs();
        let disks_per_cub = self.shared.cfg.stripe.disks_per_cub;
        let topo = Topology {
            num_cubs,
            num_clients: self.shared.cfg.num_clients,
            backup_controller: self.shared.cfg.backup_controller,
        };
        let tree = RngTree::new(self.shared.cfg.seed).subtree("faults", 0);
        let net_faults = NetFaults::compile(plan, topo, tree.fork("net", 0));
        if net_faults.active() {
            self.shared.net.set_faults(net_faults);
        }
        for c in 0..num_cubs {
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
                    self.shared.queue.schedule(
                        *from,
                        Event::FaultNote {
                            cub: *cub,
                            ev: TraceEvent::CubFreeze { cub: *cub },
                        },
                    );
                    self.shared.queue.schedule(
                        *until,
                        Event::FaultNote {
                            cub: *cub,
                            ev: TraceEvent::CubResume { cub: *cub },
                        },
                    );
                }
                ProcessFault::Restart { cub, at } => {
                    self.shared
                        .queue
                        .schedule(*at, Event::RestartCub { cub: CubId(*cub) });
                }
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
            self.shared.queue.schedule(
                w.from,
                Event::FaultNote {
                    cub: CTRL,
                    ev: TraceEvent::FaultStart { clause: w.clause },
                },
            );
            if w.until < SimTime::MAX {
                self.shared.queue.schedule(
                    w.until,
                    Event::FaultNote {
                        cub: CTRL,
                        ev: TraceEvent::FaultEnd { clause: w.clause },
                    },
                );
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
            for (slot, entry) in cub.view().iter() {
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

    // --- Online recovery -----------------------------------------------------

    /// Schedules a restart of a crashed/fenced cub at time `at`: it comes
    /// back with empty schedule state and re-learns its slots via the
    /// rejoin protocol.
    pub fn restart_cub_at(&mut self, at: SimTime, cub: CubId) {
        self.shared.queue.schedule(at, Event::RestartCub { cub });
    }

    /// Schedules a live restripe at time `at` that absorbs `add_cubs` of
    /// the provisioned spares into the stripe. The moves execute as
    /// background work inside the event loop; when the last block lands,
    /// the system cuts over to the new geometry and re-inserts every
    /// running viewer. Steps queue: a request issued while an earlier
    /// step is still executing arms the next step to begin at that
    /// step's cut-over.
    ///
    /// # Panics
    ///
    /// Panics if the step is invalid against the membership projected
    /// through every step already accepted (see `enqueue_restripe`).
    pub fn request_restripe(&mut self, at: SimTime, add_cubs: u32) {
        self.enqueue_restripe(at, add_cubs, 0);
    }

    /// Schedules a live *shrink* at time `at`: the last `remove_cubs`
    /// stripe members drain their primaries to the survivors through the
    /// background mirror lane, then are fenced out of the ring at the
    /// cut-over and rejoin the spare pool.
    ///
    /// # Panics
    ///
    /// Panics if the step is invalid (see `enqueue_restripe`).
    pub fn request_restripe_remove(&mut self, at: SimTime, remove_cubs: u32) {
        self.enqueue_restripe(at, 0, remove_cubs);
    }

    /// Queues one restripe step (grow or shrink; both-zero is a legal
    /// no-op step that cuts over immediately), validating it against the
    /// membership *projected* through every previously accepted step.
    ///
    /// # Panics
    ///
    /// Panics if both of `add`/`remove` are nonzero, if a grow exceeds
    /// the projected spare pool, or if a shrink would not leave at least
    /// one striped cub.
    pub fn enqueue_restripe(&mut self, at: SimTime, add: u32, remove: u32) {
        assert!(
            add == 0 || remove == 0,
            "a restripe step adds or removes cubs, not both (add={add}, remove={remove})"
        );
        // Project membership through the executing step and the queue.
        let mut striped = self.shared.cfg.stripe.num_cubs;
        let mut spares = self.shared.cfg.spare_cubs;
        for step in self.restripe_step.iter().chain(self.restripe_queue.iter()) {
            striped = striped + step.add - step.remove;
            spares = spares - step.add + step.remove;
        }
        assert!(
            add <= spares,
            "restripe adds {add} cubs but only {spares} spares are (projected) provisioned"
        );
        assert!(
            remove < striped,
            "restripe removes {remove} of {striped} (projected) striped cubs; at least one must remain"
        );
        self.restripe_queue.push_back(RestripeStep { add, remove });
        self.shared.queue.schedule(at, Event::RestripeStart);
    }

    /// Handles [`Event::RestartCub`]: revive the machine with empty
    /// schedule state, announce the rejoin, and resume periodic work
    /// under a fresh monitoring baseline.
    fn restart_cub(&mut self, now: SimTime, cub: CubId) {
        let striped = self.shared.cfg.stripe.num_cubs;
        if cub.raw() >= striped {
            return; // Spares join via a restripe cut-over, not a rejoin.
        }
        if !self.cubs[cub.index()].failed {
            return; // Never crashed, or already restarted.
        }
        self.shared
            .tracer
            .record(now, CTRL, TraceEvent::CubRestart { cub: cub.raw() });
        let node = self.shared.cub_node(cub);
        self.shared.net.revive_node(now, node);
        self.cubs[cub.index()].restart(now, striped);
        // Announce the rejoin to every striped cub and the controllers:
        // receivers clear their failure belief and re-baseline deadman
        // monitoring; ring neighbours answer with their own belief lists
        // (bounded-view exchange) and the covering mirror partner opens
        // its hand-back window.
        for c in 0..striped {
            if c != cub.raw() {
                let dst = self.shared.cub_node(CubId(c));
                self.shared
                    .send_control(now, node, dst, Message::RejoinRequest { from: cub });
            }
        }
        self.shared
            .send_to_controllers(now, node, Message::RejoinRequest { from: cub });
        // Restart periodic work. The deadman check fires one full timeout
        // out, and `restart` reset every last-heard clock to `now`, so the
        // fresh baseline can never declare a predecessor on stale silence.
        let next_fwd = now + self.shared.cfg.forward_interval;
        self.periodic_forward_due[cub.index()] = next_fwd;
        self.cubs[cub.index()].next_forward_pass = next_fwd;
        self.shared
            .queue
            .schedule(next_fwd, Event::ForwardPass { cub });
        self.shared.queue.schedule(
            now + self.shared.cfg.deadman_interval,
            Event::DeadmanPing { cub },
        );
        self.shared.queue.schedule(
            now + self.shared.cfg.deadman_timeout,
            Event::DeadmanCheck { cub },
        );
    }

    /// Handles [`Event::RestripeStart`]: pop the next queued step and
    /// start its background pipeline — or, if an earlier step is still
    /// executing, arm the step to begin at that step's cut-over.
    fn restripe_start(&mut self, now: SimTime) {
        if self.restripe_step.is_some() {
            // Busy: remember that this step's start time has passed so
            // the cut-over launches it immediately.
            self.restripe_armed += 1;
            return;
        }
        let Some(step) = self.restripe_queue.pop_front() else {
            return;
        };
        self.restripe_step = Some(step);
        self.begin_restripe(now, step);
    }

    /// Plans and launches one restripe step's background move pipeline.
    fn begin_restripe(&mut self, now: SimTime, step: RestripeStep) {
        let old = self.shared.cfg.stripe;
        let new = tiger_layout::StripeConfig::new(
            old.num_cubs + step.add - step.remove,
            old.disks_per_cub,
            old.decluster,
        );
        let plan = tiger_layout::RestripePlan::plan(&self.shared.catalog, old, new);
        self.shared.tracer.record(
            now,
            CTRL,
            TraceEvent::RestripeStart {
                moves: plan.moves().len() as u32,
            },
        );
        self.restripe = Some(crate::restripe::LiveRestripe::new(plan, now));
        if self.restripe.as_ref().is_some_and(|lr| lr.pending() == 0) {
            self.restripe_cutover(now);
        } else {
            self.with_restripe(now, |lr, sh, cubs| lr.pump(sh, cubs, now));
            self.shared
                .queue
                .schedule(now + SimDuration::from_millis(100), Event::RestripeTick);
        }
    }

    /// The live-restripe cut-over barrier: every moved block has landed,
    /// so swap the system to the new geometry in one event. Running
    /// viewers are carried across by re-insertion — their old-incarnation
    /// records are fenced with deschedules and a fresh incarnation starts
    /// at each viewer's high-water mark, so no block is played twice and
    /// at most the in-flight window is re-requested.
    fn restripe_cutover(&mut self, now: SimTime) {
        let Some(lr) = self.restripe.take() else {
            return;
        };
        self.restripe_step = None;
        let plan = lr.into_plan();
        let old = plan.old_config();
        let new = plan.new_config();
        self.shared.tracer.record(
            now,
            CTRL,
            TraceEvent::RestripeCutover {
                moved: plan.moves().len() as u32,
            },
        );
        // 1. Collect the live viewers (deterministically: clients in index
        // order, instances sorted) before any state is torn down.
        let mut live: Vec<(u32, ViewerInstance, FileId, u32)> = Vec::new();
        for ci in 0..self.clients.len() as u32 {
            let mut here: Vec<(u32, ViewerInstance, FileId, u32)> = self.clients[ci as usize]
                .viewers()
                .filter(|(_, v)| !v.stopped && !v.complete())
                .map(|(&inst, v)| {
                    let resume = v.high_water.map_or(v.base_block, |h| h + 1);
                    (ci, inst, v.file, resume)
                })
                .collect();
            here.sort_by_key(|&(_, inst, _, _)| (inst.viewer.raw(), inst.incarnation));
            live.extend(here);
        }
        // 2. Fence the old incarnations: deschedules (slot from the
        // controller's commit record) block any old-geometry record still
        // in flight from re-entering a view after the swap.
        let fences: Vec<Deschedule> = live
            .iter()
            .filter_map(|&(_, inst, _, _)| {
                let rec = self
                    .controller
                    .viewer(&inst)
                    .or_else(|| self.backup.viewer(&inst))?;
                rec.slot.map(|slot| Deschedule {
                    instance: inst,
                    slot,
                })
            })
            .collect();
        let hold_until = now + self.shared.cfg.deschedule_hold + self.shared.cfg.max_vstate_lead;
        for &(ci, inst, _, _) in &live {
            self.controller.on_viewer_finished(inst);
            self.backup.on_viewer_finished(inst);
            self.clients[ci as usize].on_stopped(inst);
        }
        for cub in &mut self.cubs {
            cub.cutover_reset(now, &fences, hold_until);
        }
        // 3. Swap the geometry: config, derived parameters, catalog
        // start-disks, mirror placement. Absorbed spares leave the spare
        // pool; shrunk-out members rejoin it.
        self.shared.cfg.stripe = new;
        if new.num_cubs >= old.num_cubs {
            self.shared.cfg.spare_cubs -= new.num_cubs - old.num_cubs;
        } else {
            self.shared.cfg.spare_cubs += old.num_cubs - new.num_cubs;
        }
        self.shared.params = ScheduleParams::derive(
            new,
            self.shared.cfg.block_play_time,
            self.shared.cfg.block_size(),
            self.shared.cfg.disk_worst_read(),
            self.shared.cfg.nic_capacity,
        )
        .with_scheduling_lead(self.shared.cfg.scheduling_lead)
        .with_ownership_duration(self.shared.cfg.ownership_duration);
        self.shared.catalog.restripe(new);
        self.shared.placement = MirrorPlacement::new(new);
        if self.shared.coded.is_some() {
            // Fresh rings: cut-over re-inserts every carried viewer, so
            // stale load reservations must not leak into the new geometry.
            self.shared.coded = Some(CodedRuntime::new(new, self.shared.cfg.block_play_time));
        }
        // 4. Layout: drop the source entries of every moved block (the
        // copy already landed at its destination during the background
        // phase) and re-derive the mirror layout wholesale.
        for mv in plan.moves() {
            let src = old.cub_of(mv.from);
            self.cubs[src.index()].remove_primary_entry(mv.from, mv.file, mv.block);
        }
        self.relay_secondaries();
        // 5. Ring: activate the absorbed spares (their disks were live all
        // along) / fence out the shrunk members (their disks and NICs
        // stay alive — they are spares again, with emptied primaries) and
        // distribute the ground-truth membership map — the restriper's
        // cut-over barrier is the one moment it is known.
        for j in old.num_cubs..new.num_cubs {
            self.cubs[j as usize].failed = false;
        }
        for j in new.num_cubs..old.num_cubs {
            self.cubs[j as usize].failed = true;
            self.shared
                .tracer
                .record(now, CTRL, TraceEvent::ShrinkFence { cub: j });
        }
        let failed_map: Vec<bool> = self.cubs.iter().map(|c| c.failed).collect();
        for cub in &mut self.cubs {
            cub.set_ring_state(&failed_map, now);
        }
        self.controller_believes_failed.reset_from(&failed_map);
        for j in old.num_cubs..new.num_cubs {
            let cub = CubId(j);
            let next_fwd = now + self.shared.cfg.forward_interval;
            self.periodic_forward_due[j as usize] = next_fwd;
            self.cubs[j as usize].next_forward_pass = next_fwd;
            self.shared
                .queue
                .schedule(next_fwd, Event::ForwardPass { cub });
            self.shared.queue.schedule(
                now + self.shared.cfg.deadman_interval,
                Event::DeadmanPing { cub },
            );
            self.shared.queue.schedule(
                now + self.shared.cfg.deadman_timeout,
                Event::DeadmanCheck { cub },
            );
        }
        // 6. The omniscient checker's materialized schedule is keyed to
        // the old geometry; rebuild it fresh (with its insertion grace).
        if self.shared.omniscient.is_some() {
            self.enable_omniscient();
        }
        // 7. Re-insert every carried viewer as a fresh incarnation at its
        // high-water mark (a normal start request through the controller).
        for (ci, inst, file, resume) in live {
            let renewed = ViewerInstance {
                viewer: inst.viewer,
                incarnation: inst.incarnation + 1,
            };
            self.on_client_start(now, ci, file, resume, renewed);
        }
        // 8. Shield copies rode the secondary layout `relay_secondaries`
        // just rebuilt: the permanent mirror geometry has absorbed the
        // exposure, so the interim shield evaporates with it.
        self.shared.shield.clear();
        self.shield_exec = None;
        self.shield_done.clear();
        self.shield_spares_used.clear();
        // 9. Launch the next queued step if its start time already passed
        // while this step was executing.
        if self.restripe_armed > 0 {
            self.restripe_armed -= 1;
            self.restripe_start(now);
        }
    }

    /// Re-derives every cub's mirror (secondary) layout for the current
    /// stripe: the declustered pieces of each block, placed by the same
    /// rule content loading uses.
    fn relay_secondaries(&mut self) {
        for cub in &mut self.cubs {
            cub.clear_secondary_layout();
        }
        let stripe = self.shared.params.stripe();
        let files = self.shared.catalog.files().to_vec();
        for meta in files {
            for b in 0..meta.num_blocks {
                let loc = self
                    .shared
                    .catalog
                    .locate(meta.id, BlockNum(b))
                    .expect("in range");
                for piece in self.shared.secondary_pieces(loc.disk, meta.block_size) {
                    let pcub = stripe.cub_of(piece.disk);
                    let plocal = stripe.local_index_of(piece.disk);
                    self.cubs[pcub.index()].load_secondary(
                        piece.disk,
                        plocal,
                        meta.id,
                        BlockNum(b),
                        piece.piece,
                        piece.size,
                    );
                }
            }
        }
    }

    // --- Spare shield --------------------------------------------------------

    /// A cub was first declared failed: if the shield is enabled and a
    /// free spare exists, start background-copying the mirror pieces
    /// shadowing the failed cub's disks (the now most-exposed decluster
    /// spans) onto the spare, which serves them if a second failure lands
    /// before the restripe cut-over rebuilds permanent redundancy.
    fn maybe_shield(&mut self, now: SimTime, failed: CubId) {
        let stripe = self.shared.cfg.stripe;
        if !self.shared.cfg.spare_shield
            || self.shared.cfg.redundancy != RedundancyMode::Mirrored
            || failed.raw() >= stripe.num_cubs
            || !self.shield_done.insert(failed)
        {
            return;
        }
        // Lowest free spare: powered, not a stripe member, not already
        // holding another campaign's copies.
        let total = self.shared.cfg.total_cubs();
        let Some(spare) = (stripe.num_cubs..total).map(CubId).find(|&s| {
            self.cubs[s.index()].failed
                && !self.shield_spares_used.contains(&s)
                && self.cubs[s.index()].disks().iter().all(|d| !d.is_failed())
        }) else {
            self.shield_done.remove(&failed);
            return; // No spare free; a later declaration may find one.
        };
        // Build the copy list: for every block homed on a failed cub's
        // disk, each surviving holder's mirror piece (skipping holders
        // the controller already believes failed — those pieces are the
        // already-lost case the shield cannot help).
        let mut copies = Vec::new();
        let files = self.shared.catalog.files().to_vec();
        for l in 0..stripe.disks_per_cub {
            let home = stripe.disk_of(failed, l);
            for meta in &files {
                for b in 0..meta.num_blocks {
                    let loc = self
                        .shared
                        .catalog
                        .locate(meta.id, BlockNum(b))
                        .expect("in range");
                    if loc.disk != home {
                        continue;
                    }
                    for piece in self.shared.secondary_pieces(home, meta.block_size) {
                        let holder = stripe.cub_of(piece.disk);
                        if self.controller_believes_failed.is_failed(holder) {
                            continue;
                        }
                        copies.push(crate::shield::ShieldCopy {
                            src: piece.disk,
                            home,
                            home_local: l,
                            spare,
                            file: meta.id,
                            block: BlockNum(b),
                            piece: piece.piece,
                            size: piece.size,
                        });
                    }
                }
            }
        }
        if copies.is_empty() {
            self.shield_done.remove(&failed);
            return;
        }
        self.shield_spares_used.insert(spare);
        let was_idle = self.shield_exec.is_none();
        self.shield_exec
            .get_or_insert_with(|| crate::shield::ShieldExec::new(stripe, now))
            .extend(copies);
        self.with_shield(|se, sh, cubs| se.pump(sh, cubs, now));
        if was_idle && self.shield_exec.is_some() {
            self.shared
                .queue
                .schedule(now + SimDuration::from_millis(100), Event::ShieldTick);
        }
    }

    /// Handles [`Event::ShieldTick`]: pump the copy pipeline and re-arm
    /// while work remains.
    fn shield_tick(&mut self, now: SimTime) {
        self.with_shield(|se, sh, cubs| se.pump(sh, cubs, now));
        if self.shield_exec.is_some() {
            self.shared
                .queue
                .schedule(now + SimDuration::from_millis(100), Event::ShieldTick);
        }
    }

    /// Runs `f` against the in-progress shield pipeline (no-op if none),
    /// dropping it once every copy has landed.
    fn with_shield(
        &mut self,
        f: impl FnOnce(&mut crate::shield::ShieldExec, &mut Shared, &mut [Cub]),
    ) {
        let Some(mut se) = self.shield_exec.take() else {
            return;
        };
        f(&mut se, &mut self.shared, &mut self.cubs);
        if se.pending() > 0 {
            self.shield_exec = Some(se);
        }
    }

    /// A canonical digest of the primary block layout: every indexed
    /// `(file, block, disk)` triple, sorted. Two systems with byte-equal
    /// digests place every block identically — the live-restripe test
    /// compares against a statically restriped target.
    pub fn layout_digest(&self) -> String {
        let mut lines: Vec<String> = self
            .cubs
            .iter()
            .flat_map(|cub| {
                cub.index()
                    .primary_keys()
                    .map(|(disk, file, block)| {
                        format!("{:08} {:08} {:08}", file.raw(), block.raw(), disk.raw())
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        lines.sort();
        lines.join("\n")
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
        match event {
            Event::Deliver { dst, msg } => self.on_deliver(now, dst, msg),
            Event::ReadIssue { cub, token } => {
                self.cubs[cub.index()].on_read_issue(&mut self.shared, now, token);
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
            Event::ForwardPass { cub } => {
                let c = &mut self.cubs[cub.index()];
                let was_periodic = self.periodic_forward_due[cub.index()] <= now;
                c.on_forward_pass(&mut self.shared, now);
                // Reschedule only the periodic pass (commit_insert schedules
                // extra one-shot passes that must not multiply).
                if was_periodic && !c.failed {
                    let next = now + self.shared.cfg.forward_interval;
                    self.periodic_forward_due[cub.index()] = next;
                    c.next_forward_pass = next;
                    self.shared.queue.schedule(next, Event::ForwardPass { cub });
                }
            }
            Event::InsertAttempt { cub } => {
                self.cubs[cub.index()].on_insert_attempt(&mut self.shared, now);
            }
            Event::DeadmanPing { cub } => {
                let c = &mut self.cubs[cub.index()];
                c.on_deadman_ping(&mut self.shared, now);
                if !c.failed {
                    self.shared
                        .queue
                        .schedule_in(self.shared.cfg.deadman_interval, Event::DeadmanPing { cub });
                }
            }
            Event::DeadmanCheck { cub } => {
                let c = &mut self.cubs[cub.index()];
                c.on_deadman_check(&mut self.shared, now);
                if !c.failed {
                    self.shared.queue.schedule_in(
                        self.shared.cfg.deadman_interval,
                        Event::DeadmanCheck { cub },
                    );
                }
            }
            Event::FailCub { cub } => {
                self.shared
                    .tracer
                    .record(now, CTRL, TraceEvent::PowerCut { cub: cub.raw() });
                self.cubs[cub.index()].power_cut(now);
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
                if !self.promoted {
                    self.promoted = true;
                    // The mirrored state becomes authoritative and clients
                    // are re-pointed at the backup's address.
                    self.controller = std::mem::take(&mut self.backup);
                    self.active_controller = self
                        .shared
                        .backup_controller_node()
                        .expect("promotion requires a configured backup");
                }
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
            Event::ClientResume { instance } => self.on_client_resume(now, instance),
            Event::ClientSeek { instance, to_block } => {
                self.on_client_seek(now, instance, to_block);
            }
            Event::RestartCub { cub } => self.restart_cub(now, cub),
            Event::RestripeStart => self.restripe_start(now),
            Event::RestripeTick => {
                self.with_restripe(now, |lr, sh, cubs| lr.pump(sh, cubs, now));
                if self.restripe.is_some() {
                    self.shared
                        .queue
                        .schedule(now + SimDuration::from_millis(100), Event::RestripeTick);
                }
            }
            Event::RestripeRead { idx } => {
                self.with_restripe(now, |lr, sh, cubs| lr.on_read_done(sh, cubs, now, idx));
            }
            Event::RestripeArrive { idx } => {
                self.with_restripe(now, |lr, sh, cubs| lr.on_arrive(sh, cubs, now, idx));
            }
            Event::ShieldTick => self.shield_tick(now),
            Event::ShieldRead { idx } => {
                self.with_shield(|se, sh, cubs| se.on_read_done(sh, cubs, now, idx));
            }
            Event::ShieldArrive { idx } => {
                self.with_shield(|se, sh, cubs| se.on_arrive(sh, cubs, now, idx));
            }
        }
    }

    /// Runs `f` against the in-progress restripe (no-op if none), then
    /// cuts over if every move has landed.
    fn with_restripe(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut crate::restripe::LiveRestripe, &mut Shared, &mut [Cub]),
    ) {
        let Some(mut lr) = self.restripe.take() else {
            return;
        };
        f(&mut lr, &mut self.shared, &mut self.cubs);
        let done = lr.pending() == 0;
        self.restripe = Some(lr);
        if done {
            self.restripe_cutover(now);
        }
    }

    /// The cub whose execution `event` represents, if freeze deferral
    /// applies. Fault-injection events are exempt (a power cut kills even
    /// a frozen cub), as is controller and client work: freezes model a
    /// stalled cub process, nothing else.
    fn frozen_target(&self, event: &Event) -> Option<CubId> {
        let num_cubs = self.shared.cfg.total_cubs();
        match event {
            Event::Deliver { dst, .. } => {
                (dst.raw() >= 1 && dst.raw() <= num_cubs).then(|| CubId(dst.raw() - 1))
            }
            Event::ReadIssue { cub, .. }
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
        let num_cubs = self.shared.cfg.total_cubs();
        if dst == self.shared.controller_node() {
            self.on_controller_message(now, msg);
        } else if Some(dst) == self.shared.backup_controller_node() {
            self.on_backup_message(now, msg);
        } else if dst.raw() >= 1 && dst.raw() <= num_cubs {
            let cub = CubId(dst.raw() - 1);
            self.cubs[cub.index()].on_message(&mut self.shared, now, msg);
        } else {
            let client = dst.raw() - 1 - num_cubs;
            self.on_client_message(now, client, msg);
        }
    }

    /// The backup controller: before promotion it only mirrors state;
    /// after promotion it runs the full controller logic.
    fn on_backup_message(&mut self, now: SimTime, msg: Message) {
        if self.promoted {
            return self.on_controller_message(now, msg);
        }
        match msg {
            Message::StartRequest {
                client,
                instance,
                file,
                requested_at,
                ..
            } => {
                self.backup
                    .on_start_request(instance, file, client, requested_at);
            }
            Message::InsertCommitted {
                instance,
                slot,
                first_send,
                ..
            } => {
                self.backup.on_insert_committed(instance, slot, first_send);
            }
            Message::StopRequest { instance } => {
                // The un-promoted backup only mirrors state; its routing
                // decision is discarded, so it must not trace one.
                let _ = self.backup.on_stop_request(
                    instance,
                    &self.shared.params,
                    now,
                    &mut Tracer::disabled(),
                );
            }
            Message::ViewerFinished { instance } => {
                self.backup.on_viewer_finished(instance);
            }
            Message::FailureNotice { failed } => {
                self.controller_believes_failed.set_failed(failed, true);
            }
            Message::RejoinRequest { from } => {
                self.controller_believes_failed.set_failed(from, false);
            }
            _ => {}
        }
    }

    fn on_controller_message(&mut self, now: SimTime, msg: Message) {
        match msg {
            Message::StartRequest {
                client,
                instance,
                file,
                from_block,
                requested_at,
            } => {
                // Admission control (disabled for the §5 tests).
                if let Some(limit) = self.shared.cfg.admission_limit {
                    let cap = f64::from(self.shared.params.capacity());
                    if f64::from(self.controller.active_streams()) >= limit * cap {
                        return; // Rejected; the client never starts.
                    }
                }
                if !self
                    .controller
                    .on_start_request(instance, file, client, requested_at)
                {
                    return; // Duplicate.
                }
                let Some(loc) = self
                    .shared
                    .catalog
                    .locate(file, tiger_layout::BlockNum(from_block))
                else {
                    return;
                };
                let stripe = self.shared.params.stripe();
                let primary_cub = stripe.cub_of(loc.disk);
                let primary = self.routed_target(primary_cub);
                let redundant = self.next_living_for_controller(primary);
                self.shared.tracer.record(
                    now,
                    CTRL,
                    TraceEvent::CtrlRouteStart {
                        viewer: instance.viewer.raw(),
                        inc: instance.incarnation,
                        primary: primary.raw(),
                        redundant: redundant.map_or(u32::MAX, CubId::raw),
                    },
                );
                let ctrl = self.active_controller;
                let route = |redundant_flag: bool| Message::RoutedStart {
                    client,
                    instance,
                    file,
                    from_block,
                    requested_at,
                    redundant: redundant_flag,
                };
                let primary_node = self.shared.cub_node(primary);
                self.shared
                    .send_control(now, ctrl, primary_node, route(false));
                if let Some(r) = redundant {
                    let r_node = self.shared.cub_node(r);
                    self.shared.send_control(now, ctrl, r_node, route(true));
                }
            }
            Message::StopRequest { instance } => {
                self.route_deschedule(now, instance);
            }
            Message::InsertCommitted {
                instance,
                slot,
                first_send,
                ..
            } => {
                if self
                    .controller
                    .on_insert_committed(instance, slot, first_send)
                {
                    // The viewer was stopped while its start was still
                    // queued (the §4.1.3 stop/insert race). Now that a cub
                    // has committed it into a slot, honour the stop —
                    // otherwise the stream would play on with nobody left
                    // to deschedule it.
                    self.route_deschedule(now, instance);
                }
            }
            Message::ViewerFinished { instance } => {
                if let Some(rec) = self.controller.viewer(&instance) {
                    if let (Some(slot), Some(omni)) = (rec.slot, self.shared.omniscient.as_mut()) {
                        omni.on_remove(slot, instance, now);
                    }
                }
                self.controller.on_viewer_finished(instance);
            }
            Message::FailureNotice { failed } => {
                let first = !self.controller_believes_failed.is_failed(failed);
                self.controller_believes_failed.set_failed(failed, true);
                if first {
                    self.maybe_shield(now, failed);
                }
            }
            Message::RejoinRequest { from } => {
                // A restarted cub is routable again.
                self.controller_believes_failed.set_failed(from, false);
            }
            other => {
                debug_assert!(false, "controller received unexpected message: {other:?}");
            }
        }
    }

    /// Routes a deschedule for `instance` if the controller knows its
    /// slot: the cub whose disk next services the slot (plus its
    /// successor) gets the kill. A viewer without a committed slot is
    /// tombstoned inside [`Controller::on_stop_request`] and descheduled
    /// when its `InsertCommitted` arrives.
    fn route_deschedule(&mut self, now: SimTime, instance: ViewerInstance) {
        if let Some((slot, cub)) = self.controller.on_stop_request(
            instance,
            &self.shared.params,
            now,
            &mut self.shared.tracer,
        ) {
            if let Some(omni) = self.shared.omniscient.as_mut() {
                omni.on_remove(slot, instance, now);
            }
            let hops = self.deschedule_hops();
            let request = Deschedule { instance, slot };
            let ctrl = self.active_controller;
            let target = self.routed_target(cub);
            let target_node = self.shared.cub_node(target);
            self.shared.send_control(
                now,
                ctrl,
                target_node,
                Message::Deschedule {
                    request,
                    hops_left: hops,
                },
            );
            if let Some(succ) = self.next_living_for_controller(target) {
                let succ_node = self.shared.cub_node(succ);
                self.shared.send_control(
                    now,
                    ctrl,
                    succ_node,
                    Message::Deschedule {
                        request,
                        hops_left: hops,
                    },
                );
            }
        }
    }

    /// The first living cub at or after `cub`, per the controller's beliefs.
    fn routed_target(&self, cub: CubId) -> CubId {
        self.controller_believes_failed
            .first_living_at(cub, self.shared.cfg.stripe.num_cubs)
    }

    fn next_living_for_controller(&self, from: CubId) -> Option<CubId> {
        self.controller_believes_failed
            .next_living_within(from, self.shared.cfg.stripe.num_cubs)
    }

    /// §4.1.2: deschedules propagate "until they're more than maxVStateLead
    /// in front of the slot being descheduled".
    fn deschedule_hops(&self) -> u32 {
        let cfg = &self.shared.cfg;
        let lead_cubs = (cfg.max_vstate_lead.as_nanos() + cfg.deschedule_hold.as_nanos())
            .div_ceil(cfg.block_play_time.as_nanos()) as u32;
        (lead_cubs + 2).min(cfg.stripe.num_cubs)
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
        let had_first = c
            .viewer(&instance)
            .is_some_and(|v| v.first_block_at.is_some());
        c.on_stream_data(instance, block, piece, total_pieces, now);
        if !had_first {
            if let Some(v) = c.viewer(&instance) {
                if let (Some(latency), false) = (v.start_latency_secs(), v.first_block_at.is_none())
                {
                    self.shared.metrics.record_start(v.load_at_request, latency);
                }
            }
        }
    }

    fn on_client_start(
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
        let load =
            f64::from(self.controller.active_streams()) / f64::from(self.shared.params.capacity());
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

    /// Finds which client machine holds `instance`.
    fn client_of(&self, instance: &ViewerInstance) -> Option<u32> {
        (0..self.clients.len() as u32)
            .find(|&i| self.clients[i as usize].viewer(instance).is_some())
    }

    fn on_client_resume(&mut self, now: SimTime, instance: ViewerInstance) {
        let Some(client) = self.client_of(&instance) else {
            return;
        };
        let (file, resume_at) = {
            let v = self.clients[client as usize]
                .viewer(&instance)
                .expect("client_of found it");
            let next = v.high_water.map_or(v.base_block, |h| h + 1);
            (v.file, next)
        };
        let resumed = ViewerInstance {
            viewer: instance.viewer,
            incarnation: instance.incarnation + 1,
        };
        self.shared.tracer.record(
            now,
            CTRL,
            TraceEvent::SessionTransition {
                viewer: resumed.viewer.raw(),
                inc: resumed.incarnation,
                kind: 1,
                to_block: resume_at,
            },
        );
        self.on_client_start(now, client, file, resume_at, resumed);
    }

    fn on_client_seek(&mut self, now: SimTime, instance: ViewerInstance, to_block: u32) {
        let Some(client) = self.client_of(&instance) else {
            return;
        };
        let file = self.clients[client as usize]
            .viewer(&instance)
            .expect("client_of found it")
            .file;
        // Stop the old instance (idempotent if already gone) …
        self.on_client_stop(now, instance);
        // … and start the new incarnation at the target block.
        let moved = ViewerInstance {
            viewer: instance.viewer,
            incarnation: instance.incarnation + 1,
        };
        self.shared.tracer.record(
            now,
            CTRL,
            TraceEvent::SessionTransition {
                viewer: moved.viewer.raw(),
                inc: moved.incarnation,
                kind: 2,
                to_block,
            },
        );
        self.on_client_start(now, client, file, to_block, moved);
    }

    fn on_client_stop(&mut self, now: SimTime, instance: ViewerInstance) {
        // Find the owning client to mark it stopped.
        for c in &mut self.clients {
            if c.viewer(&instance).is_some() {
                c.on_stopped(instance);
            }
        }
        let rec = self
            .controller
            .viewer(&instance)
            .or_else(|| self.backup.viewer(&instance));
        let Some(rec) = rec else {
            return; // Already finished or never started.
        };
        let node = NetNode(rec.client);
        self.shared
            .send_to_controllers(now, node, Message::StopRequest { instance });
    }

    // --- Reporting -----------------------------------------------------------

    /// Access to the shared state (tests and experiment drivers).
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Mutable access to the shared state (experiment drivers).
    pub fn shared_mut(&mut self) -> &mut Shared {
        &mut self.shared
    }

    /// The cubs (read-only).
    pub fn cubs(&self) -> &[Cub] {
        &self.cubs
    }

    /// The controller (read-only).
    pub fn controller(&self) -> &Controller {
        &self.controller
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
        let report_node_for_nic = self.shared.cub_node(report_cub);
        let nic_util = self
            .shared
            .net
            .nic_mut(report_node_for_nic)
            .window_utilization(now);
        let controller_cpu = self.cpu.controller_load(
            self.controller.request_rate(now),
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
        let report_node = self.shared.cub_node(report_cub);
        let sample = WindowSample {
            at: now,
            streams: self.controller.active_streams(),
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
        self.window_start = now;
        self.shared.net.reset_windows(now);
        self.controller.reset_window(now);
        for cub in &mut self.cubs {
            cub.reset_window(now);
        }
    }
}
