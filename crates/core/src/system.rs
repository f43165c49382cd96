//! The assembled Tiger system: event loop, node wiring, content loading,
//! fault injection, and measurement windows.

use tiger_disk::Disk;
use tiger_faults::{
    DiskFaultKind, DiskFaults, FaultPlan, NetFaults, ProcFaults, ProcessFault, Topology,
};
use tiger_layout::{CubId, FileCatalog, FileId};
use tiger_net::{NetNode, Network};
use tiger_proto::msg::Message;
use tiger_sched::disk_schedule::Omniscient;
use tiger_sim::{Bandwidth, EventQueue, RngTree, SimDuration, SimTime};
use tiger_trace::{TraceEvent, Tracer, CTRL};

use crate::backend::{Backend, Loads};
use crate::client::{Client, ClientReport};
use crate::config::TigerConfig;
use crate::controller::Controller;
use crate::cpu::CpuModel;
use crate::ctx::{Ctx, World};
use crate::cub::Cub;
use crate::demand::Scripts;
use crate::event::Event;
use crate::metrics::{Metrics, WindowSample};
use crate::reconfig::Reconfig;
use crate::shield::ShieldMap;

/// The system's state outside its cubs, clients and controller: the
/// world, and the dynamic half every handler reaches only through a
/// [`Ctx`] (the queue, the network, the measurement sinks, the shield
/// map and the coded load table).
#[derive(Debug)]
pub struct Shared {
    /// The static half.
    pub world: World,
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
    /// The coded backend's per-disk load table (empty under mirroring).
    pub loads: Loads,
}

impl Shared {
    /// The network node of `cub`.
    pub fn cub_node(&self, cub: CubId) -> NetNode {
        self.world.cub_node(cub)
    }

    /// The context at `now` of the actor at `node`: a cub, the controller or a client.
    pub(crate) fn cx(&mut self, now: SimTime, node: NetNode) -> Ctx<'_> {
        Ctx {
            world: &self.world,
            now,
            node,
            lane: self.world.cub_at(node).map_or(CTRL, CubId::raw),
            queue: &mut self.queue,
            net: &mut self.net,
            tracer: &mut self.tracer,
            metrics: &mut self.metrics,
            omniscient: &mut self.omniscient,
            shield: &mut self.shield,
            loads: &mut self.loads,
        }
    }

    /// `cub`'s context at `now`.
    pub(crate) fn cub_cx(&mut self, now: SimTime, cub: CubId) -> Ctx<'_> {
        self.cx(now, self.world.cub_node(cub))
    }
}

/// The whole simulated Tiger system.
#[derive(Debug)]
pub struct TigerSystem {
    pub(crate) shared: Shared,
    pub(crate) cubs: Vec<Cub>,
    pub(crate) clients: Vec<Client>,
    cpu: CpuModel,
    /// The controller.
    pub(crate) ctl: Controller,
    /// Restripe steps, shield campaigns and their copy lanes.
    pub(crate) reconfig: Reconfig,
    /// The client each viewer was requested from, by viewer id.
    pub(crate) owner: Vec<u32>,
    /// A workload plan's operations, waiting to enter the queue.
    pub(crate) scripts: Scripts,
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
        let catalog = FileCatalog::new(cfg.stripe, cfg.block_play_time, cfg.max_bitrate);
        let rng = RngTree::new(cfg.seed);
        let total_cubs = cfg.total_cubs();
        let topology = Topology {
            num_cubs: total_cubs,
        };
        let nodes = 1 + total_cubs + cfg.num_clients;
        let net = Network::new(nodes, cfg.nic_capacity, cfg.latency, rng.fork("net", 0));
        let mut cubs = Vec::with_capacity(total_cubs as usize);
        for c in 0..total_cubs {
            let disk = |l| Disk::new(cfg.disk.clone(), rng.fork("disk", disk_key(c, l)));
            let disks = (0..cfg.stripe.disks_per_cub).map(disk).collect();
            let mut cub = Cub::new(CubId(c), total_cubs, disks, &cfg);
            // Spares are powered machines with live disks (they receive
            // moved blocks during a live restripe) but not ring members:
            // they run no protocol work until the cut-over activates them,
            // and every ring member starts out believing them failed.
            cub.failed = c >= cfg.stripe.num_cubs;
            cubs.push(cub);
        }
        for cub in &mut cubs {
            for s in cfg.stripe.num_cubs..total_cubs {
                cub.mark_believed_failed(CubId(s));
            }
        }
        let clients = (0..cfg.num_clients).map(|_| Client::new()).collect();
        let (backend, loads) = (Backend::new(&cfg), Loads::new(&cfg));
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
                world: World {
                    cfg,
                    params,
                    topology,
                    catalog,
                    backend,
                },
                queue: EventQueue::with_capacity(queue_hint),
                net,
                metrics: Metrics::new(),
                omniscient: None,
                tracer: Tracer::from_env(),
                faults: ProcFaults::disabled(),
                shield: ShieldMap::default(),
                loads,
            },
            cubs,
            clients,
            cpu: CpuModel::pentium133(),
            // The controller, too, routes around spares until cut-over.
            ctl: Controller::new(total_cubs, striped),
            reconfig: Reconfig::default(),
            owner: Vec::new(),
            scripts: Scripts::default(),
            clients_handed: 0,
            dispatched_by_kind: [0; Event::KIND_NAMES.len()],
        };
        for cub in &mut sys.cubs[..striped as usize] {
            cub.arm_periodic(&mut sys.shared.cub_cx(SimTime::ZERO, cub.id), true);
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
        let World { cfg, params, .. } = &self.shared.world;
        let grace = cfg.max_vstate_lead + cfg.block_play_time + SimDuration::from_millis(500);
        self.shared.omniscient = Some(Omniscient::new(params.clone()).with_grace(grace));
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

    /// Runs `f` on one cub and its context at `at`. Test support: the
    /// deadman edge-case tests run single events (`Cub::on_event`, a
    /// deadman check at an exact instant) without steering the whole
    /// event loop there.
    pub fn with_cub_mut<R>(
        &mut self,
        cub: CubId,
        at: SimTime,
        f: impl FnOnce(&mut Cub, &mut Ctx<'_>) -> R,
    ) -> R {
        let cx = &mut self.shared.cub_cx(at, cub);
        f(&mut self.cubs[cub.index()], cx)
    }

    /// Delivers `msg` to `cub` at `at`, outside the event loop (test
    /// support, as [`TigerSystem::with_cub_mut`]).
    pub fn deliver(&mut self, cub: CubId, at: SimTime, msg: Message) {
        let dst = self.shared.world.cub_node(cub);
        let event = Event::Deliver { dst, msg };
        self.with_cub_mut(cub, at, |cub, cx| cub.on_event(cx, event));
    }

    /// Takes the next event due by `horizon` off the queue, not run (test
    /// support: a bench drives one cub by [`TigerSystem::with_cub_mut`]).
    #[doc(hidden)]
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        self.shared.queue.pop_until(horizon)
    }

    /// The static half: configuration, geometry, catalog and placement.
    pub fn world(&self) -> &World {
        &self.shared.world
    }

    /// Schedules `event` at `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        self.shared.queue.schedule(at, event);
    }

    /// Records `ev` at `now` on the `CTRL` lane.
    pub(crate) fn trace(&mut self, now: SimTime, ev: TraceEvent) {
        self.shared.tracer.record(now, CTRL, ev);
    }

    /// Client machine `client`'s context at `now`.
    pub(crate) fn client_cx(&mut self, now: SimTime, client: u32) -> Ctx<'_> {
        self.shared.cx(now, self.shared.world.client_node(client))
    }

    /// The script store and the queue its operations enter.
    pub(crate) fn scripts_and_queue(&mut self) -> (&mut Scripts, &mut EventQueue<Event>) {
        (&mut self.scripts, &mut self.shared.queue)
    }

    // --- Content loading ---------------------------------------------------

    /// Adds a file of `bitrate` and `duration`, laying its primary blocks
    /// and declustered mirror pieces out across every disk (§2.2–§2.3).
    pub fn add_file(&mut self, bitrate: Bandwidth, duration: SimDuration) -> FileId {
        let file = self.shared.world.catalog.add_file(bitrate, duration);
        let meta = *self.shared.world.catalog.get(file).expect("just added");
        self.lay_file(&meta, true);
        file
    }

    /// Hands out a client machine index (round-robin over the
    /// `TigerConfig::num_clients` pre-allocated client machines).
    pub fn add_client(&mut self) -> u32 {
        let idx = self.clients_handed % self.shared.world.cfg.num_clients;
        self.clients_handed += 1;
        idx
    }

    /// Schedules a power-cut of `cub` at time `at`.
    pub fn fail_cub_at(&mut self, at: SimTime, cub: CubId) {
        self.schedule(at, Event::FailCub { cub });
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
        self.schedule(at, Event::FaultNote { cub: lane, ev });
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
        let topo = self.shared.world.topology;
        let disks_per_cub = self.shared.world.cfg.stripe.disks_per_cub;
        let tree = RngTree::new(self.shared.world.cfg.seed).subtree("faults", 0);
        let net_faults = NetFaults::compile(plan, topo, tree.fork("net", 0));
        if net_faults.active() {
            self.shared.net.set_faults(net_faults);
        }
        for c in 0..topo.num_cubs {
            for l in 0..disks_per_cub {
                let df = DiskFaults::compile(plan, c, l, tree.fork("disk", disk_key(c, l)));
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
                let (cub, disk_local) = (CubId(df.cub), df.disk);
                self.schedule(at, Event::FailDisk { cub, disk_local });
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
    /// of real time than `TigerConfig::legit_lead` allows (§3.3).
    /// Returns violation strings (empty = pass). On rings short enough
    /// that the legitimate lead wraps the whole schedule the check is
    /// vacuous and reports nothing.
    pub fn check_view_lead(&self) -> Vec<String> {
        let now = self.shared.queue.now();
        let params = &self.shared.world.params;
        let stripe = params.stripe();
        let max_lead = self.shared.world.cfg.legit_lead();
        if max_lead >= params.schedule_len() {
            return Vec::new();
        }
        let mut violations = Vec::new();
        for cub in &self.cubs {
            if cub.failed {
                continue;
            }
            for (slot, instance) in cub.unserved_view_entries() {
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
                        instance.viewer.raw(),
                    ));
                }
            }
        }
        violations
    }

    /// Schedules a power-cut of the controller at time `at`. Running
    /// streams continue unaffected but no new viewer can start or stop
    /// (the paper's §2.3 single-point-of-failure caveat).
    pub fn fail_controller_at(&mut self, at: SimTime) {
        self.schedule(at, Event::FailController);
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

    /// Runs one event. Each event `frozen_target` assigns to a cub runs
    /// in that cub's `Cub::on_event`, its periodic chains included; the
    /// rest are the loop's own.
    fn dispatch(&mut self, now: SimTime, event: Event) {
        let event = match event {
            Event::Scripted { op } => self.scripts.fire(&mut self.shared.queue, op),
            event => event,
        };
        self.dispatched_by_kind[event.kind()] += 1;
        if let Some(cub) = self.frozen_target(&event) {
            if let Some(resume) = self.shared.faults.frozen_until(cub.raw(), now) {
                // A frozen cub processes nothing: its events are parked
                // until the resume instant. Arrival order is preserved
                // (the queue breaks timestamp ties by insertion order),
                // so a thaw replays the backlog in the original order.
                return self.schedule(resume, event);
            }
            let cx = &mut self.shared.cub_cx(now, cub);
            return self.cubs[cub.index()].on_event(cx, event);
        }
        match event {
            Event::Deliver { dst, msg } => self.on_deliver(now, dst, msg),
            Event::FailCub { cub } => {
                self.trace(now, TraceEvent::PowerCut { cub: cub.raw() });
                self.cubs[cub.index()].power_cut(&mut self.shared.cub_cx(now, cub));
            }
            Event::FailDisk {
                cub,
                disk_local: disk,
            } => {
                self.trace(
                    now,
                    TraceEvent::DiskDeath {
                        cub: cub.raw(),
                        disk,
                    },
                );
                self.cubs[cub.index()].disks_mut()[disk as usize].fail(now);
            }
            Event::FaultNote { cub, ev } => {
                self.shared.tracer.record(now, cub, ev);
            }
            Event::FailController => {
                let node = self.shared.world.controller_node();
                self.shared.net.fail_node(node);
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
                self.with_lane(now, lane, |p, cx, cubs| p.on_read_done(cx, cubs, idx));
            }
            Event::CopyArrive { lane, idx } => {
                self.with_lane(now, lane, |p, cx, cubs| p.on_arrive(cx, cubs, idx));
            }
            event => unreachable!("{event:?} runs in Cub::on_event or as its script"),
        }
    }

    /// The cub whose execution `event` represents: it runs in that cub's
    /// `Cub::on_event`, and a freeze of the cub parks it. Fault-injection
    /// events are exempt (a power cut kills even a frozen cub), as is
    /// controller and client work: freezes model a stalled cub process,
    /// nothing else.
    fn frozen_target(&self, event: &Event) -> Option<CubId> {
        match event {
            Event::Deliver { dst, .. } => self.shared.world.cub_at(*dst),
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

    /// A delivery to the controller or a client (a cub's runs in
    /// `Cub::on_event`).
    fn on_deliver(&mut self, now: SimTime, dst: NetNode, msg: Message) {
        if dst == self.shared.world.controller_node() {
            let cx = &mut self.shared.cx(now, dst);
            if let Some(failed) = self.ctl.on_message(cx, msg) {
                self.maybe_shield(now, failed);
            }
        } else {
            let client = dst.raw() - self.shared.world.client_node(0).raw();
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

    /// The controller (read-only).
    pub fn controller(&self) -> &Controller {
        &self.ctl
    }

    /// Aggregate report for one client machine.
    pub fn client_report(&self, client: u32) -> ClientReport {
        self.clients[client as usize].report()
    }

    /// Aggregate report across all clients.
    pub fn all_clients_report(&self) -> ClientReport {
        let mut total = ClientReport::default();
        for c in &self.clients {
            c.add_to(&mut total);
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
        let World { cfg, catalog, .. } = &self.shared.world;
        let plan = tiger_layout::RestripePlan::plan(catalog, cfg.stripe, new_stripe);
        let mut new_cfg = cfg.clone();
        new_cfg.stripe = new_stripe;
        let mut sys = TigerSystem::new(new_cfg);
        // Reload the catalog in file order so ids are preserved.
        for meta in catalog.files() {
            let duration = cfg.block_play_time.mul_u64(u64::from(meta.num_blocks));
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
        let (world, net, cpu) = (&self.shared.world, &self.shared.net, &self.cpu);
        let living = || self.cubs.iter().filter(|c| !c.failed);
        let cub_cpu = mean(living().map(|cub| {
            let node = world.cub_node(cub.id);
            let ios: f64 = cub
                .disks()
                .iter()
                .map(|d| d.window_reads_per_sec(now))
                .sum();
            let msgs = net.control_msg_rate(now, node) + cub.msgs_processed_rate(now);
            cpu.cub_load(net.nic(node).window_bytes_per_sec(now), ios, msgs)
        }));
        // NIC utilization is reported for the selected cub, matching the
        // paper's per-cub send-rate quotes (a mirroring cub in the failed
        // test).
        let report_node = world.cub_node(report_cub);
        let nic_utilization = self.shared.net.nic_mut(report_node).window_utilization(now);
        let net = &self.shared.net;
        let ctl_msgs = net.control_msg_rate(now, world.controller_node());
        let controller_cpu = cpu.controller_load(self.ctl.request_rate(now), ctl_msgs);
        let disks: Vec<&Cub> = match disk_report_cub {
            Some(c) => vec![&self.cubs[c.index()]],
            None => living().collect(),
        };
        let disks = disks
            .into_iter()
            .flat_map(Cub::disks)
            .filter(|d| !d.is_failed());
        let sample = WindowSample {
            at: now,
            streams: self.ctl.active_streams(),
            cub_cpu,
            controller_cpu,
            disk_load: mean(disks.map(|d| d.load_window(now))),
            control_bytes_per_sec: net.control_rate(now, report_node),
            nic_utilization,
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

/// The key of local disk `l` of cub `c` in an RNG tree's `"disk"` forks.
fn disk_key(c: u32, l: u32) -> u64 {
    u64::from(c) * 1000 + u64::from(l)
}

/// The mean of `xs`, 0 of none.
fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(sum, n), x| (sum + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}
