//! Client demand: start, stop and VCR requests, scheduled one at a time or
//! scripted as a whole workload plan, and the client-side handlers they
//! run through.
//!
//! A plan is drawn whole, before the first event runs, but it enters the
//! event queue as it comes due, the way §3.1's schedule is a ring that a
//! pointer walks. Its operations wait in [`Scripts`], one flat arena, and
//! the queue holds at most one of them a session plus the next session's
//! start: an operation that fires enters its session's next one, and a
//! start that fires enters the next session's start. Each operation ties
//! under the rank reserved for it when the plan was released, so it pops
//! exactly where it would have popped had the whole plan been scheduled
//! then (DESIGN.md "Demand").

use tiger_layout::ids::ViewerInstance;
use tiger_layout::{FileId, ViewerId};
use tiger_proto::msg::Message;
use tiger_sim::{EventQueue, SimTime};
use tiger_trace::{TraceEvent, CTRL};

use crate::event::Event;
use crate::system::TigerSystem;

/// A workload plan's operations in the order they were drawn: each
/// session's start, then that session's operations, then the next
/// session. `ops[i]` ties under rank `first_rank + i`.
#[derive(Debug, Default)]
pub(crate) struct Scripts {
    ops: Vec<Scripted>,
    first_rank: u64,
    released: bool,
}

#[derive(Debug)]
struct Scripted {
    at: SimTime,
    instance: ViewerInstance,
    op: Op,
}

// A plan keeps one of these an operation for the whole run.
const _: () = assert!(std::mem::size_of::<Scripted>() <= 40);

#[derive(Debug)]
enum Op {
    /// `next` is the next session's start, or `u32::MAX` after the last;
    /// linked when the plan is released.
    Start {
        client: u32,
        file: FileId,
        next: u32,
    },
    Stop,
    Resume,
    Seek {
        to_block: u32,
    },
}

impl Scripts {
    fn push(&mut self, at: SimTime, instance: ViewerInstance, op: Op) {
        assert!(!self.released, "a system runs one scripted plan");
        self.ops.push(Scripted { at, instance, op });
    }

    /// Schedules `ops[i]` under its rank.
    fn enter(&self, queue: &mut EventQueue<Event>, i: u32) {
        let rank = self.first_rank + u64::from(i);
        queue.schedule_ranked(self.ops[i as usize].at, rank, Event::Scripted { op: i });
    }

    /// Runs `ops[i]`: enters what follows it, and returns the event it
    /// stands for.
    pub(crate) fn fire(&self, queue: &mut EventQueue<Event>, i: u32) -> Event {
        let Scripted {
            instance, ref op, ..
        } = self.ops[i as usize];
        let follows = self.ops.get(i as usize + 1);
        if follows.is_some_and(|s| !matches!(s.op, Op::Start { .. })) {
            self.enter(queue, i + 1);
        }
        match *op {
            Op::Start { client, file, next } => {
                if next != u32::MAX {
                    self.enter(queue, next);
                }
                let from_block = 0;
                Event::ClientStart {
                    client,
                    file,
                    from_block,
                    instance,
                }
            }
            Op::Stop => Event::ClientStop { instance },
            Op::Resume => Event::ClientResume { instance },
            Op::Seek { to_block } => Event::ClientSeek { instance, to_block },
        }
    }
}

impl TigerSystem {
    /// A fresh viewer requested from `client`: its first play instance.
    fn new_viewer(&mut self, client: u32) -> ViewerInstance {
        assert!(client < self.shared.cfg.num_clients, "unknown client");
        let viewer = ViewerId(self.owner.len() as u64);
        self.owner.push(client);
        ViewerInstance {
            viewer,
            incarnation: 0,
        }
    }

    /// The client `instance`'s viewer was requested from: the only one
    /// that can hold any of its instances.
    fn owner(&self, instance: &ViewerInstance) -> Option<u32> {
        self.owner.get(instance.viewer.index()).copied()
    }

    // --- One request at a time ------------------------------------------------

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
        let instance = self.new_viewer(client);
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

    // --- A scripted plan ------------------------------------------------------

    /// Opens a scripted session: a start request from `client` for `file`
    /// at `at`, no earlier than the previous session's start. It and the
    /// operations scripted after it wait in the script store, each no
    /// earlier than the one before, until [`TigerSystem::release_scripts`].
    /// Returns the viewer instance that will be used.
    pub fn script_start(&mut self, at: SimTime, client: u32, file: FileId) -> ViewerInstance {
        let instance = self.new_viewer(client);
        let next = u32::MAX;
        let op = Op::Start { client, file, next };
        self.scripts.push(at, instance, op);
        instance
    }

    /// Scripts a stop (a pause or an abandon) of `instance` at `at`.
    pub fn script_stop(&mut self, at: SimTime, instance: ViewerInstance) {
        self.scripts.push(at, instance, Op::Stop);
    }

    /// Scripts a resume of the paused `instance`; returns the resumed one.
    pub fn script_resume(&mut self, at: SimTime, instance: ViewerInstance) -> ViewerInstance {
        self.scripts.push(at, instance, Op::Resume);
        instance.next_incarnation()
    }

    /// Scripts a seek of `instance` to `to_block`; returns the new instance.
    pub fn script_seek(
        &mut self,
        at: SimTime,
        instance: ViewerInstance,
        to_block: u32,
    ) -> ViewerInstance {
        self.scripts.push(at, instance, Op::Seek { to_block });
        instance.next_incarnation()
    }

    /// Releases the scripted plan: links each session's start to the next
    /// one's, reserves a tie rank for each operation, in the order they
    /// were scripted, and enters the first start. From here on the plan
    /// enters the queue as it comes due; nothing more can be scripted.
    pub fn release_scripts(&mut self) {
        let scripts = &mut self.scripts;
        assert!(!scripts.released, "a system runs one scripted plan");
        assert!(scripts.ops.len() < u32::MAX as usize, "op indices are u32");
        scripts.released = true;
        let mut following = u32::MAX;
        for (i, scripted) in scripts.ops.iter_mut().enumerate().rev() {
            if let Op::Start { next, .. } = &mut scripted.op {
                (*next, following) = (following, i as u32);
            }
        }
        let queue = &mut self.shared.queue;
        scripts.first_rank = queue.reserve_ranks(scripts.ops.len() as u64);
        if !scripts.ops.is_empty() {
            scripts.enter(queue, 0);
        }
    }

    // --- Handlers --------------------------------------------------------------

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
        self.shared.send_to_controller(
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
    pub(crate) fn reincarnate(
        &mut self,
        now: SimTime,
        instance: ViewerInstance,
        seek_to: Option<u32>,
    ) {
        let Some(client) = self.owner(&instance) else {
            return;
        };
        let Some(v) = self.clients[client as usize].viewer(&instance) else {
            return;
        };
        let (file, resume_at) = (v.file, v.resume_block());
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

    pub(crate) fn on_client_stop(&mut self, now: SimTime, instance: ViewerInstance) {
        // The owning client tells the controller, whatever its table
        // says: its start may still be on the wire, and control delivery
        // is FIFO per channel, so the stop lands after it.
        let Some(client) = self.owner(&instance) else {
            return;
        };
        if !self.clients[client as usize].on_stopped(instance) {
            return; // Never requested, or already stopped.
        }
        let node = self.shared.client_node(client);
        self.shared
            .send_to_controller(now, node, Message::StopRequest { instance });
    }
}

#[cfg(test)]
mod tests {
    use tiger_sim::{Bandwidth, RngTree, SimDuration};

    use super::*;
    use crate::config::TigerConfig;

    /// One operation of a session after its start: 0 stop, 1 resume,
    /// 2 seek.
    type Plan = Vec<(SimTime, Vec<(SimTime, u32)>)>;

    /// Forty sessions on a 100 ms grid, so that starts and operations of
    /// different sessions share instants, with each other and with the
    /// system's own periodic work.
    fn plan() -> Plan {
        let mut rng = RngTree::new(5).fork("scripts", 0);
        let grid = |steps: u64| SimDuration::from_millis(100 * steps);
        let mut at = SimTime::ZERO;
        (0..40)
            .map(|_| {
                at += grid(rng.gen_range(0..4u64));
                let mut t = at;
                let ops = (0..rng.gen_range(0..6u32))
                    .map(|_| {
                        t += grid(rng.gen_range(0..30u64));
                        (t, rng.gen_range(0..3u32))
                    })
                    .collect();
                (at, ops)
            })
            .collect()
    }

    /// Runs `plan` to the end of its operations, scheduled whole or
    /// scripted; returns what each kind of event dispatched, the trace
    /// and the events scheduled.
    fn run(plan: &Plan, scripted: bool) -> (Vec<(&'static str, u64)>, Vec<String>, u64) {
        let mut cfg = TigerConfig::small_test();
        cfg.disk = cfg.disk.without_blips();
        let mut sys = TigerSystem::new(cfg);
        sys.enable_trace(usize::MAX);
        let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(40));
        for (at, ops) in plan {
            let client = sys.add_client();
            let mut current = if scripted {
                sys.script_start(*at, client, file)
            } else {
                sys.request_start(*at, client, file)
            };
            for &(t, op) in ops {
                current = match (op, scripted) {
                    (0, true) => {
                        sys.script_stop(t, current);
                        current
                    }
                    (0, false) => {
                        sys.request_stop(t, current);
                        current
                    }
                    (1, true) => sys.script_resume(t, current),
                    (1, false) => sys.request_resume(t, current),
                    (_, true) => sys.script_seek(t, current, 3),
                    (_, false) => sys.request_seek(t, current, 3),
                };
            }
        }
        if scripted {
            sys.release_scripts();
        }
        sys.run_until(SimTime::from_secs(60));
        let trace = sys.tracer().iter().map(|r| format!("{r:?}")).collect();
        let kinds = sys.events_dispatched_by_kind().collect();
        (kinds, trace, sys.shared().queue.scheduled())
    }

    #[test]
    fn a_scripted_plan_runs_as_the_same_requests_scheduled_whole() {
        let plan = plan();
        let whole = run(&plan, false);
        let transitions = whole.1.iter().filter(|r| r.contains("SessionTransition"));
        assert!(
            transitions.count() > 20,
            "the plan's operations reached the system"
        );
        assert_eq!(run(&plan, true), whole);
    }
}
