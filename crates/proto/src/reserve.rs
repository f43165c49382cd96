//! The two-phase reservation machine of multiple-bitrate insertion (§4.2).
//!
//! Entries of the multiple-bitrate schedule are one block play time wide
//! and cubs are one block play time apart, so no cub owns the span an
//! insertion needs. Instead the originating cub checks its own view,
//! inserts tentatively, **starts the first-block read speculatively** and
//! asks its successor, whose view may hold reservations the originator
//! cannot see, to reserve. If a positive reply and the read are both in
//! before the deadline (the scheduling lead), the originator commits and
//! floods the commit around the ring so every view converges; otherwise it
//! aborts, releases the reservation, and the read is wasted.
//!
//! [`ReserveMachine`] is one cub's side of this. It keeps no clock, queue,
//! network, RNG or tracer, and every input answers with a [`Step`]. The
//! driver (`tiger_core::MbrSystem`) assigns instances, draws the read time
//! once [`ReserveMachine::fit`] passes, fires the wakes a [`Begun`] names,
//! carries messages and runs [`ReserveMachine::sweep`].

use tiger_layout::ids::ViewerInstance;
use tiger_sched::NetworkSchedule;
use tiger_sim::{Bandwidth, DetHashMap, SimDuration, SimTime};

/// A schedule entry: `instance`'s stream of `rate` for one block play
/// time from ring position `start`. The instance names an attempt end to
/// end: the originator's pending attempt, the successor's reservation and
/// the committed entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry {
    pub instance: ViewerInstance,
    pub start: SimDuration,
    pub rate: Bandwidth,
}

/// Messages of the two-phase insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReserveMsg {
    /// Originator to successor: reserve the entry.
    Reserve(Entry),
    /// Successor to originator: whether it reserved.
    Reply(ViewerInstance, bool),
    /// The commit flood, passed on while its hops last.
    Commit(Entry, u32),
    /// Originator to successor: drop an aborted attempt's reservation.
    Release(ViewerInstance),
}

/// An attempt's two wakes at its originator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Wake {
    /// The speculative first-block read finished.
    ReadDone,
    /// The attempt's deadline.
    Deadline,
}

/// What an attempt came to, at its originator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Committed; `hidden` when the successor's reply came no later than
    /// the speculative read finished (the round trip hid behind it).
    Committed { entry: Entry, hidden: bool },
    /// The successor refused, or the deadline passed first.
    Aborted,
    /// The originator's own view ruled the request out.
    RejectedLocal,
}

/// The machine's answer to one input: a message for a cub, and an
/// attempt this cub originated that resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step {
    pub send: Option<(u32, ReserveMsg)>,
    pub outcome: Option<Outcome>,
}

/// A begun attempt: its reserve request for the successor, and when to
/// fire each of its wakes, the read's first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Begun {
    pub send: (u32, ReserveMsg),
    pub wakes: [(SimTime, Wake); 2],
}

/// One unresolved attempt at its originator: when the read finished, and
/// the successor's answer with when it arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Attempt {
    entry: Entry,
    read_done_at: Option<SimTime>,
    reply: Option<(bool, SimTime)>,
    deadline: SimTime,
}

/// One cub's side of §4.2's two-phase insertion: its view of the network
/// schedule (committed entries, its own tentative inserts, and the
/// reservations it holds for its predecessor) and its unresolved attempts.
#[derive(Clone, Debug)]
pub struct ReserveMachine {
    me: u32,
    num_cubs: u32,
    /// The insertion deadline budget (the scheduling lead).
    deadline: SimDuration,
    view: NetworkSchedule,
    pending: DetHashMap<ViewerInstance, Attempt>,
}

impl ReserveMachine {
    /// Cub `me`'s machine over `view`, a ring of `len / block_play_time`
    /// cubs with quantized starts (§3.2), and a deadline budget.
    pub fn new(me: u32, view: NetworkSchedule, deadline: SimDuration) -> Self {
        ReserveMachine {
            me,
            num_cubs: (view.len_duration().as_nanos() / view.block_play_time().as_nanos()) as u32,
            deadline,
            view,
            pending: DetHashMap::default(),
        }
    }

    /// This cub's view of the network schedule.
    pub fn view(&self) -> &NetworkSchedule {
        &self.view
    }

    /// `msg` for the cub `by` places on around the ring.
    fn to(&self, by: u32, msg: ReserveMsg) -> (u32, ReserveMsg) {
        ((self.me + by) % self.num_cubs, msg)
    }

    /// Inserts `e` tentatively. The expiry backstop sweeps it if it is not
    /// committed or released within four deadlines (its originator died or
    /// the release was lost), far beyond any legitimate round trip.
    fn reserve(&mut self, now: SimTime, e: Entry) {
        let expiry = Some(now + self.deadline.mul_u64(4));
        self.view
            .insert_with_expiry(e.instance, e.start, e.rate, true, expiry)
            .expect("the entry was checked to fit");
    }

    /// Input, phase 0 of a local request: "it first checks its local copy
    /// of the schedule to see if it can rule out the insertion". The
    /// candidate starts are one block play time of the quantum grid from
    /// where this cub's pointer will be when the stream must begin. That
    /// pinning is what makes consulting only the *one* succeeding cub
    /// sufficient: entries of cubs two or more apart can never overlap,
    /// and adjacent cubs' conflicts are caught by the successor's
    /// reservation check. The entry starts at the first candidate that
    /// fits.
    pub fn fit(
        &self,
        now: SimTime,
        instance: ViewerInstance,
        rate: Bandwidth,
    ) -> Result<Entry, Outcome> {
        let l = self.view.len_duration().as_nanos();
        let q = self.view.quantum().expect("a quantized ring").as_nanos();
        let bpt = self.view.block_play_time().as_nanos();
        // Pointers are one block play time apart, as on the disk schedule.
        let lag = (u128::from(bpt) * u128::from(self.me) % u128::from(l)) as u64;
        let at = (now + self.deadline).as_nanos();
        let first = (((at % l) + l - lag) % l).div_ceil(q) * q;
        let start = (0..bpt.div_ceil(q))
            .map(|k| SimDuration::from_nanos((first + k * q) % l))
            .find(|&start| self.view.fits(start, rate))
            .ok_or(Outcome::RejectedLocal)?;
        Ok(Entry {
            instance,
            start,
            rate,
        })
    }

    /// Input, phase 1: the tentative insert of the entry [`Self::fit`]
    /// found, whose first block takes `read_time` to read.
    pub fn begin(&mut self, now: SimTime, entry: Entry, read_time: SimDuration) -> Begun {
        self.reserve(now, entry);
        let deadline = now + self.deadline;
        let attempt = Attempt {
            entry,
            read_done_at: None,
            reply: None,
            deadline,
        };
        self.pending.insert(entry.instance, attempt);
        let read_done = now + read_time;
        Begun {
            send: self.to(1, ReserveMsg::Reserve(entry)),
            wakes: [(read_done, Wake::ReadDone), (deadline, Wake::Deadline)],
        }
    }

    /// Input: `instance`'s `wake` fired at `now`. "If a cub … doesn't
    /// receive a response from the succeeding cub in time, it will abort
    /// the tentative schedule insertion and stop the disk I/O."
    pub fn wake(&mut self, now: SimTime, instance: ViewerInstance, wake: Wake) -> Step {
        match (wake, self.pending.get_mut(&instance)) {
            (Wake::ReadDone, Some(p)) => p.read_done_at = Some(now),
            (Wake::ReadDone, None) => {}
            (Wake::Deadline, _) => return self.abort(instance),
        }
        self.try_resolve(now, instance)
    }

    /// Input: `msg`, delivered at `now`.
    pub fn on_message(&mut self, now: SimTime, msg: ReserveMsg) -> Step {
        let send = match msg {
            ReserveMsg::Reserve(e) => {
                // If the originator dies before committing or releasing,
                // the expiry backstop reclaims the reservation.
                let ok = self.view.fits(e.start, e.rate);
                if ok {
                    self.reserve(now, e);
                }
                self.to(self.num_cubs - 1, ReserveMsg::Reply(e.instance, ok))
            }
            ReserveMsg::Reply(instance, ok) => {
                if let Some(p) = self.pending.get_mut(&instance) {
                    p.reply = Some((ok, now));
                }
                return self.try_resolve(now, instance);
            }
            ReserveMsg::Commit(e, hops_left) => {
                // The successor's reservation becomes a real entry, and the
                // flood lapping back to the originator finds its entry
                // committed: an instance has at most one entry in a view.
                // Every other cub adds the entry, as does a successor whose
                // reservation lost the race against the expiry backstop.
                if !self.view.commit_instance(e.instance) {
                    let _ = self.view.insert(e.instance, e.start, e.rate, false);
                }
                let Some(hops_left) = hops_left.checked_sub(1) else {
                    return Step::default();
                };
                self.to(1, ReserveMsg::Commit(e, hops_left))
            }
            ReserveMsg::Release(instance) => {
                self.view.remove_instance(instance);
                return Step::default();
            }
        };
        Step {
            send: Some(send),
            outcome: None,
        }
    }

    /// The backstop sweep: drops every reservation whose expiry has come
    /// by `now`. The driver runs it before each input.
    pub fn sweep(&mut self, now: SimTime) {
        self.view.expire_reservations(now);
    }

    /// Commits or aborts once both the read and the reply are in.
    fn try_resolve(&mut self, now: SimTime, instance: ViewerInstance) -> Step {
        let Some(&p) = self.pending.get(&instance) else {
            return Step::default();
        };
        let (Some(read_at), Some((ok, reply_at))) = (p.read_done_at, p.reply) else {
            return Step::default();
        };
        if !ok || now > p.deadline {
            return self.abort(instance);
        }
        self.pending.remove(&instance);
        let held = self.view.commit_instance(instance);
        assert!(held, "the attempt's tentative entry exists");
        let (entry, hidden) = (p.entry, reply_at <= read_at);
        let send = Some(self.to(1, ReserveMsg::Commit(entry, self.num_cubs - 1)));
        let outcome = Some(Outcome::Committed { entry, hidden });
        Step { send, outcome }
    }

    fn abort(&mut self, instance: ViewerInstance) -> Step {
        if self.pending.remove(&instance).is_none() {
            return Step::default();
        }
        self.view.remove_instance(instance);
        let send = Some(self.to(1, ReserveMsg::Release(instance)));
        let outcome = Some(Outcome::Aborted);
        Step { send, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use tiger_layout::ViewerId;
    use tiger_sim::DetHashSet;

    const CUBS: u32 = 3;
    const RATE: Bandwidth = Bandwidth::from_mbit_per_sec(2);
    /// The two inserts: `(origin, requested at)`. Instance `r` is request
    /// `r`. From adjacent origins half a block play time apart, their
    /// first candidates (0.75 s and 0.25 s) overlap by half an entry.
    const REQUESTS: [(u32, SimTime); 2] =
        [(0, SimTime::from_millis(0)), (1, SimTime::from_millis(500))];
    /// When every input but a request happens. Before either deadline
    /// (700 ms after its request) and the backstop, so the clock lapses
    /// neither: the deadline wake, fired at any point, is the deadline.
    const LATE: SimTime = SimTime::from_millis(500);

    const QUANTUM: SimDuration = SimDuration::from_millis(250);

    /// The ring: 1 s entries, and room for one 2 Mbit/s stream at a
    /// position, not two.
    fn ring() -> NetworkSchedule {
        let capacity = Bandwidth::from_mbit_per_sec(3);
        NetworkSchedule::new(CUBS, SimDuration::from_secs(1), capacity, Some(QUANTUM))
    }

    fn inst(r: usize) -> ViewerInstance {
        ViewerInstance {
            viewer: ViewerId(r as u64),
            incarnation: 0,
        }
    }

    /// Something armed that can fire.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Event {
        Request(usize),
        Wake(u32, ViewerInstance, Wake),
        /// The head of the `(src, dst)` channel.
        Deliver(u32, u32),
    }

    /// A view's entries, each with whether it is tentative, read
    /// through the schedule's public queries: alone in a copy, an entry is
    /// a box of its rate one block play time wide on the quantum grid, and
    /// a sweep at the end of time removes it if it is tentative.
    fn entries(view: &NetworkSchedule) -> Vec<(Entry, bool)> {
        let grid = ring().len_duration().as_nanos() / QUANTUM.as_nanos();
        let at = |k: u64| QUANTUM.mul_u64(k % grid);
        (0..REQUESTS.len())
            .map(inst)
            .filter(|&i| view.has_instance(i))
            .map(|i| {
                let mut alone = view.clone();
                for other in (0..REQUESTS.len()).map(inst).filter(|&o| o != i) {
                    alone.remove_instance(other);
                }
                let loaded = |k: u64| !alone.load_at(at(k)).is_zero();
                let k = (0..grid)
                    .find(|&k| loaded(k) && !loaded(k + grid - 1))
                    .expect("an entry is one box");
                let mut swept = alone.clone();
                swept.expire_reservations(SimTime::from_secs(1 << 20));
                let entry = Entry {
                    instance: i,
                    start: at(k),
                    rate: alone.load_at(at(k)),
                };
                (entry, !swept.has_instance(i))
            })
            .collect()
    }

    #[derive(Clone)]
    struct World {
        cubs: Vec<ReserveMachine>,
        /// FIFO channels, `src * CUBS + dst`.
        channels: Vec<VecDeque<ReserveMsg>>,
        /// Requests and wakes not yet fired, sorted.
        armed: Vec<Event>,
        reference: NetworkSchedule,
        committed: Vec<(Entry, bool)>,
        /// How this state was reached (not part of it).
        path: Vec<Event>,
    }

    /// Everything a `World` is, its path aside, in hashable form.
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        views: Vec<Vec<(Entry, bool)>>,
        pending: Vec<Vec<(ViewerInstance, Attempt)>>,
        channels: Vec<VecDeque<ReserveMsg>>,
        armed: Vec<Event>,
        committed: Vec<(Entry, bool)>,
    }

    impl World {
        fn new() -> Self {
            World {
                cubs: (0..CUBS)
                    .map(|me| ReserveMachine::new(me, ring(), SimDuration::from_millis(700)))
                    .collect(),
                channels: vec![VecDeque::new(); (CUBS * CUBS) as usize],
                armed: (0..REQUESTS.len()).map(Event::Request).collect(),
                reference: ring(),
                committed: Vec::new(),
                path: Vec::new(),
            }
        }

        fn key(&self) -> Key {
            let pending = self.cubs.iter().map(|m| {
                let mut p: Vec<_> = m.pending.iter().map(|(&i, &a)| (i, a)).collect();
                p.sort_by_key(|&(i, _)| i);
                p
            });
            Key {
                views: self.cubs.iter().map(|m| entries(m.view())).collect(),
                pending: pending.collect(),
                channels: self.channels.clone(),
                armed: self.armed.clone(),
                committed: self.committed.clone(),
            }
        }

        fn enabled(&self) -> Vec<Event> {
            let heads = (0..CUBS * CUBS)
                .filter(|&c| !self.channels[c as usize].is_empty())
                .map(|c| Event::Deliver(c / CUBS, c % CUBS));
            self.armed.iter().copied().chain(heads).collect()
        }

        fn post(&mut self, src: u32, (to, msg): (u32, ReserveMsg)) {
            self.channels[(src * CUBS + to) as usize].push_back(msg);
        }

        fn apply(&mut self, cub: u32, step: Step) {
            if let Some(Outcome::Committed { entry: e, .. }) = step.outcome {
                assert!(
                    self.reference
                        .insert(e.instance, e.start, e.rate, false)
                        .is_ok(),
                    "overcommit: {e:?} after {:?}",
                    self.path
                );
                self.committed.push((e, false));
                self.committed.sort();
            }
            if let Some(out) = step.send {
                self.post(cub, out);
            }
        }

        fn fire(&mut self, e: Event) {
            self.path.push(e);
            self.armed.retain(|&a| a != e);
            let now = match e {
                Event::Request(r) => REQUESTS[r].1,
                _ => LATE,
            };
            for cub in &mut self.cubs {
                cub.sweep(now);
            }
            match e {
                Event::Request(r) => {
                    let (origin, instance) = (REQUESTS[r].0, inst(r));
                    let m = &mut self.cubs[origin as usize];
                    if let Ok(entry) = m.fit(now, instance, RATE) {
                        let begun = m.begin(now, entry, SimDuration::from_millis(60));
                        for (_, wake) in begun.wakes {
                            self.armed.push(Event::Wake(origin, instance, wake));
                        }
                        self.armed.sort();
                        self.post(origin, begun.send);
                    }
                }
                Event::Wake(cub, i, wake) => {
                    let step = self.cubs[cub as usize].wake(now, i, wake);
                    self.apply(cub, step);
                }
                Event::Deliver(src, dst) => {
                    let channel = &mut self.channels[(src * CUBS + dst) as usize];
                    let msg = channel.pop_front().expect("enabled channel");
                    let step = self.cubs[dst as usize].on_message(now, msg);
                    self.apply(dst, step);
                }
            }
        }
    }

    /// Breadth-first over every order in which the two inserts' requests,
    /// their in-flight messages (FIFO per channel) and each attempt's two
    /// wakes can fire, each distinct state once (672 states, 5 of them
    /// ends). No commit may overcommit the reference schedule, and at an
    /// end every view must hold exactly the committed entries.
    ///
    /// The search finds one end where a view does not: ROADMAP item 1(e).
    /// Cub 1's commit notice reaches cub 0 while cub 0's own overlapping
    /// attempt is still tentative there. The notice's insert does not fit
    /// and is dropped, then cub 0's attempt aborts, and cub 0's view lacks
    /// a committed entry for good. The count is pinned, so the fix flips
    /// this test.
    #[test]
    fn every_interleaving_of_two_adjacent_inserts() {
        let start = World::new();
        let mut seen: DetHashSet<Key> = DetHashSet::default();
        seen.insert(start.key());
        let mut frontier = VecDeque::from([start]);
        let (mut commits, mut diverged) = ([0; 3], Vec::new());
        while let Some(w) = frontier.pop_front() {
            let enabled = w.enabled();
            if enabled.is_empty() {
                commits[w.committed.len()] += 1;
                let views: Vec<_> = w.cubs.iter().map(|m| entries(m.view())).collect();
                if views.iter().any(|v| *v != w.committed) {
                    // What a view holds, it holds committed.
                    let mut held = views.iter().flatten();
                    assert!(held.all(|e| w.committed.contains(e)), "{:?}", w.path);
                    diverged.push(w.path);
                }
                continue;
            }
            for e in enabled {
                let mut next = w.clone();
                next.fire(e);
                if seen.insert(next.key()) {
                    frontier.push_back(next);
                }
            }
        }
        assert!(
            commits.iter().all(|&n| n > 0),
            "ends with none, one and both committed: {commits:?}"
        );
        assert_eq!(
            diverged.len(),
            1,
            "ends where a view is not the committed set: {diverged:?}"
        );
    }
}
