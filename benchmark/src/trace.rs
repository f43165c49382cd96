//! The traced round: the same window, dispatched one *timestamp cluster*
//! at a time from outside the program under test.
//!
//! The harness calls `run_until(queue.peek_time())`, so each call
//! dispatches exactly the events due at one simulated instant, and times
//! it as one `core.cluster` span. The span is labelled with the wire name
//! of the first trace event the cluster recorded (folded into
//! [`CLUSTER_KINDS`]) or `silent` if it recorded none. Spans are kept in
//! memory, aggregated at the end, and the first [`RAW_SPANS`] are written
//! out raw. These are estimates from outside by construction: spans
//! inside `TigerSystem::dispatch` are a later issue, and the `silent`
//! share is the measured argument for it.

use std::collections::BTreeMap;
use std::time::Instant;

use tiger_core::TigerSystem;
use tiger_sim::SimDuration;
use tiger_trace::Tracer;

use crate::host;
use crate::json::Json;
use crate::measure::{close_window, oncpu_share, open_window, Sampled, WindowOutcome};
use crate::probes::ProbeSpan;
use crate::refclock::RefClock;
use crate::spec::CLUSTER_KINDS;
use crate::workloads::{Phase, RunPlan};

/// Trace-ring capacity of the traced round. The harness drains the ring
/// whenever half of it is unread, so no cluster's first event is ever
/// overwritten before it is read.
pub const TRACE_RING: usize = 4096;
/// Raw `core.cluster` spans kept for the trace file.
pub const RAW_SPANS: usize = 10_000;

const SILENT: usize = 14;
const OTHER: usize = 15;

fn kind_index(name: &str) -> usize {
    CLUSTER_KINDS[..SILENT]
        .iter()
        .position(|k| *k == name)
        .unwrap_or(OTHER)
}

/// Count and total dispatch time of one cluster kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindStat {
    pub count: u64,
    pub ns: u64,
}

/// One raw cluster span (offsets from the run's epoch).
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: usize,
}

/// A cluster whose label waits for the next ring drain.
struct Pending {
    first_seq: u64,
    ns: u32,
    /// Index into the raw span list, if the span is kept.
    raw: Option<usize>,
}

/// What the traced pass over the window produced.
pub struct TracedWindow {
    pub outcome: WindowOutcome,
    pub kinds: [KindStat; 16],
    /// Every cluster's dispatch time, ascending.
    pub cluster_ns: Vec<u32>,
    /// Trace events recorded in the window, by wire name.
    pub events: BTreeMap<&'static str, u64>,
    pub raw: Vec<RawSpan>,
    /// Offsets of the `window` span from the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl TracedWindow {
    pub fn clusters(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    pub fn cluster_ns_total(&self) -> u64 {
        self.kinds.iter().map(|k| k.ns).sum()
    }

    pub fn records(&self) -> u64 {
        self.events.values().sum()
    }

    pub fn event(&self, name: &str) -> u64 {
        self.events.get(name).copied().unwrap_or(0)
    }

    /// Share of the clusters' total dispatch time spent in kind `i`.
    pub fn share(&self, i: usize) -> f64 {
        self.kinds[i].ns as f64 / self.cluster_ns_total().max(1) as f64
    }
}

/// The clusters seen so far: labelled ones counted by kind, the rest
/// waiting for the ring drain that will name them.
struct ClusterLog {
    kinds: [KindStat; 16],
    cluster_ns: Vec<u32>,
    events: BTreeMap<&'static str, u64>,
    raw: Vec<RawSpan>,
    pending: Vec<Pending>,
    /// Trace records below this sequence number have been read.
    drained: u64,
}

impl ClusterLog {
    /// Accounts one cluster that took `ns` from `start_ns` and recorded
    /// the trace events `r0..r1`.
    fn cluster(&mut self, tracer: &Tracer, start_ns: u64, ns: u64, r0: u64, r1: u64) {
        let ns32 = u32::try_from(ns).unwrap_or(u32::MAX);
        self.cluster_ns.push(ns32);
        let raw = (self.raw.len() < RAW_SPANS).then(|| {
            self.raw.push(RawSpan {
                start_ns,
                end_ns: start_ns + ns,
                kind: SILENT,
            });
            self.raw.len() - 1
        });
        if r1 == r0 {
            self.kinds[SILENT].count += 1;
            self.kinds[SILENT].ns += ns;
            return;
        }
        self.pending.push(Pending {
            first_seq: r0,
            ns: ns32,
            raw,
        });
        if r1 - self.drained >= (TRACE_RING / 2) as u64 {
            self.drain(tracer);
        }
    }

    /// Reads the ring: counts every new record by name and labels the
    /// pending clusters with their first record's kind.
    fn drain(&mut self, tracer: &Tracer) {
        let recs = tracer.records();
        for rec in recs.iter().filter(|r| r.seq >= self.drained) {
            *self.events.entry(rec.ev.name()).or_insert(0) += 1;
        }
        let first_held = recs.first().map_or(u64::MAX, |r| r.seq);
        for p in self.pending.drain(..) {
            // A first event the ring no longer holds cannot happen while
            // drains run at half a ring; fold it into `other` if it does.
            let kind = p
                .first_seq
                .checked_sub(first_held)
                .and_then(|i| recs.get(i as usize))
                .map_or(OTHER, |r| kind_index(r.ev.name()));
            self.kinds[kind].count += 1;
            self.kinds[kind].ns += u64::from(p.ns);
            if let Some(i) = p.raw {
                self.raw[i].kind = kind;
            }
        }
        self.drained = tracer.recorded();
    }
}

/// Runs the window cluster by cluster on a system prepared with
/// [`crate::workloads::Observe::Traced`].
pub fn run_window_traced(
    sys: &mut TigerSystem,
    plan: &RunPlan,
    clock: &mut RefClock,
    epoch: Instant,
) -> TracedWindow {
    let open = open_window(sys, plan);
    let end = plan.window_end();
    let mut sampled = Sampled::default();
    let mut next_sample = plan.warm + SimDuration::from_secs(1);
    let mut log = ClusterLog {
        kinds: [KindStat::default(); 16],
        cluster_ns: Vec::new(),
        events: BTreeMap::new(),
        raw: Vec::with_capacity(RAW_SPANS),
        pending: Vec::new(),
        // Events recorded during set-up are not the window's.
        drained: sys.tracer().recorded(),
    };

    let cpu0 = host::oncpu_ns();
    let wall0 = Instant::now();
    let start_ns = wall0.duration_since(epoch).as_nanos() as u64;
    while let Some(at) = sys.shared().queue.peek_time().filter(|t| *t <= end) {
        // The same once-a-second samples as the untraced pass takes,
        // at the same simulated instants.
        while at > next_sample {
            sampled.sample(sys);
            next_sample += SimDuration::from_secs(1);
        }
        let r0 = sys.tracer().recorded();
        let t = Instant::now();
        sys.run_until(at);
        let ns = t.elapsed().as_nanos() as u64;
        let r1 = sys.tracer().recorded();
        let cluster_start = t.duration_since(epoch).as_nanos() as u64;
        log.cluster(sys.tracer(), cluster_start, ns, r0, r1);
        clock.work(ns);
    }
    log.drain(sys.tracer());
    while next_sample <= end {
        sampled.sample(sys);
        next_sample += SimDuration::from_secs(1);
    }
    let oncpu_frac = oncpu_share(cpu0, wall0);
    let end_ns = Instant::now().duration_since(epoch).as_nanos() as u64;
    let span = clock.take();
    log.cluster_ns.sort_unstable();
    let outcome = close_window(sys, plan, span, open, sampled, oncpu_frac);
    TracedWindow {
        outcome,
        kinds: log.kinds,
        cluster_ns: log.cluster_ns,
        events: log.events,
        raw: log.raw,
        start_ns,
        end_ns,
    }
}

/// One entry of the trace file's span list.
fn span_json(
    id: usize,
    parent: Option<usize>,
    name: &str,
    start_ns: u64,
    end_ns: u64,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("name".to_string(), Json::str(name)),
        ("start_ns".to_string(), Json::Num(start_ns as f64)),
        ("end_ns".to_string(), Json::Num(end_ns as f64)),
        (
            "parent".to_string(),
            parent.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
    ];
    pairs.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// Renders `out/<workload>.trace.json`: the span tree (`run` → `setup` →
/// phases; `run` → `window` → the first [`RAW_SPANS`] `core.cluster`
/// spans; `run` → `probe.*`), the per-kind aggregate over *all* clusters,
/// and the window's trace-event counts.
pub fn trace_file(
    plan: &RunPlan,
    phases: &[Phase; 4],
    traced: &TracedWindow,
    probes: &[ProbeSpan],
    run_end_ns: u64,
) -> Json {
    let mut spans = Vec::new();
    const RUN: usize = 0;
    const SETUP: usize = 1;
    spans.push(span_json(RUN, None, "run", 0, run_end_ns, vec![]));
    spans.push(span_json(
        SETUP,
        Some(RUN),
        "setup",
        phases[0].start_ns,
        phases[3].end_ns,
        vec![],
    ));
    for p in phases {
        spans.push(span_json(
            spans.len(),
            Some(SETUP),
            p.name,
            p.start_ns,
            p.end_ns,
            vec![("work_ns", Json::Num(p.work_ns as f64))],
        ));
    }
    let window = spans.len();
    spans.push(span_json(
        window,
        Some(RUN),
        "window",
        traced.start_ns,
        traced.end_ns,
        vec![("work_ns", Json::Num(traced.cluster_ns_total() as f64))],
    ));
    for r in &traced.raw {
        spans.push(span_json(
            spans.len(),
            Some(window),
            "core.cluster",
            r.start_ns,
            r.end_ns,
            vec![("kind", Json::str(CLUSTER_KINDS[r.kind]))],
        ));
    }
    for p in probes {
        spans.push(span_json(
            spans.len(),
            Some(RUN),
            &p.name,
            p.start_ns,
            p.end_ns,
            vec![("ns_per_op", Json::Num(p.ns_per_op))],
        ));
    }
    let clusters = Json::Obj(
        CLUSTER_KINDS
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let s = traced.kinds[i];
                (
                    k.to_string(),
                    Json::obj([
                        ("count", Json::Num(s.count as f64)),
                        ("total_ns", Json::Num(s.ns as f64)),
                        ("share", Json::Num(traced.share(i))),
                    ]),
                )
            })
            .collect(),
    );
    let events = Json::Obj(
        traced
            .events
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
            .collect(),
    );
    Json::obj([
        ("run_id", Json::str(format!("{}-{}", plan.name, plan.seed))),
        ("workload", Json::str(plan.name)),
        ("seed", Json::Num(plan.seed as f64)),
        ("window_sim_s", Json::Num(plan.window_s as f64)),
        ("clusters_total", Json::Num(traced.clusters() as f64)),
        ("raw_cluster_spans", Json::Num(traced.raw.len() as f64)),
        ("core.cluster", clusters),
        ("trace_events", events),
        ("spans", Json::Arr(spans)),
    ])
}
