//! The five workloads: what each one builds, how it is warmed up, and the
//! guard rails that must hold before the measured window opens.
//!
//! Every workload runs on `TigerConfig::sosp97()` with disk blips off
//! (a blip is a by-design lost block, and the benchmark wants workloads on
//! which no operation fails) and differs only where its table row says.
//! The only inputs are the workload name and the seed: the seed becomes
//! `TigerConfig::seed` and picks the titles; the program under test sees
//! nothing but the generated requests.

use std::time::Instant;

use tiger_core::{RedundancyMode, TigerConfig, TigerSystem};
use tiger_layout::ids::ViewerInstance;
use tiger_layout::{CubId, StripeConfig};
use tiger_sim::{RngTree, SimDuration, SimTime};
use tiger_workgen::WorkloadPlan;
use tiger_workload::{drive_plan, populate_catalog, CatalogSpec};

use crate::refclock::{RefClock, RefSpan};
use crate::spec::WORKLOADS;

/// The cub the failure workloads kill (the Fig. 9 victim).
pub const VICTIM: CubId = CubId(5);
/// The cub whose disks and NIC `sample_window` reports: the victim's
/// mirroring successor, as in Fig. 9.
pub const REPORT_CUB: CubId = CubId(6);
/// `--seconds` value at which the windows have their table lengths.
pub const BASE_SECONDS: f64 = 10.0;
/// A failure is injected this long before the window opens, so the
/// by-design loss of the deadman detection window falls in set-up.
const FAIL_LEAD: SimDuration = SimDuration::from_secs(20);
/// Closed workloads end this long before the first viewer's end-of-file.
const EOF_MARGIN: SimDuration = SimDuration::from_secs(100);

/// Where the viewers come from.
#[derive(Clone, Debug)]
pub enum Demand {
    /// A fixed population: `starts` requests evenly spread over `spread`.
    Closed { starts: u32, spread: SimDuration },
    /// Arrivals on a simulated-time schedule regardless of system state.
    Open { plan: Box<WorkloadPlan> },
}

/// One run's resolved parameters.
#[derive(Clone, Debug)]
pub struct RunPlan {
    pub name: &'static str,
    pub seed: u64,
    pub cfg: TigerConfig,
    pub catalog: CatalogSpec,
    pub demand: Demand,
    /// Set-up runs the system to here; the window opens at this instant.
    pub warm: SimTime,
    /// Measured window, whole simulated seconds.
    pub window_s: u64,
    /// When the victim cub loses power, if it does.
    pub fail_at: Option<SimTime>,
    /// Guard rail: streams the controller must count as active when the
    /// window opens.
    pub min_active: u32,
}

impl RunPlan {
    pub fn window_end(&self) -> SimTime {
        self.warm + SimDuration::from_secs(self.window_s)
    }

    pub fn is_closed(&self) -> bool {
        matches!(self.demand, Demand::Closed { .. })
    }
}

/// Resolves workload `name` for `seed`. `seconds` scales the window
/// (table length at [`BASE_SECONDS`]); `quick` runs a quarter of the
/// population for a twentieth of the window — for tests, not numbers.
pub fn plan(name: &str, seed: u64, seconds: f64, quick: bool) -> Result<RunPlan, String> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (see perf --list)"))?;
    let mut cfg = TigerConfig::sosp97();
    cfg.seed = seed;
    cfg.disk = cfg.disk.without_blips();
    let mut catalog = CatalogSpec::sosp97();
    let pop_div = if quick { 4 } else { 1 };
    let secs = |s: u64| SimDuration::from_secs(s);

    // (closed starts, spread s, warm s, table window s)
    let (starts, spread, warm, base_window) = match name {
        "steady-full" | "failover" => (602, 90, 200, if name == "failover" { 1200 } else { 1500 }),
        "vcr-churn" => (0, 0, 100, 700),
        "scale-56" => {
            cfg.stripe = StripeConfig::new(56, 4, 4);
            cfg.num_clients = 168;
            (2409, 200, 300, 250)
        }
        "coded-k2" => {
            cfg.stripe = StripeConfig::new(14, 4, 2);
            cfg.redundancy = RedundancyMode::Coded;
            // The sosp97 catalog overflows the secondary region at
            // decluster 2.
            catalog = CatalogSpec::sized_for(secs(2000), 32);
            // 70 % of the 561-stream capacity: at 80 % one seed in eight
            // misses a shard's disk deadline once or twice in degraded
            // mode, and the benchmark wants no failing operation.
            (392, 90, 150, 800)
        }
        _ => unreachable!("WORKLOADS and this match list the same names"),
    };
    let starts = starts / pop_div;
    let spread = spread / u64::from(pop_div);
    let warm_s = if quick { spread + 25 } else { warm };
    let warm = SimTime::from_secs(warm_s);

    let scale = seconds / BASE_SECONDS / if quick { 20.0 } else { 1.0 };
    let mut window_s = ((base_window as f64 * scale).round() as u64).max(20);
    let closed = name != "vcr-churn";
    if closed {
        let eof = catalog.duration.saturating_sub(EOF_MARGIN);
        let room = eof.as_nanos() / 1_000_000_000;
        if warm_s + 20 > room {
            return Err(format!("{name}: no room for a window before end-of-file"));
        }
        window_s = window_s.min(room - warm_s);
    }
    let demand = if closed {
        Demand::Closed {
            starts,
            spread: secs(spread),
        }
    } else {
        Demand::Open {
            plan: Box::new(vcr_plan(warm_s + window_s)),
        }
    };
    // The victim stays dead for the whole window. (A restart inside the
    // window would add the rejoin protocol, but at full load the rejoin
    // double-delivers a few blocks on about one seed in ten — see the
    // README's findings — and the benchmark wants no failing operation.)
    let fail_at = matches!(name, "failover" | "coded-k2").then(|| warm.saturating_sub(FAIL_LEAD));
    // Closed: ≥97 % of the population is being served (at capacity the
    // last few insertions wait minutes for a free slot: scale-56 opens on
    // 98.3–99.9 % depending on the seed). Open: ten arrivals/s living
    // ≈30 s each settle near 300 streams.
    let min_active = if closed {
        (u64::from(starts) * 97).div_ceil(100) as u32
    } else if quick {
        50
    } else {
        200
    };
    Ok(RunPlan {
        name: spec.name,
        seed,
        cfg,
        catalog,
        demand,
        warm,
        window_s,
        fail_at,
        min_active,
    })
}

/// The vcr-churn demand: ten arrivals a second of fully interactive
/// sessions (pause, seek and abandon twice a minute each), arriving until
/// `horizon_s`.
pub fn vcr_plan(horizon_s: u64) -> WorkloadPlan {
    WorkloadPlan::parse(&format!(
        "uniform titles=64\narrivals rate=10/s\n\
         session interactive=1.0 pause=2/min dwell=5s seek=2/min abandon=2/min\n\
         viewers max=4000000\nhorizon t={horizon_s}s"
    ))
    .expect("the built-in plan parses")
}

/// One timed set-up phase: a child of the `setup` span.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub name: &'static str,
    /// Offsets from the run's epoch. The interval includes the reference
    /// bursts interleaved with the phase; `work_ns` does not.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside the program under test.
    pub work_ns: u64,
}

/// A system warmed up to the first instant of its window.
pub struct Prepared {
    pub sys: TigerSystem,
    /// Every initial start request: when, from which client, as which
    /// instance.
    pub starts: Vec<(SimTime, u32, ViewerInstance)>,
    /// Requests the driver scheduled in total (starts plus session ops).
    pub ops_scheduled: u64,
    /// Arrivals the workload generator produced (0 for closed workloads).
    pub arrivals: u32,
    /// `core.new`, `workload.populate_catalog`, `workload.drive`, `warmup`.
    pub phases: [Phase; 4],
    /// The whole set-up on the reference clock.
    pub span: RefSpan,
}

impl Prepared {
    /// Wall milliseconds the program under test spent in phase `name`.
    pub fn phase_ms(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.work_ns as f64 / 1e6)
    }
}

/// How a pass observes the system it prepares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observe {
    /// Tracing and the omniscient checker off: the measured configuration.
    Off,
    /// The trace ring plus the omniscient checker.
    Traced,
}

/// Builds the system, loads the catalog, schedules the demand and the
/// faults, and warms up to `plan.warm`, timing each phase against
/// `epoch`. Fails if a guard rail does not hold when the window would
/// open.
pub fn prepare(
    plan: &RunPlan,
    clock: &mut RefClock,
    observe: Observe,
    epoch: Instant,
) -> Result<Prepared, String> {
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    // Times `f` as one phase and lets the reference clock sample the host.
    fn phase<R>(
        name: &'static str,
        clock: &mut RefClock,
        since: impl Fn(Instant) -> u64,
        f: impl FnOnce() -> R,
    ) -> (Phase, R) {
        let t = Instant::now();
        let r = f();
        let work_ns = t.elapsed().as_nanos() as u64;
        clock.work(work_ns);
        let p = Phase {
            name,
            start_ns: since(t),
            end_ns: since(Instant::now()),
            work_ns,
        };
        (p, r)
    }

    let (p_new, mut sys) = phase("core.new", clock, since, || {
        TigerSystem::new(plan.cfg.clone())
    });
    if observe == Observe::Traced {
        sys.enable_trace(crate::trace::TRACE_RING);
        sys.enable_omniscient();
    }
    let (p_catalog, files) = phase("workload.populate_catalog", clock, since, || {
        populate_catalog(&mut sys, &plan.catalog)
    });
    let (p_drive, (starts, ops_scheduled, arrivals)) =
        phase("workload.drive", clock, since, || {
            let scheduled = match &plan.demand {
                Demand::Closed { starts, spread } => {
                    let mut chooser = RngTree::new(plan.seed).fork("perf-titles", 0);
                    let n = u64::from(*starts);
                    let list: Vec<_> = (0..n)
                        .map(|i| {
                            let client = sys.add_client();
                            let file = files[chooser.gen_range(0..files.len())];
                            let at = SimTime::from_millis(50)
                                + SimDuration::from_nanos(spread.as_nanos() * i / n);
                            (at, client, sys.request_start(at, client, file))
                        })
                        .collect();
                    (list, n, 0)
                }
                Demand::Open { plan: wplan } => {
                    let d = drive_plan(&mut sys, wplan, &files);
                    let ops = u64::from(d.arrivals + d.pauses + d.resumes + d.seeks + d.abandons);
                    (d.starts, ops, d.arrivals)
                }
            };
            if let Some(at) = plan.fail_at {
                sys.fail_cub_at(at, VICTIM);
            }
            scheduled
        });

    // Warm up a simulated second at a time, like the window, so the
    // reference clock samples the host all the way through.
    let warm_start = Instant::now();
    let mut warm_work_ns = 0u64;
    for s in 1..=plan.warm.as_nanos() / 1_000_000_000 {
        let t = Instant::now();
        sys.run_until(SimTime::from_secs(s));
        let ns = t.elapsed().as_nanos() as u64;
        warm_work_ns += ns;
        clock.work(ns);
    }
    let p_warm = Phase {
        name: "warmup",
        start_ns: since(warm_start),
        end_ns: since(Instant::now()),
        work_ns: warm_work_ns,
    };
    let span = clock.take();

    let active = sys.controller().active_streams();
    if active < plan.min_active {
        return Err(format!(
            "{}: warm-up reached {active} active streams at t={}, need {}",
            plan.name, plan.warm, plan.min_active
        ));
    }
    Ok(Prepared {
        sys,
        starts,
        ops_scheduled,
        arrivals,
        phases: [p_new, p_catalog, p_drive, p_warm],
        span,
    })
}
