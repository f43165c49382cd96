//! Declarative workload plans.
//!
//! A [`WorkloadPlan`] is the demand-side twin of
//! [`tiger_faults::FaultPlan`]: a list of clauses describing *who asks for
//! what, when* — a title-popularity model (Zipf or uniform, with
//! flash-crowd overlays), an arrival process (Poisson, MMPP-style bursts,
//! diurnal modulation), and a per-viewer session machine (pause / resume /
//! seek / abandon with hazard-rate dwell times). Plans are written in a
//! line-oriented text format and parsed ([`WorkloadPlan::parse`]) into
//! pure data — nothing is sampled until the plan is compiled against an
//! RNG tree ([`WorkloadPlan::compile`]).
//!
//! Determinism contract: a plan plus the system seed fully determines
//! every arrival instant, title choice, and session transition. All
//! workload randomness draws from streams forked under the `"workgen"`
//! subtree, disjoint from the disks', the network's, and the fault
//! injectors' streams, so a plan perturbs only the demand it declares and
//! a fixed `(plan, seed)` reproduces bit-identical runs at any fleet
//! thread count.

use tiger_faults::{parse_duration, FaultPlan};
use tiger_sim::kv::{clauses, Args};
use tiger_sim::{RngTree, SimDuration, SimTime};

use crate::arrival::Arrivals;
use crate::popularity::Popularity;
use crate::session::SessionSampler;

/// The base per-title choice distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PopularitySpec {
    /// Zipf with exponent `s` over `titles` ranks: title `i` gets weight
    /// `1/(i+1)^s`. `s = 0` degenerates to uniform.
    Zipf {
        /// The skew exponent (0 = uniform, ~1 = classic Zipf).
        s: f64,
        /// Catalog size.
        titles: u32,
    },
    /// Every title equally likely.
    Uniform {
        /// Catalog size.
        titles: u32,
    },
}

impl PopularitySpec {
    /// The catalog size the spec draws over.
    pub fn titles(&self) -> u32 {
        match *self {
            PopularitySpec::Zipf { titles, .. } | PopularitySpec::Uniform { titles } => titles,
        }
    }
}

/// A correlated flash crowd: at `at`, demand on `title` jumps to `peak`
/// times its base rate and decays back exponentially with time constant
/// `decay`. The surge is *additive* population — extra arrivals all
/// asking for the hot title — so it raises both the title's share and the
/// total arrival rate (the worst case for declustered mirroring: §2.2's
/// hotspot, but time-correlated instead of equitemporally spaced).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowd {
    /// The hot title's rank.
    pub title: u32,
    /// Onset instant.
    pub at: SimTime,
    /// Peak demand multiplier on the hot title (≥ 1).
    pub peak: f64,
    /// Exponential decay time constant back to base demand.
    pub decay: SimDuration,
}

/// An MMPP-style burst overlay on the arrival process: arrivals run at
/// `mult` × the base rate during burst states whose lengths are
/// exponential with mean `mean_len`, separated by quiet gaps with mean
/// `mean_gap` (a two-state Markov-modulated Poisson process).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Burst {
    /// Rate multiplier while bursting (≥ 1).
    pub mult: f64,
    /// Mean burst duration.
    pub mean_len: SimDuration,
    /// Mean quiet-gap duration.
    pub mean_gap: SimDuration,
}

/// Diurnal modulation: the base rate is multiplied by a raised cosine
/// with the given `period`, peaking at 1 at t = 0 and bottoming out at
/// `trough`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Diurnal {
    /// One full day (or compressed day) of the curve.
    pub period: SimDuration,
    /// The off-peak rate floor, as a fraction of peak (0 < trough ≤ 1).
    pub trough: f64,
}

/// The arrival process: a base Poisson rate with optional burst and
/// diurnal overlays (flash crowds add their surge on top; see
/// [`FlashCrowd`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// Base arrival rate in viewers per second.
    pub rate_per_sec: f64,
    /// Optional MMPP burst overlay.
    pub burst: Option<Burst>,
    /// Optional diurnal modulation.
    pub diurnal: Option<Diurnal>,
}

/// The per-viewer session machine: competing hazard rates out of the
/// Playing state (pause / seek / abandon), an exponential dwell in
/// Paused, and an interactive fraction — the rest of the population plays
/// straight through. Rates are per second of play; a rate of 0 disables
/// that transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionSpec {
    /// Fraction of viewers that behave interactively (the rest are
    /// passive and never transition).
    pub interactive: f64,
    /// Hazard rate of pausing, per second of play.
    pub pause_rate: f64,
    /// Mean dwell in Paused before resuming.
    pub dwell_mean: SimDuration,
    /// Hazard rate of seeking to a uniform random block, per second.
    pub seek_rate: f64,
    /// Hazard rate of abandoning the session for good, per second.
    pub abandon_rate: f64,
}

impl SessionSpec {
    /// Everyone plays straight through (the default).
    pub fn passive() -> Self {
        SessionSpec {
            interactive: 0.0,
            pause_rate: 0.0,
            dwell_mean: SimDuration::from_secs(10),
            seek_rate: 0.0,
            abandon_rate: 0.0,
        }
    }
}

/// A whole workload scenario: who asks for what, when, for how long —
/// plus an embedded [`FaultPlan`] so a single plan file can compose
/// demand with failures (`fault <clause>` lines).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPlan {
    /// Base per-title popularity.
    pub popularity: PopularitySpec,
    /// Flash-crowd overlays.
    pub crowds: Vec<FlashCrowd>,
    /// The arrival process.
    pub arrivals: ArrivalSpec,
    /// The per-viewer session machine.
    pub session: SessionSpec,
    /// Hard cap on total arrivals (bounds work on open-ended processes).
    pub max_viewers: u32,
    /// Arrivals stop at this horizon (the run may continue past it to
    /// let started streams play out).
    pub horizon: SimDuration,
    /// Faults to inject alongside the demand (empty by default).
    pub faults: FaultPlan,
}

impl Default for WorkloadPlan {
    fn default() -> Self {
        WorkloadPlan {
            popularity: PopularitySpec::Uniform { titles: 16 },
            crowds: Vec::new(),
            arrivals: ArrivalSpec {
                rate_per_sec: 1.0,
                burst: None,
                diurnal: None,
            },
            session: SessionSpec::passive(),
            max_viewers: 10_000,
            horizon: SimDuration::from_secs(60),
            faults: FaultPlan::new(),
        }
    }
}

/// The three seeded generators a plan compiles to, plus the title-choice
/// stream. Everything is derived from the `"workgen"` subtree the caller
/// passes in, so two compilations from the same tree are bit-identical.
#[derive(Clone, Debug)]
pub struct CompiledWorkload {
    /// Per-title choice (base distribution + flash-crowd overlays).
    pub popularity: Popularity,
    /// The arrival process (owns its own RNG stream).
    pub arrivals: Arrivals,
    /// Per-viewer session scripts (forks one stream per viewer index).
    pub sessions: SessionSampler,
    /// The title-choice stream (fed to [`Popularity::sample`]).
    pub chooser: tiger_sim::SimRng,
}

impl WorkloadPlan {
    /// An empty-overlay plan with the defaults (uniform 16 titles,
    /// 1 arrival/s Poisson, passive sessions, 60 s horizon).
    pub fn new() -> Self {
        Self::default()
    }

    /// The catalog size the plan draws over.
    pub fn titles(&self) -> u32 {
        self.popularity.titles()
    }

    /// Compiles the plan into its seeded generators. `tree` must be the
    /// `"workgen"` subtree of the system seed so workload randomness
    /// stays disjoint from every other stream:
    ///
    /// ```
    /// # use tiger_sim::RngTree;
    /// # use tiger_workgen::WorkloadPlan;
    /// let plan = WorkloadPlan::parse("zipf s=1.1 titles=64").unwrap();
    /// let tree = RngTree::new(1997).subtree("workgen", 0);
    /// let mut w = plan.compile(&tree);
    /// let title = w.popularity.sample(tiger_sim::SimTime::ZERO, &mut w.chooser);
    /// assert!(title < 64);
    /// ```
    pub fn compile(&self, tree: &RngTree) -> CompiledWorkload {
        let popularity = Popularity::new(&self.popularity, &self.crowds);
        let arrivals = Arrivals::new(
            &self.arrivals,
            popularity.crowd_rates(),
            tree.fork("arrivals", 0),
        );
        let sessions = SessionSampler::new(self.session, tree.subtree("session", 0));
        CompiledWorkload {
            popularity,
            arrivals,
            sessions,
            chooser: tree.fork("choose", 0),
        }
    }

    /// Parses the line-oriented plan format. One clause per line; blank
    /// lines and `#` comments are skipped:
    ///
    /// ```text
    /// # popularity: ranks are tN tokens; s=0 degenerates to uniform
    /// zipf s=1.1 titles=256
    /// flashcrowd title=t7 at=120s peak=40x decay=60s
    /// # arrivals: rates carry a /s, /min, or /h unit
    /// arrivals rate=2/s
    /// burst rate=8x mean=20s gap=60s
    /// diurnal period=24h trough=0.15
    /// # sessions: hazard rates per unit of play time
    /// session interactive=0.4 pause=3/min dwell=15s seek=2/min abandon=0.5/min
    /// # driver shape
    /// viewers max=200
    /// horizon t=300s
    /// # compose any tiger-faults clause
    /// fault crash c1 at=130s
    /// ```
    pub fn parse(text: &str) -> Result<WorkloadPlan, String> {
        let mut plan = WorkloadPlan::new();
        // The line each flash crowd was declared on.
        let mut crowd_lines = Vec::new();
        for (n, line) in clauses(text) {
            // A fault clause joins the plan's fault list in file order, so
            // its clause numbering matches a standalone fault file.
            match line.strip_prefix("fault ") {
                Some(fault) => plan
                    .faults
                    .parse_clause(fault)
                    .map_err(|e| format!("fault: {e}")),
                None => parse_clause(line, &mut plan),
            }
            .map_err(|e| format!("line {n}: {e}"))?;
            crowd_lines.resize(plan.crowds.len(), n);
        }
        // Whichever clause came last, a crowd outside the catalog is the
        // crowd's error.
        for (c, n) in plan.crowds.iter().zip(crowd_lines) {
            if c.title >= plan.titles() {
                return Err(format!(
                    "line {n}: flashcrowd title=t{} is outside the {}-title catalog",
                    c.title,
                    plan.titles()
                ));
            }
        }
        Ok(plan)
    }
}

/// Loads and parses a plan file, prefixing every error with the path —
/// and, for clause errors, the line — in the conventional
/// `path:line: message` shape editors and CI logs hyperlink.
///
/// This is the one place plan-file diagnostics are formatted; whatever
/// takes a plan file (`fleet --plan FILE`) should call it rather than
/// hand-rolling `read_to_string` + [`WorkloadPlan::parse`].
pub fn load_plan_file(path: impl AsRef<std::path::Path>) -> Result<WorkloadPlan, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read plan: {e}", path.display()))?;
    WorkloadPlan::parse(&text).map_err(|e| {
        // Errors arrive as "line N: msg"; fold the line number into the
        // path prefix.
        match e
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(": "))
        {
            Some((n, msg)) => format!("{}:{n}: {msg}", path.display()),
            None => format!("{}: {e}", path.display()),
        }
    })
}

/// Parses a catalog size: `titles=` must name at least one title.
fn parse_titles(tok: &str) -> Result<u32, String> {
    match tok.parse() {
        Ok(0) => Err("titles= must be at least 1".into()),
        Ok(titles) => Ok(titles),
        Err(_) => Err("bad titles=".into()),
    }
}

// --- Text format -------------------------------------------------------------

/// Parses a rate token with a time unit: `2/s`, `40/min`, `0.5/h` — into
/// events per second.
pub fn parse_rate(tok: &str) -> Result<f64, String> {
    let (num, per) = tok
        .split_once('/')
        .ok_or_else(|| format!("rate {tok:?} needs a /s, /min, or /h unit"))?;
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad number in rate {tok:?}"))?;
    let div = match per {
        "s" => 1.0,
        "min" => 60.0,
        "h" => 3_600.0,
        _ => return Err(format!("unknown rate unit in {tok:?} (want /s, /min, /h)")),
    };
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("rate {tok:?} must be finite and non-negative"));
    }
    Ok(v / div)
}

/// Parses a multiplier token: `40x` → 40.0.
fn parse_mult(tok: &str) -> Result<f64, String> {
    let n = tok
        .strip_suffix('x')
        .ok_or_else(|| format!("multiplier {tok:?} needs an x suffix (e.g. 40x)"))?;
    let v: f64 = n
        .parse()
        .map_err(|_| format!("bad number in multiplier {tok:?}"))?;
    if !(v.is_finite() && v >= 1.0) {
        return Err(format!("multiplier {tok:?} must be ≥ 1"));
    }
    Ok(v)
}

/// Parses a title token: `t7` → 7.
fn parse_title(tok: &str) -> Result<u32, String> {
    tok.strip_prefix('t')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("bad title token {tok:?} (want tN)"))
}

fn parse_fraction(tok: &str, what: &str) -> Result<f64, String> {
    let v: f64 = tok.parse().map_err(|_| format!("bad {what} {tok:?}"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{what} {tok:?} must be in [0, 1]"));
    }
    Ok(v)
}

fn parse_clause(line: &str, plan: &mut WorkloadPlan) -> Result<(), String> {
    let toks: Vec<&str> = line.split_ascii_whitespace().collect();
    let (&verb, rest) = toks.split_first().ok_or("empty clause")?;
    let mut args = Args::new(rest)?;
    match verb {
        "zipf" => {
            let s: f64 = args
                .get("s")?
                .parse()
                .map_err(|_| "bad s= (expected a number)".to_string())?;
            if !(s.is_finite() && s >= 0.0) {
                return Err("s= must be finite and non-negative".into());
            }
            let titles = parse_titles(args.get("titles")?)?;
            plan.popularity = PopularitySpec::Zipf { s, titles };
        }
        "uniform" => {
            let titles = parse_titles(args.get("titles")?)?;
            plan.popularity = PopularitySpec::Uniform { titles };
        }
        "flashcrowd" => {
            let decay = parse_duration(args.get("decay")?)?;
            if decay == SimDuration::ZERO {
                return Err("decay= must be positive".into());
            }
            plan.crowds.push(FlashCrowd {
                title: parse_title(args.get("title")?)?,
                at: SimTime::ZERO + parse_duration(args.get("at")?)?,
                peak: parse_mult(args.get("peak")?)?,
                decay,
            });
        }
        "arrivals" => {
            let rate = parse_rate(args.get("rate")?)?;
            if rate <= 0.0 {
                return Err("rate= must be positive".into());
            }
            plan.arrivals.rate_per_sec = rate;
        }
        "burst" => {
            plan.arrivals.burst = Some(Burst {
                mult: parse_mult(args.get("rate")?)?,
                mean_len: parse_duration(args.get("mean")?)?,
                mean_gap: parse_duration(args.get("gap")?)?,
            });
        }
        "diurnal" => {
            let period = parse_duration(args.get("period")?)?;
            if period == SimDuration::ZERO {
                return Err("period= must be positive".into());
            }
            let trough = parse_fraction(args.get("trough")?, "trough")?;
            if trough == 0.0 {
                return Err("trough= must be positive (0 would silence arrivals)".into());
            }
            plan.arrivals.diurnal = Some(Diurnal { period, trough });
        }
        "session" => {
            let mut spec = SessionSpec::passive();
            spec.interactive = parse_fraction(args.get("interactive")?, "interactive")?;
            if let Some(p) = args.opt("pause") {
                spec.pause_rate = parse_rate(p)?;
            }
            if let Some(d) = args.opt("dwell") {
                spec.dwell_mean = parse_duration(d)?;
            }
            if let Some(s) = args.opt("seek") {
                spec.seek_rate = parse_rate(s)?;
            }
            if let Some(a) = args.opt("abandon") {
                spec.abandon_rate = parse_rate(a)?;
            }
            if spec.pause_rate > 0.0 && spec.dwell_mean == SimDuration::ZERO {
                return Err("dwell= must be positive when pause= is set".into());
            }
            plan.session = spec;
        }
        "viewers" => {
            let max: u32 = args
                .get("max")?
                .parse()
                .map_err(|_| "bad max=".to_string())?;
            if max == 0 {
                return Err("max= must be at least 1".into());
            }
            plan.max_viewers = max;
        }
        "horizon" => {
            let t = parse_duration(args.get("t")?)?;
            if t == SimDuration::ZERO {
                return Err("t= must be positive".into());
            }
            plan.horizon = t;
        }
        other => return Err(format!("unknown clause verb {other:?}")),
    }
    args.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "
# the doc example
zipf s=1.1 titles=256
flashcrowd title=t7 at=120s peak=40x decay=60s
arrivals rate=2/s
burst rate=8x mean=20s gap=60s
diurnal period=24h trough=0.15
session interactive=0.4 pause=3/min dwell=15s seek=2/min abandon=0.5/min
viewers max=200
horizon t=300s
fault crash c1 at=130s
fault restart c1 at=200s
";

    #[test]
    fn example_plan_parses() {
        let plan = WorkloadPlan::parse(EXAMPLE).expect("parses");
        assert_eq!(
            plan.popularity,
            PopularitySpec::Zipf {
                s: 1.1,
                titles: 256
            }
        );
        assert_eq!(plan.crowds.len(), 1);
        assert_eq!(plan.crowds[0].title, 7);
        assert_eq!(plan.crowds[0].peak, 40.0);
        assert_eq!(plan.crowds[0].decay, SimDuration::from_secs(60));
        assert_eq!(plan.arrivals.rate_per_sec, 2.0);
        let b = plan.arrivals.burst.expect("burst");
        assert_eq!(b.mult, 8.0);
        assert_eq!(b.mean_gap, SimDuration::from_secs(60));
        let d = plan.arrivals.diurnal.expect("diurnal");
        assert_eq!(d.period, SimDuration::from_secs(86_400));
        assert_eq!(d.trough, 0.15);
        assert_eq!(plan.session.interactive, 0.4);
        assert!((plan.session.pause_rate - 3.0 / 60.0).abs() < 1e-12);
        assert_eq!(plan.session.dwell_mean, SimDuration::from_secs(15));
        assert_eq!(plan.max_viewers, 200);
        assert_eq!(plan.horizon, SimDuration::from_secs(300));
        assert_eq!(plan.faults.process.len(), 2, "composed fault clauses");
    }

    #[test]
    fn parse_matches_struct_literal() {
        let parsed = WorkloadPlan::parse(
            "zipf s=1.1 titles=32\nflashcrowd title=t0 at=40s peak=30x decay=20s\n\
             arrivals rate=0.5/s\nviewers max=60\nhorizon t=90s\n",
        )
        .unwrap();
        let want = WorkloadPlan {
            popularity: PopularitySpec::Zipf { s: 1.1, titles: 32 },
            crowds: vec![FlashCrowd {
                title: 0,
                at: SimTime::from_secs(40),
                peak: 30.0,
                decay: SimDuration::from_secs(20),
            }],
            arrivals: ArrivalSpec {
                rate_per_sec: 0.5,
                ..WorkloadPlan::default().arrivals
            },
            max_viewers: 60,
            horizon: SimDuration::from_secs(90),
            ..WorkloadPlan::default()
        };
        assert_eq!(parsed, want);
    }

    #[test]
    fn load_plan_file_reports_path_and_line() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("tiger_workgen_good_{}.plan", std::process::id()));
        let bad = dir.join(format!("tiger_workgen_bad_{}.plan", std::process::id()));

        std::fs::write(
            &good,
            "uniform titles=4\narrivals rate=1/s\nhorizon t=30s\n",
        )
        .unwrap();
        let plan = load_plan_file(&good).expect("good plan loads");
        assert_eq!(plan.titles(), 4);

        // The clause error lands on line 2 and the message leads with
        // "path:2:" so editors and CI logs hyperlink it.
        std::fs::write(&bad, "uniform titles=4\nwarp factor=9\nhorizon t=30s\n").unwrap();
        let err = load_plan_file(&bad).unwrap_err();
        assert!(
            err.starts_with(&format!("{}:2: ", bad.display())),
            "want path:2: prefix, got {err}"
        );
        assert!(err.contains("unknown clause verb"), "{err}");

        // So does an embedded fault clause's, blank lines and comments
        // above it counted.
        std::fs::write(
            &bad,
            "uniform titles=4\n\n# faults\nfault crash c1 at=9s\n\nfault warp c1 at=2s\n",
        )
        .unwrap();
        let err = load_plan_file(&bad).unwrap_err();
        assert!(
            err.starts_with(&format!("{}:6: fault: ", bad.display())),
            "want path:6: prefix, got {err}"
        );
        assert!(err.contains("unknown clause verb \"warp\""), "{err}");

        // So does a crowd outside the catalog, on the crowd's line.
        std::fs::write(&bad, "\nflashcrowd title=t99 at=1s peak=2x decay=5s\n").unwrap();
        let err = load_plan_file(&bad).unwrap_err();
        assert!(err.starts_with(&format!("{}:2: ", bad.display())), "{err}");
        assert!(err.contains("outside"), "{err}");

        // A missing file names the path too.
        let missing = dir.join("tiger_workgen_definitely_missing.plan");
        let _ = std::fs::remove_file(&missing);
        let err = load_plan_file(&missing).unwrap_err();
        assert!(err.contains("cannot read plan"), "{err}");
        assert!(err.contains("tiger_workgen_definitely_missing"), "{err}");

        let _ = std::fs::remove_file(&good);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn rates_parse_with_units() {
        assert_eq!(parse_rate("2/s").unwrap(), 2.0);
        assert!((parse_rate("30/min").unwrap() - 0.5).abs() < 1e-12);
        assert!((parse_rate("7200/h").unwrap() - 2.0).abs() < 1e-12);
        assert!(parse_rate("2").is_err(), "unit required");
        assert!(parse_rate("2/fortnight").is_err());
        assert!(parse_rate("-1/s").is_err());
    }

    #[test]
    fn malformed_clauses_name_the_line() {
        for (bad, needle) in [
            ("warp factor=9", "unknown clause verb"),
            ("zipf s=1.1", "titles="),
            ("zipf s=-1 titles=8", "non-negative"),
            ("flashcrowd title=7 at=1s peak=2x decay=5s", "tN"),
            ("flashcrowd title=t0 at=1s peak=2 decay=5s", "x suffix"),
            ("flashcrowd title=t0 at=1s peak=0.5x decay=5s", "≥ 1"),
            ("arrivals rate=2", "unit"),
            ("diurnal period=24h trough=1.5", "[0, 1]"),
            ("session interactive=0.4 pause=3/min dwell=0s", "dwell="),
            ("viewers max=0", "at least 1"),
            ("horizon t=10", "unit"),
            // What no reader understands is an error, not a default.
            ("uniform titles=4 title=9", "unknown argument title="),
            ("viewers max=10 max=20", "max= given twice"),
            ("zipf s=1.1 titles=0", "titles= must be at least 1"),
        ] {
            let err = WorkloadPlan::parse(bad).expect_err(bad);
            assert!(err.contains("line 1"), "{bad} -> {err}");
            assert!(err.contains(needle), "{bad} -> {err}");
        }
        // A crowd outside the catalog is checked after all lines parse,
        // and named on its own line whichever clause came last.
        for plan in [
            "uniform titles=4\nflashcrowd title=t9 at=1s peak=2x decay=5s",
            "flashcrowd title=t1 at=1s peak=2x decay=5s\nflashcrowd title=t9 at=1s peak=2x decay=5s\n\
             uniform titles=4",
        ] {
            let err = WorkloadPlan::parse(plan).expect_err("crowd outside catalog");
            assert!(err.starts_with("line 2: "), "{err}");
            assert!(err.contains("outside"), "{err}");
        }
        // Malformed composed fault clauses surface with the fault prefix
        // and their own line.
        let err =
            WorkloadPlan::parse("uniform titles=4\nfault warp c1 at=2s").expect_err("bad fault");
        assert_eq!(err, "line 2: fault: unknown clause verb \"warp\"");
    }

    #[test]
    fn compile_is_deterministic() {
        let plan = WorkloadPlan::parse(EXAMPLE).unwrap();
        let tree = RngTree::new(7).subtree("workgen", 0);
        let mut a = plan.compile(&tree);
        let mut b = plan.compile(&tree);
        for _ in 0..100 {
            assert_eq!(a.arrivals.next_arrival(), b.arrivals.next_arrival());
            let t = SimTime::from_secs(125);
            assert_eq!(
                a.popularity.sample(t, &mut a.chooser),
                b.popularity.sample(t, &mut b.chooser)
            );
        }
        let sa = a
            .sessions
            .script(3, SimTime::from_secs(1), 400, SimTime::from_secs(300));
        let sb = b
            .sessions
            .script(3, SimTime::from_secs(1), 400, SimTime::from_secs(300));
        assert_eq!(sa, sb);
    }
}
