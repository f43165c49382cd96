//! Declarative fault scenarios.
//!
//! A [`FaultPlan`] is a list of clauses describing *what goes wrong and
//! when*: lossy or slow links, bidirectional partitions with a scheduled
//! heal, flaky or slow or dead disks, and process-level crashes, stalls,
//! and correlated power-domain cuts. Plans are written in a small
//! line-oriented text format and read by [`FaultPlan::parse`], from a
//! `.plan` file or a string in code alike; a plan is pure data — nothing
//! happens until the system compiles it into seeded injectors.
//!
//! Determinism contract: a plan plus the system seed fully determines
//! every injection. Fault decisions draw from dedicated RNG streams
//! (forked under the `"faults"` subtree), never from the network's or the
//! disks' own streams, so a plan perturbs only what it says it perturbs.

use tiger_sim::kv::{clauses, Args};
use tiger_sim::{SimDuration, SimTime};

/// Which network node a link-fault endpoint matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeSel {
    /// Any node (`*` in the text format).
    Any,
    /// The controller.
    Ctrl,
    /// Cub `c` (`cN`).
    Cub(u32),
    /// Client machine `i` (`clientN`).
    Client(u32),
}

/// The node numbering of the assembled system, defined here so plans can
/// be compiled without depending on the core crate (the system keeps the
/// one copy it numbers its nodes by): controller is node 0, cub `c` is
/// node `1 + c`, client `i` is node `1 + num_cubs + i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of cubs.
    pub num_cubs: u32,
}

impl Topology {
    /// Node id of cub `c`.
    pub fn cub_node(&self, c: u32) -> u32 {
        1 + c
    }

    /// Node id of client machine `i`.
    pub fn client_node(&self, i: u32) -> u32 {
        1 + self.num_cubs + i
    }

    /// Whether `sel` matches node id `node`.
    pub fn matches(&self, sel: NodeSel, node: u32) -> bool {
        match sel {
            NodeSel::Any => true,
            NodeSel::Ctrl => node == 0,
            NodeSel::Cub(c) => node == self.cub_node(c),
            NodeSel::Client(i) => node == self.client_node(i),
        }
    }

    /// Resolves a concrete selector to its node id (`None` for
    /// [`NodeSel::Any`]).
    pub fn resolve(&self, sel: NodeSel) -> Option<u32> {
        match sel {
            NodeSel::Any => None,
            NodeSel::Ctrl => Some(0),
            NodeSel::Cub(c) => Some(self.cub_node(c)),
            NodeSel::Client(i) => Some(self.client_node(i)),
        }
    }
}

/// A per-link fault window: messages from `src` to `dst` during
/// `[from, until)` are dropped with `drop_prob`, delayed by `extra_delay`
/// plus uniform `extra_jitter`, and (control messages only) duplicated
/// with `dup_prob`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Sender selector.
    pub src: NodeSel,
    /// Receiver selector.
    pub dst: NodeSel,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Probability a matching message is dropped.
    pub drop_prob: f64,
    /// Fixed extra one-way delay for matching messages.
    pub extra_delay: SimDuration,
    /// Maximum additional uniform delay jitter.
    pub extra_jitter: SimDuration,
    /// Probability a matching control message is delivered twice.
    pub dup_prob: f64,
}

/// A bidirectional partition: during `[from, heal)`, every message with
/// one endpoint matching group `a` and the other matching group `b` is
/// dropped (both directions).
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// One side of the cut.
    pub a: Vec<NodeSel>,
    /// The other side.
    pub b: Vec<NodeSel>,
    /// When the cut happens.
    pub from: SimTime,
    /// When connectivity is restored.
    pub heal: SimTime,
}

/// What goes wrong with one disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiskFaultKind {
    /// Reads fail transiently with `prob` during `[from, until)`; the
    /// disk itself stays alive.
    Transient {
        /// Per-read failure probability.
        prob: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// Service times are multiplied by `factor` during `[from, until)`
    /// (a degraded-throughput window: recalibration, vibration, a
    /// misbehaving firmware background scan).
    Degraded {
        /// Service-time multiplier (> 1 slows the disk).
        factor: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// The disk dies for good at `at` — distinct from a whole-cub death:
    /// the cub keeps running (and pinging), so the deadman never fires
    /// and no mirror takeover covers the lost content.
    Death {
        /// Time of death.
        at: SimTime,
    },
}

/// A fault on one specific disk (`cub`'s local disk `disk`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskFault {
    /// The owning cub.
    pub cub: u32,
    /// The cub-local disk index.
    pub disk: u32,
    /// What happens.
    pub kind: DiskFaultKind,
}

/// A process-level fault.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcessFault {
    /// Power-cut one cub at `at` (the §5 experiment's fault).
    Crash {
        /// The victim.
        cub: u32,
        /// When.
        at: SimTime,
    },
    /// Freeze a cub during `[from, until)`: it processes nothing (no
    /// pings, no reads, no sends) but its machine stays up; at `until`
    /// it resumes and works through everything that queued.
    Freeze {
        /// The stalled cub.
        cub: u32,
        /// Stall start.
        from: SimTime,
        /// Resume instant.
        until: SimTime,
    },
    /// A correlated power-domain cut: every listed cub loses power at the
    /// same instant.
    PowerDomain {
        /// The victims.
        cubs: Vec<u32>,
        /// When.
        at: SimTime,
    },
    /// Restart a previously crashed/fenced/power-cut cub at `at`: it comes
    /// back with empty schedule state and runs the rejoin protocol. A
    /// restart of a cub that never failed is a no-op.
    Restart {
        /// The rejoiner.
        cub: u32,
        /// When power returns.
        at: SimTime,
    },
}

/// A scheduled live restripe step: at `at`, the system computes a
/// [`RestripePlan`](../tiger_layout) toward a stripe widened by
/// `add_cubs` pre-provisioned spare cubs — or shrunk by `remove_cubs`
/// trailing members, which drain their primaries to the survivors and
/// are fenced out at the cut-over — and starts executing it as
/// background disk/net work inside the event loop. Exactly one of the
/// two counts is nonzero; steps queue and run in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestripeDecl {
    /// When the restripe starts.
    pub at: SimTime,
    /// How many spare cubs the new stripe adds.
    pub add_cubs: u32,
    /// How many trailing stripe members the new stripe removes.
    pub remove_cubs: u32,
}

/// A whole scenario: what goes wrong, where, and when.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-link drop/delay/jitter/duplication windows.
    pub links: Vec<LinkFault>,
    /// Bidirectional partitions with scheduled heal.
    pub partitions: Vec<Partition>,
    /// Disk faults.
    pub disks: Vec<DiskFault>,
    /// Process faults.
    pub process: Vec<ProcessFault>,
    /// Scheduled live restripes (not faults, but part of the same timed
    /// scenario vocabulary so chaos plans can reconfigure under fire).
    pub restripes: Vec<RestripeDecl>,
}

/// One timed window of the plan, with a stable clause id for trace
/// markers (`fault-start clause=N` / `fault-end clause=N`). Clause ids
/// number the windowed clauses in plan order: links first, then
/// partitions, then windowed disk faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// Stable clause id.
    pub clause: u32,
    /// Window start.
    pub from: SimTime,
    /// Window end.
    pub until: SimTime,
}

impl FaultPlan {
    /// An empty plan (injects nothing; compiling it is a no-op).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan has no clauses at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.partitions.is_empty()
            && self.disks.is_empty()
            && self.process.is_empty()
            && self.restripes.is_empty()
    }

    /// The plan's timed windows with their stable clause ids (for the
    /// `fault-start`/`fault-end` trace markers). Crashes, disk deaths,
    /// and freezes are instant-or-marked by their own dedicated events
    /// and are not listed here.
    pub fn windows(&self) -> Vec<FaultWindow> {
        let mut out = Vec::new();
        let mut clause = 0u32;
        for l in &self.links {
            out.push(FaultWindow {
                clause,
                from: l.from,
                until: l.until,
            });
            clause += 1;
        }
        for p in &self.partitions {
            out.push(FaultWindow {
                clause,
                from: p.from,
                until: p.heal,
            });
            clause += 1;
        }
        for d in &self.disks {
            match d.kind {
                DiskFaultKind::Transient { from, until, .. }
                | DiskFaultKind::Degraded { from, until, .. } => {
                    out.push(FaultWindow {
                        clause,
                        from,
                        until,
                    });
                    clause += 1;
                }
                DiskFaultKind::Death { .. } => {}
            }
        }
        out
    }

    /// Parses the line-oriented scenario format. One clause per line;
    /// blank lines and `#` comments are skipped:
    ///
    /// ```text
    /// # node tokens: * ctrl cN clientN; times: 2s 250ms 1.5s
    /// drop c1>c3 prob=0.3 from=2s until=5s
    /// delay c1>* extra=20ms jitter=10ms from=0s until=10s
    /// dup ctrl>c2 prob=0.05 from=1s until=2s
    /// partition c0,c1|c2,c3 from=4s heal=6s
    /// disk-transient c2:0 prob=0.5 from=3s until=6s
    /// disk-degraded c2:0 factor=3 from=3s until=6s
    /// disk-kill c2:0 at=5s
    /// crash c1 at=9s
    /// freeze c0 from=2s until=4s
    /// power-domain c1,c2 at=9s
    /// restart c1 at=15s
    /// restripe at=20s add=1
    /// restripe at=25s remove=1
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (n, line) in clauses(text) {
            plan.parse_clause(line)
                .map_err(|e| format!("line {n}: {e}"))?;
        }
        Ok(plan)
    }
}

// --- Text format -------------------------------------------------------------

/// Parses `2s`, `250ms`, `1.5s`, `40us`, `7ns`, `30min`, `24h` into a
/// duration. The long units exist for workload plans (diurnal periods,
/// endurance horizons); fault plans usually stay in seconds.
pub fn parse_duration(tok: &str) -> Result<SimDuration, String> {
    let (num, scale) = if let Some(n) = tok.strip_suffix("ms") {
        (n, 1_000_000.0)
    } else if let Some(n) = tok.strip_suffix("us") {
        (n, 1_000.0)
    } else if let Some(n) = tok.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = tok.strip_suffix("min") {
        (n, 60.0 * 1_000_000_000.0)
    } else if let Some(n) = tok.strip_suffix('h') {
        (n, 3_600.0 * 1_000_000_000.0)
    } else if let Some(n) = tok.strip_suffix('s') {
        (n, 1_000_000_000.0)
    } else {
        return Err(format!("time {tok:?} needs a unit (h/min/s/ms/us/ns)"));
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("bad number in time {tok:?}"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("time {tok:?} must be finite and non-negative"));
    }
    Ok(SimDuration::from_nanos((v * scale).round() as u64))
}

fn parse_time(tok: &str) -> Result<SimTime, String> {
    Ok(SimTime::ZERO + parse_duration(tok)?)
}

fn parse_node(tok: &str) -> Result<NodeSel, String> {
    match tok {
        "*" => Ok(NodeSel::Any),
        "ctrl" => Ok(NodeSel::Ctrl),
        _ => {
            if let Some(n) = tok.strip_prefix("client") {
                n.parse()
                    .map(NodeSel::Client)
                    .map_err(|_| format!("bad client token {tok:?}"))
            } else if let Some(n) = tok.strip_prefix('c') {
                n.parse()
                    .map(NodeSel::Cub)
                    .map_err(|_| format!("bad cub token {tok:?}"))
            } else {
                Err(format!("unknown node token {tok:?}"))
            }
        }
    }
}

fn parse_cub(tok: &str) -> Result<u32, String> {
    match parse_node(tok)? {
        NodeSel::Cub(c) => Ok(c),
        _ => Err(format!("expected a cub token (cN), got {tok:?}")),
    }
}

/// Parses `cN:d` (cub and local disk index).
fn parse_disk_ref(tok: &str) -> Result<(u32, u32), String> {
    let (cub, disk) = tok
        .split_once(':')
        .ok_or_else(|| format!("expected cN:disk, got {tok:?}"))?;
    Ok((
        parse_cub(cub)?,
        disk.parse()
            .map_err(|_| format!("bad disk index in {tok:?}"))?,
    ))
}

fn parse_prob(tok: &str) -> Result<f64, String> {
    let v: f64 = tok
        .parse()
        .map_err(|_| format!("bad probability {tok:?}"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("probability {tok:?} must be in [0, 1]"));
    }
    Ok(v)
}

fn window(args: &mut Args) -> Result<(SimTime, SimTime), String> {
    let from = parse_time(args.get("from")?)?;
    let until = parse_time(args.get("until")?)?;
    if until <= from {
        return Err("until= must be after from=".to_string());
    }
    Ok((from, until))
}

fn parse_group(tok: &str) -> Result<Vec<NodeSel>, String> {
    tok.split(',').map(parse_node).collect()
}

impl FaultPlan {
    /// Parses one clause of the text format (no comment, no blank) onto
    /// the end of the plan — the per-line step of [`FaultPlan::parse`],
    /// public so a grammar that embeds fault clauses can report its own
    /// line numbers.
    pub fn parse_clause(&mut self, clause: &str) -> Result<(), String> {
        let toks: Vec<&str> = clause.split_ascii_whitespace().collect();
        let (&verb, rest) = toks.split_first().ok_or("empty clause")?;
        // Restripes target the whole system, so the clause has no head
        // token — only key=value arguments.
        let (head, kvs) = match rest.split_first() {
            _ if verb == "restripe" => ("", rest),
            Some((&head, kvs)) => (head, kvs),
            None => return Err("clause needs a target".to_string()),
        };
        let mut args = Args::new(kvs)?;
        match verb {
            "restripe" => {
                let at = parse_time(args.get("at")?)?;
                let mut count = |key: &str| match args.opt(key) {
                    Some(v) => v
                        .parse::<u32>()
                        .map_err(|_| format!("bad {key}= (expected a cub count)")),
                    None => Ok(0),
                };
                let (add_cubs, remove_cubs) = (count("add")?, count("remove")?);
                if add_cubs == 0 && remove_cubs == 0 {
                    return Err("restripe needs add= or remove= of at least 1".to_string());
                }
                if add_cubs > 0 && remove_cubs > 0 {
                    return Err("restripe takes add= or remove=, not both".to_string());
                }
                self.restripes.push(RestripeDecl {
                    at,
                    add_cubs,
                    remove_cubs,
                });
            }
            "drop" | "delay" | "dup" => {
                let (src, dst) = head
                    .split_once('>')
                    .ok_or_else(|| format!("expected src>dst, got {head:?}"))?;
                let (from, until) = window(&mut args)?;
                let mut f = LinkFault {
                    src: parse_node(src)?,
                    dst: parse_node(dst)?,
                    from,
                    until,
                    drop_prob: 0.0,
                    extra_delay: SimDuration::ZERO,
                    extra_jitter: SimDuration::ZERO,
                    dup_prob: 0.0,
                };
                match verb {
                    "drop" => f.drop_prob = parse_prob(args.get("prob")?)?,
                    "dup" => f.dup_prob = parse_prob(args.get("prob")?)?,
                    _ => {
                        f.extra_delay = parse_duration(args.get("extra")?)?;
                        if let Some(j) = args.opt("jitter") {
                            f.extra_jitter = parse_duration(j)?;
                        }
                    }
                }
                self.links.push(f);
            }
            "partition" => {
                let (a, b) = head
                    .split_once('|')
                    .ok_or_else(|| format!("expected groupA|groupB, got {head:?}"))?;
                let from = parse_time(args.get("from")?)?;
                let heal = parse_time(args.get("heal")?)?;
                if heal <= from {
                    return Err("heal= must be after from=".to_string());
                }
                self.partitions.push(Partition {
                    a: parse_group(a)?,
                    b: parse_group(b)?,
                    from,
                    heal,
                });
            }
            "disk-transient" => {
                let (cub, disk) = parse_disk_ref(head)?;
                let prob = parse_prob(args.get("prob")?)?;
                let (from, until) = window(&mut args)?;
                self.disks.push(DiskFault {
                    cub,
                    disk,
                    kind: DiskFaultKind::Transient { prob, from, until },
                });
            }
            "disk-degraded" => {
                let (cub, disk) = parse_disk_ref(head)?;
                let factor: f64 = args
                    .get("factor")?
                    .parse()
                    .map_err(|_| "bad factor=".to_string())?;
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err("factor= must be >= 1".to_string());
                }
                let (from, until) = window(&mut args)?;
                self.disks.push(DiskFault {
                    cub,
                    disk,
                    kind: DiskFaultKind::Degraded {
                        factor,
                        from,
                        until,
                    },
                });
            }
            "disk-kill" => {
                let (cub, disk) = parse_disk_ref(head)?;
                self.disks.push(DiskFault {
                    cub,
                    disk,
                    kind: DiskFaultKind::Death {
                        at: parse_time(args.get("at")?)?,
                    },
                });
            }
            "crash" => {
                self.process.push(ProcessFault::Crash {
                    cub: parse_cub(head)?,
                    at: parse_time(args.get("at")?)?,
                });
            }
            "restart" => {
                self.process.push(ProcessFault::Restart {
                    cub: parse_cub(head)?,
                    at: parse_time(args.get("at")?)?,
                });
            }
            "freeze" => {
                let (from, until) = window(&mut args)?;
                self.process.push(ProcessFault::Freeze {
                    cub: parse_cub(head)?,
                    from,
                    until,
                });
            }
            "power-domain" => {
                let cubs: Result<Vec<u32>, String> = head.split(',').map(parse_cub).collect();
                self.process.push(ProcessFault::PowerDomain {
                    cubs: cubs?,
                    at: parse_time(args.get("at")?)?,
                });
            }
            other => return Err(format!("unknown clause verb {other:?}")),
        }
        args.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "
# the doc example
drop c1>c3 prob=0.3 from=2s until=5s
delay c1>* extra=20ms jitter=10ms from=0s until=10s
dup ctrl>c2 prob=0.05 from=1s until=2s
partition c0,c1|c2,c3 from=4s heal=6s
disk-transient c2:0 prob=0.5 from=3s until=6s
disk-degraded c2:0 factor=3 from=3s until=6s
disk-kill c2:0 at=5s
crash c1 at=9s
freeze c0 from=2s until=4s
power-domain c1,c2 at=9s
";

    #[test]
    fn example_scenario_parses() {
        let plan = FaultPlan::parse(EXAMPLE).expect("parses");
        assert_eq!(plan.links.len(), 3);
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.disks.len(), 3);
        assert_eq!(plan.process.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.links[0].drop_prob, 0.3);
        assert_eq!(plan.links[1].extra_delay, SimDuration::from_millis(20));
        assert_eq!(plan.links[1].src, NodeSel::Cub(1));
        assert_eq!(plan.links[1].dst, NodeSel::Any);
        assert_eq!(plan.links[2].dup_prob, 0.05);
        assert_eq!(
            plan.process,
            vec![
                ProcessFault::Crash {
                    cub: 1,
                    at: SimTime::from_secs(9)
                },
                ProcessFault::Freeze {
                    cub: 0,
                    from: SimTime::from_secs(2),
                    until: SimTime::from_secs(4)
                },
                ProcessFault::PowerDomain {
                    cubs: vec![1, 2],
                    at: SimTime::from_secs(9)
                }
            ]
        );
    }

    #[test]
    fn durations_parse_with_units_and_fractions() {
        assert_eq!(parse_duration("2s").unwrap(), SimDuration::from_secs(2));
        assert_eq!(
            parse_duration("1.5s").unwrap(),
            SimDuration::from_millis(1500)
        );
        assert_eq!(
            parse_duration("250ms").unwrap(),
            SimDuration::from_millis(250)
        );
        assert_eq!(
            parse_duration("40us").unwrap(),
            SimDuration::from_nanos(40_000)
        );
        assert_eq!(parse_duration("7ns").unwrap(), SimDuration::from_nanos(7));
        assert_eq!(parse_duration("2min").unwrap(), SimDuration::from_secs(120));
        assert_eq!(
            parse_duration("1.5h").unwrap(),
            SimDuration::from_secs(5_400)
        );
        assert_eq!(
            parse_duration("24h").unwrap(),
            SimDuration::from_secs(86_400)
        );
        assert!(parse_duration("5").is_err(), "unit required");
        assert!(parse_duration("-1s").is_err());
    }

    #[test]
    fn malformed_clauses_name_the_line() {
        for (bad, needle) in [
            ("warp c1 at=2s", "unknown clause verb"),
            ("drop c1c3 prob=0.3 from=1s until=2s", "src>dst"),
            ("drop c1>c3 prob=1.5 from=1s until=2s", "[0, 1]"),
            ("drop c1>c3 prob=0.5 from=2s until=2s", "after from="),
            ("crash c1", "at="),
            ("crash ctrl at=2s", "expected a cub"),
            ("disk-kill c2 at=2s", "cN:disk"),
            ("partition c0|c1 from=3s heal=2s", "after from="),
            (
                "drop backup>c1 prob=0.3 from=1s until=2s",
                "unknown node token",
            ),
            // What no reader understands is an error, not a default.
            (
                "delay c1>* extra=20ms jiter=10ms from=0s until=10s",
                "unknown argument jiter=",
            ),
            ("crash c1 at=9s at=12s", "at= given twice"),
            (
                "drop c1>c3 prob=0.3 prob=0.9 from=2s until=5s bogus=1",
                "prob= given twice",
            ),
            (
                "drop c1>c3 prob=0.3 from=2s until=5s bogus=1",
                "unknown argument bogus=",
            ),
            ("restripe at=20s add=1 cubs=2", "unknown argument cubs="),
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains("line 1"), "{err}");
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn restart_and_restripe_clauses_parse() {
        let plan = FaultPlan::parse("crash c1 at=9s\nrestart c1 at=15s\nrestripe at=20s add=1\n")
            .expect("parses");
        assert_eq!(
            plan.process,
            vec![
                ProcessFault::Crash {
                    cub: 1,
                    at: SimTime::from_secs(9)
                },
                ProcessFault::Restart {
                    cub: 1,
                    at: SimTime::from_secs(15)
                }
            ]
        );
        assert_eq!(
            plan.restripes,
            vec![RestripeDecl {
                at: SimTime::from_secs(20),
                add_cubs: 1,
                remove_cubs: 0
            }]
        );
        assert!(!plan.is_empty());
        // A restripe-only plan is not empty either; a shrink step names
        // the members it removes.
        let shrink = FaultPlan::parse("restripe at=25s remove=1\n").expect("parses");
        assert!(!shrink.is_empty());
        assert_eq!(
            shrink.restripes,
            vec![RestripeDecl {
                at: SimTime::from_secs(25),
                add_cubs: 0,
                remove_cubs: 1
            }]
        );

        for (bad, needle) in [
            ("restart c1", "at="),
            ("restart ctrl at=2s", "expected a cub"),
            ("restripe at=20s add=0", "at least 1"),
            ("restripe at=20s", "add="),
            ("restripe add=1", "at="),
            ("restripe at=20s remove=0", "at least 1"),
            ("restripe at=20s add=1 remove=1", "not both"),
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn topology_matches_node_numbering() {
        let topo = Topology { num_cubs: 4 };
        assert!(topo.matches(NodeSel::Ctrl, 0));
        assert!(topo.matches(NodeSel::Cub(2), 3));
        assert!(topo.matches(NodeSel::Client(0), 5));
        assert!(topo.matches(NodeSel::Any, 7));
        assert!(!topo.matches(NodeSel::Cub(2), 2));
        assert_eq!(topo.resolve(NodeSel::Any), None);
        assert_eq!(topo.resolve(NodeSel::Cub(0)), Some(1));
    }

    #[test]
    fn windows_assign_stable_clause_ids() {
        let plan = FaultPlan::parse(EXAMPLE).unwrap();
        let windows = plan.windows();
        // 3 links + 1 partition + 2 windowed disk faults (death excluded).
        assert_eq!(windows.len(), 6);
        let ids: Vec<u32> = windows.iter().map(|w| w.clause).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(windows[3].from, SimTime::from_secs(4));
        assert_eq!(windows[3].until, SimTime::from_secs(6));
    }
}
