//! DES-conformance gate for the real-transport driver.
//!
//! Runs the crash-rejoin scenario twice — once in the discrete-event
//! simulator (the oracle) and once over OS threads and loopback UDP
//! sockets — with the same ring configuration and the same script
//! (power-cut one cub, let the ring declare and take over, restart it,
//! let it rejoin). Both runs are reduced to their seq-normalized
//! protocol-decision lanes (see `tiger_rt::conformance`); any
//! divergence prints both sides and exits non-zero.
//!
//! CI runs this as the conformance gate: the sans-io machines are
//! shared code, so a divergence means one of the *drivers* interprets a
//! machine verdict differently — exactly the bug class this split is
//! meant to catch.
//!
//! The decision lanes now include the Recovery v2 acts: the rejoiner's
//! ring predecessor records `handback-replay` (compared across both
//! drivers in the crash-rejoin run), and a shrink cut-over records
//! `shrink-fence` on the drained cub's lane — exercised by a DES-only
//! shrink scenario below, pinned with the same extraction code, since
//! the control-plane driver carries no restripe executor.

use std::process::ExitCode;
use std::time::Duration;

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::CubId;
use tiger_rt::{render_decisions, run_crash_rejoin, CrashRejoinScript};
use tiger_sim::SimTime;
use tiger_trace::TraceRecord;

/// The scripted scenario, shared by both drivers (wall seconds for the
/// socket driver, virtual seconds for the DES).
const VICTIM: u32 = 1;
const CRASH_AT_MS: u64 = 2_000;
const RESTART_AT_MS: u64 = 8_000;
const END_AT_MS: u64 = 10_500;

/// The oracle: the same scenario under the DES driver, control-plane
/// only (no viewers — the socket driver carries no data plane, and the
/// protocol decisions must not depend on it).
fn des_oracle(cfg: &TigerConfig) -> Vec<TraceRecord> {
    let mut sys = TigerSystem::new(cfg.clone());
    sys.enable_trace(16_384);
    sys.fail_cub_at(SimTime::from_millis(CRASH_AT_MS), CubId(VICTIM));
    sys.restart_cub_at(SimTime::from_millis(RESTART_AT_MS), CubId(VICTIM));
    sys.run_until(SimTime::from_millis(END_AT_MS));
    sys.tracer().records()
}

/// The shrink lane: a live `remove=1` restripe under the DES, reduced
/// with the same extraction as the driver comparison. Returns the
/// rendered lanes so `main` can assert the drained cub was fenced.
fn des_shrink_lanes(cfg: &TigerConfig) -> String {
    let mut sys = TigerSystem::new(cfg.clone());
    sys.enable_trace(16_384);
    sys.request_restripe_remove(SimTime::from_secs(1), 1);
    sys.run_until(SimTime::from_secs(30));
    render_decisions(&sys.tracer().records())
}

fn main() -> ExitCode {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let num_cubs = cfg.stripe.num_cubs;

    eprintln!("rt_conformance: DES oracle ({num_cubs} cubs, crash-rejoin)...");
    let des = render_decisions(&des_oracle(&cfg));

    eprintln!(
        "rt_conformance: socket driver ({} threads, loopback UDP, ~{:.1}s wall)...",
        num_cubs,
        END_AT_MS as f64 / 1e3
    );
    let script = CrashRejoinScript {
        victim: CubId(VICTIM),
        crash_at: Duration::from_millis(CRASH_AT_MS),
        restart_at: Duration::from_millis(RESTART_AT_MS),
        end_at: Duration::from_millis(END_AT_MS),
    };
    let run = match run_crash_rejoin(num_cubs, cfg.ring(), script) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rt_conformance: socket driver failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.refused > 0 {
        // Both ends run one codec: a refused line is a codec bug.
        eprintln!("conformance FAILED: wire::decode refused {}", run.refused);
        return ExitCode::FAILURE;
    }
    let rt = render_decisions(&run.records);

    if des == rt {
        eprintln!("rt_conformance: DES shrink lane (remove=1 cut-over)...");
        let shrink = des_shrink_lanes(&cfg);
        let drained = num_cubs - 1;
        if !shrink.contains(&format!("c{drained}: shrink-fence")) {
            eprintln!("conformance FAILED: shrink lane missing c{drained} fence");
            eprint!("{shrink}");
            return ExitCode::FAILURE;
        }
        println!(
            "conformance OK: {} decisions, both drivers agree; shrink lane fences c{drained}",
            des.lines().count()
        );
        print!("{des}");
        ExitCode::SUCCESS
    } else {
        eprintln!("conformance FAILED: protocol-decision lanes diverge");
        eprintln!("--- DES oracle ---");
        eprint!("{des}");
        eprintln!("--- socket driver ---");
        eprint!("{rt}");
        ExitCode::FAILURE
    }
}
