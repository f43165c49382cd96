//! §2.2's striping motivation: demand imbalance cannot hotspot a disk.
//!
//! "Tiger uses this striping layout in order to handle imbalances in
//! demand for particular files. Because each file has blocks on every disk
//! and every server, over the course of playing a file the load is
//! distributed among all of the system components. Thus, the system will
//! not overload even if all of the viewers request the same file, assuming
//! that they are equitemporally spaced."
//!
//! `hotspot` plays the *same* file to hundreds of viewers and compares
//! per-disk load spread (and losses) against the same population spread
//! over a 64-file catalog. The slot mechanism provides the equitemporal
//! spacing automatically. `hotspot_plan` takes the same measurement with
//! demand drawn from a declarative `tiger-workgen` plan — the checked-in
//! Zipf example unless `fleet --plan FILE` names another — so any demand
//! shape the plan grammar can express goes through it.

use tiger_core::{TigerConfig, TigerSystem};
use tiger_layout::CubId;
use tiger_sim::{RngTree, SimDuration, SimTime};
use tiger_workgen::WorkloadPlan;
use tiger_workload::{drive_plan, populate_catalog, CatalogSpec};

use crate::fleet::{sweep, ExpReport, Job, Scale};
use crate::table::Table;

/// The plan `hotspot_plan` runs by default, and the path its report names.
const EXAMPLE_PLAN: &str = "examples/workloads/zipf-hotspot.plan";
const EXAMPLE_PLAN_TEXT: &str = include_str!("../../../examples/workloads/zipf-hotspot.plan");

/// One measured population: label, streams playing, the per-disk load's
/// min, mean and max, blocks the server missed, blocks clients missed.
type LoadRow = (String, u32, [f64; 3], u64, u64);

/// Runs to `settle`, opens a measurement window there, and measures the
/// per-disk load spread at the window's end. Returns the row and the
/// run's violations.
fn measure(
    sys: &mut TigerSystem,
    label: &str,
    settle: SimTime,
    window: SimDuration,
) -> (LoadRow, Vec<String>) {
    sys.run_until(settle);
    sys.sample_window(settle, CubId(0), None);
    let end = settle + window;
    sys.run_until(end);

    let loads: Vec<f64> = sys
        .cubs()
        .iter()
        .flat_map(|cub| cub.disks())
        .map(|d| d.load_window(end))
        .collect();
    let spread = [
        loads.iter().copied().fold(f64::INFINITY, f64::min) * 100.0,
        loads.iter().sum::<f64>() / loads.len() as f64 * 100.0,
        loads.iter().copied().fold(0.0, f64::max) * 100.0,
    ];
    let row = (
        label.to_string(),
        sys.controller().active_streams(),
        spread,
        sys.metrics().loss.server_missed,
        sys.all_clients_report().blocks_missing,
    );
    (row, sys.take_violations())
}

fn system(scale: Scale) -> TigerSystem {
    let mut sys = TigerSystem::new(match scale {
        Scale::Full => TigerConfig::sosp97(),
        Scale::Quick => {
            let mut t = TigerConfig::small_test();
            t.disk = t.disk.without_blips();
            t
        }
    });
    sys.enable_omniscient();
    sys
}

/// The per-disk load table both hotspot jobs print.
fn load_table(rows: &[LoadRow]) -> String {
    Table::new(rows)
        .left("workload", |r| r.0.clone())
        .right("streams", |r| r.1.to_string())
        .right("disk_load min/mean/max", |r| {
            let [min, mean, max] = r.2;
            format!("{min:>5.1}% /{mean:>5.1}% /{max:>5.1}%")
        })
        .right("missed", |r| r.3.to_string())
        .right("client_missing", |r| r.4.to_string())
        .render()
}

fn population_row(scale: Scale, single_file: bool) -> (LoadRow, Vec<String>) {
    let (titles, film, viewers, settle, window) = match scale {
        Scale::Full => (64, 400, 300, 30, 60),
        Scale::Quick => (8, 120, 16, 10, 30),
    };
    let label = if single_file {
        "single hot file".to_string()
    } else {
        format!("{titles}-file spread")
    };
    let mut sys = system(scale);
    let files = populate_catalog(
        &mut sys,
        &CatalogSpec::sized_for(SimDuration::from_secs(film), titles),
    );
    let mut chooser = RngTree::new(5).fork("hotspot", 0);
    let mut t = SimTime::from_millis(100);
    for _ in 0..viewers {
        let client = sys.add_client();
        let file = if single_file {
            files[0]
        } else {
            files[chooser.gen_range(0..files.len())]
        };
        sys.request_start(t, client, file);
        // Arrivals ~1.2 s apart; Tiger's slots enforce the equitemporal
        // spacing regardless.
        t += SimDuration::from_millis(1_200);
    }
    measure(
        &mut sys,
        &label,
        t + SimDuration::from_secs(settle),
        SimDuration::from_secs(window),
    )
}

/// One hot file against a spread catalogue: two independent runs.
pub fn hotspot_report(scale: Scale, threads: usize) -> ExpReport {
    let rows = sweep(&[false, true], threads, |&single| {
        population_row(scale, single)
    });
    let out = load_table(&rows.results)
        + "\nshape: the single-hot-file column shows the same per-disk load band \
         and zero overload losses — every disk holds a slice of the hot file, \
         and the slot schedule spaces its viewers equitemporally.\n";
    rows.report(out)
}

fn plan_report(path: &str, plan: &WorkloadPlan, scale: Scale) -> ExpReport {
    let row = sweep(std::slice::from_ref(plan), 1, |plan| {
        let mut sys = system(scale);
        let files = populate_catalog(
            &mut sys,
            &CatalogSpec::sized_for(plan.horizon + SimDuration::from_secs(60), plan.titles()),
        );
        drive_plan(&mut sys, plan, &files);
        measure(
            &mut sys,
            "plan-driven",
            SimTime::ZERO + plan.horizon + SimDuration::from_secs(10),
            SimDuration::from_secs(30),
        )
    });
    row.report(load_table(&row.results) + &format!("\nplan: {path}\n"))
}

/// The `hotspot_plan` job over `plan`, which was read from `path`.
pub fn plan_job(path: String, plan: WorkloadPlan) -> Job {
    Job {
        name: "hotspot_plan",
        title: "Hotspot immunity (§2.2 striping motivation, plan-driven demand)",
        paper: "whatever shape the workload plan declares, striping keeps the \
                per-disk load band tight",
        golden: Some(Scale::Quick),
        run: Box::new(move |scale, _| plan_report(&path, &plan, scale)),
    }
}

/// The `hotspot_plan` job over the checked-in example plan.
pub fn example_plan_job() -> Job {
    let plan = WorkloadPlan::parse(EXAMPLE_PLAN_TEXT).expect("the checked-in example plan parses");
    plan_job(EXAMPLE_PLAN.to_string(), plan)
}
