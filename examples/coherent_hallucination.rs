//! The coherent hallucination made visible (paper Figure 7).
//!
//! "Figure 7 shows an example of views of the schedule for the first three
//! cubs … None of these inconsistencies causes a problem, because by the
//! time a cub takes action based on the contents of a slot, the slot is
//! up-to-date."
//!
//! This example snapshots several cubs' views of the same slot range at
//! one instant: each cub knows only the part of the schedule near its own
//! disks, the parts they share may disagree in position, and yet the
//! viewers all receive every block.
//!
//! Run with: `cargo run --release --example coherent_hallucination`

use tiger::core::{TigerConfig, TigerSystem};
use tiger::sched::SlotId;
use tiger::sim::{Bandwidth, SimDuration, SimTime};

fn main() {
    let mut cfg = TigerConfig::small_test();
    cfg.disk = cfg.disk.without_blips();
    let mut sys = TigerSystem::new(cfg);
    sys.enable_omniscient();
    let file = sys.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(60));

    // Ten viewers fill ten slots.
    let mut viewers = Vec::new();
    for i in 0..10u64 {
        let client = sys.add_client();
        viewers.push(sys.request_start(SimTime::from_millis(100 + i * 450), client, file));
    }
    sys.run_until(SimTime::from_secs(20));

    // Snapshot: what does each cub believe about slots 0..capacity?
    let capacity = sys.world().params.capacity();
    println!(
        "t = {}  —  {} slots, one column per cub's view",
        sys.now(),
        capacity
    );
    println!("('7' = cub believes slot holds viewer 7; '.' = believes free)\n");
    print!("slot:  ");
    for slot in 0..capacity {
        print!("{:>3}", slot);
    }
    println!();
    for cub in sys.cubs() {
        print!("cub {}: ", cub.id.raw());
        for slot in 0..capacity {
            match cub.believed_primary(SlotId(slot)) {
                Some(instance) => print!("{:>3}", instance.viewer.raw()),
                None => print!("  ."),
            }
        }
        println!();
    }
    println!();

    // Count disagreements: slots where two cubs hold different beliefs.
    let mut slots_somewhere_known = 0;
    let mut slots_disputed = 0;
    for slot in 0..capacity {
        let beliefs: Vec<Option<u64>> = sys
            .cubs()
            .iter()
            .map(|c| {
                c.believed_primary(SlotId(slot))
                    .map(|instance| instance.viewer.raw())
            })
            .collect();
        let known: Vec<u64> = beliefs.iter().flatten().copied().collect();
        if !known.is_empty() {
            slots_somewhere_known += 1;
            if beliefs.iter().any(|b| b.is_none()) || known.windows(2).any(|w| w[0] != w[1]) {
                slots_disputed += 1;
            }
        }
    }
    println!(
        "{slots_somewhere_known} slots are known to some cub; {slots_disputed} of them look \
         different from different cubs — the views are inconsistent,"
    );
    println!("yet the hallucination is coherent: let the run finish ...\n");

    sys.run_until(SimTime::from_secs(90));
    let report = sys.all_clients_report();
    let violations = sys.take_violations();
    println!(
        "all {} viewers completed, {} blocks missing, {} checker violations",
        report.completed_viewers,
        report.blocks_missing,
        violations.len()
    );
    assert_eq!(report.completed_viewers, 10);
    assert!(violations.is_empty());
}
