//! Property-based tests on cross-crate invariants.
//!
//! These hold for *arbitrary* system geometries, not just the SOSP testbed:
//! striping is a bijection per lap, mirror pieces always avoid their
//! primary, the exact slot partition tiles the ring, ownership is unique,
//! and the restriper conserves blocks. And for arbitrary input lines: every
//! line decoder survives seeded mutants of what it is meant to read.
//!
//! Ported from `proptest` to the in-tree `tiger_sim::check` harness: each
//! property runs over many deterministically seeded cases, and failures
//! report a replayable case seed.

use tiger::layout::{BlockNum, DiskId, MirrorPlacement, StripeConfig};
use tiger::sched::{ScheduleParams, SlotId};
use tiger::sim::check::check;
use tiger::sim::{Bandwidth, ByteSize, SimDuration, SimRng, SimTime};

/// An arbitrary geometry where the decluster factor fits the ring
/// (rejection-samples the rare `d >= cubs * dpc` draw).
fn arb_stripe(rng: &mut SimRng) -> StripeConfig {
    loop {
        let cubs = rng.gen_range(2u32..20);
        let dpc = rng.gen_range(1u32..5);
        let d = rng.gen_range(1u32..5);
        if d < cubs * dpc {
            return StripeConfig::new(cubs, dpc, d);
        }
    }
}

fn params_for(stripe: StripeConfig, disk_ms: u64) -> ScheduleParams {
    ScheduleParams::derive(
        stripe,
        SimDuration::from_secs(1),
        ByteSize::from_bytes(250_000),
        SimDuration::from_millis(disk_ms),
        Bandwidth::from_mbit_per_sec(622), // fast NIC: disk-bound
    )
}

#[test]
fn striping_visits_every_disk_once_per_lap() {
    check("striping_visits_every_disk_once_per_lap", |rng| {
        let stripe = arb_stripe(rng);
        let start = rng.gen_range(0u32..1000);
        let n = stripe.num_disks();
        let start = DiskId(start % n);
        let mut seen = vec![false; n as usize];
        for b in 0..n {
            let loc = stripe.block_location(start, BlockNum(b));
            assert!(!seen[loc.disk.index()], "disk visited twice in one lap");
            seen[loc.disk.index()] = true;
            assert_eq!(stripe.cub_of(loc.disk), loc.cub);
        }
        assert!(seen.iter().all(|&s| s));
    });
}

#[test]
fn mirror_pieces_never_touch_their_primary() {
    check("mirror_pieces_never_touch_their_primary", |rng| {
        let stripe = arb_stripe(rng);
        let disk = rng.gen_range(0u32..1000);
        let size = rng.gen_range(1u64..2_000_000);
        let placement = MirrorPlacement::new(stripe);
        let primary = DiskId(disk % stripe.num_disks());
        let pieces = placement.pieces_for(primary, ByteSize::from_bytes(size));
        assert_eq!(pieces.len() as u32, stripe.decluster);
        let total: u64 = pieces.iter().map(|p| p.size.as_bytes()).sum();
        assert_eq!(total, size, "pieces must cover the block exactly");
        for p in &pieces {
            assert_ne!(p.disk, primary, "a piece on its primary defeats mirroring");
        }
        // Pieces land on consecutive distinct disks.
        let mut disks: Vec<u32> = pieces.iter().map(|p| p.disk.raw()).collect();
        disks.dedup();
        assert_eq!(disks.len() as u32, stripe.decluster);
    });
}

#[test]
fn exposure_set_matches_survival_oracle() {
    check("exposure_set_matches_survival_oracle", |rng| {
        let stripe = arb_stripe(rng);
        let failed = rng.gen_range(0u32..1000);
        let other = rng.gen_range(0u32..1000);
        let placement = MirrorPlacement::new(stripe);
        let n = stripe.num_disks();
        let a = DiskId(failed % n);
        let b = DiskId(other % n);
        if a == b {
            return; // assume a != b (proptest's prop_assume)
        }
        let exposed = placement.second_failure_exposure(a);
        assert_eq!(
            placement.survives(&[a, b]),
            !exposed.contains(&b),
            "exposure set and survival oracle disagree for {:?},{:?}",
            a,
            b
        );
    });
}

#[test]
fn slots_tile_the_ring_for_any_geometry() {
    check("slots_tile_the_ring_for_any_geometry", |rng| {
        let stripe = arb_stripe(rng);
        let disk_ms = rng.gen_range(40u64..400);
        let probe = rng.gen_range(0u64..1_000_000);
        let params = params_for(stripe, disk_ms);
        let len = params.schedule_len().as_nanos();
        let pos = SimDuration::from_nanos(probe.wrapping_mul(0x9e37_79b9) % len);
        let slot = params.slot_at(pos);
        assert!(slot.raw() < params.capacity());
        // slot_start(slot) <= pos < slot_start(slot+1).
        assert!(params.slot_start(slot) <= pos);
        if slot.raw() + 1 < params.capacity() {
            assert!(pos < params.slot_start(SlotId(slot.raw() + 1)));
        }
    });
}

#[test]
fn at_most_one_owner_per_slot_any_geometry() {
    check("at_most_one_owner_per_slot_any_geometry", |rng| {
        let stripe = arb_stripe(rng);
        let disk_ms = rng.gen_range(40u64..400);
        let t_ms = rng.gen_range(0u64..500_000);
        let slot_seed = rng.gen_range(0u32..1000);
        let params = params_for(stripe, disk_ms);
        let slot = SlotId(slot_seed % params.capacity());
        let t = SimTime::from_millis(t_ms);
        // The closed-form owner matches a brute-force scan of all disks.
        let owner = params.owner_of_slot(slot, t);
        let brute: Vec<DiskId> = (0..stripe.num_disks())
            .map(DiskId)
            .filter(|&d| params.owned_slot_range(d, t).contains(&slot))
            .collect();
        assert!(brute.len() <= 1, "two disks own {:?} at {:?}", slot, t);
        assert_eq!(owner, brute.first().copied());
    });
}

#[test]
fn send_times_advance_one_bpt_per_disk() {
    check("send_times_advance_one_bpt_per_disk", |rng| {
        let stripe = arb_stripe(rng);
        let disk_ms = rng.gen_range(40u64..400);
        let slot_seed = rng.gen_range(0u32..1000);
        let d = rng.gen_range(0u32..1000);
        let params = params_for(stripe, disk_ms);
        let slot = SlotId(slot_seed % params.capacity());
        let n = stripe.num_disks();
        let disk = DiskId(d % n);
        let next = stripe.disk_after(disk, 1);
        let t0 = params.slot_send_time(disk, slot, SimTime::from_secs(100));
        let t1 = params.slot_send_time(next, slot, t0);
        assert_eq!(t1 - t0, params.block_play_time());
    });
}

#[test]
fn restripe_conserves_blocks() {
    check("restripe_conserves_blocks", |rng| {
        let cubs_before = rng.gen_range(2u32..10);
        let cubs_after = rng.gen_range(2u32..10);
        let files = rng.gen_range(1u32..6);
        use tiger::layout::{FileCatalog, RestripePlan};
        let old = StripeConfig::new(cubs_before, 2, 1);
        let new = StripeConfig::new(cubs_after, 2, 1);
        let mut catalog = FileCatalog::new(
            old,
            SimDuration::from_secs(1),
            Bandwidth::from_mbit_per_sec(2),
        );
        for _ in 0..files {
            catalog.add_file(Bandwidth::from_mbit_per_sec(2), SimDuration::from_secs(60));
        }
        let plan = RestripePlan::plan(&catalog, old, new);
        let stats = plan.stats();
        assert_eq!(
            stats.moved_blocks + stats.stationary_blocks,
            plan.total_blocks()
        );
        // Every move's endpoints match the two configurations' layouts.
        for m in plan.moves() {
            let meta = catalog.get(m.file).expect("file exists");
            assert_eq!(old.block_location(meta.start_disk, m.block).disk, m.from);
            assert_eq!(
                new.block_location(new.starting_disk(m.file), m.block).disk,
                m.to
            );
            assert_ne!(m.from, m.to, "no-op moves must be filtered");
        }
    });
}

/// Bytes an inserted or flipped-to byte is drawn from half the time: what
/// the line decoders treat specially (separators, signs, digits, comment
/// marks, kind and unit letters).
const SPECIAL: &[u8] = b" ,:=-+0123456789#\tPMCctsx";

/// Swaps two of `items`, duplicates one, or drops one (`op` 3, 4, other).
fn edit<T: Clone>(rng: &mut SimRng, op: u32, items: &mut Vec<T>) {
    let (i, j) = (rng.gen_range(0..items.len()), rng.gen_range(0..items.len()));
    match op {
        3 => items.swap(i, j),
        4 => items.insert(i, items[j].clone()),
        _ => {
            items.remove(i);
        }
    }
}

/// One seeded edit of `text`: an ASCII byte flipped, inserted or deleted,
/// or a token swapped, duplicated or dropped — a space-separated token of
/// one line, or for a plan, by turns, a whole line.
fn mutate(rng: &mut SimRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.gen_range(0u32..6) {
        0 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0u32..7);
        }
        1 => {
            let byte = if rng.gen_bool(0.5) {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                rng.gen_range(0x20u8..0x7f)
            };
            bytes.insert(rng.gen_range(0..=bytes.len()), byte);
        }
        2 if !bytes.is_empty() => {
            bytes.remove(rng.gen_range(0..bytes.len()));
        }
        op => {
            let mut lines: Vec<String> = text.split('\n').map(String::from).collect();
            if lines.len() > 1 && rng.gen_bool(0.5) {
                edit(rng, op, &mut lines);
            } else {
                let l = rng.gen_range(0..lines.len());
                let mut toks: Vec<&str> = lines[l].split(' ').collect();
                edit(rng, op, &mut toks);
                lines[l] = toks.join(" ");
            }
            return lines.join("\n");
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `e` leads with `line <n>: `, as every plan-parse error must.
fn names_a_line(e: &str) -> bool {
    e.strip_prefix("line ")
        .and_then(|rest| rest.split_once(": "))
        .is_some_and(|(n, _)| n.parse::<usize>().is_ok())
}

/// Every line decoder against seeded mutants of the lines it is meant to
/// read: no decoder panics on any of them, a wire or trace line is
/// accepted only if it re-encodes to its own bytes, and a plan that does
/// not parse says on which line.
#[test]
fn line_decoders_survive_mutation() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use tiger::faults::FaultPlan;
    use tiger::trace::{event::sample_events, parse_dump, TraceRecord};
    use tiger_proto::wire;
    use tiger_workgen::WorkloadPlan;

    let messages = wire::exemplars();
    let records: Vec<TraceRecord> = sample_events()
        .into_iter()
        .enumerate()
        .map(|(i, (cub, ev))| TraceRecord {
            seq: i as u64,
            at: SimTime::from_nanos(1_000_000 * i as u64),
            cub,
            ev,
        })
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/workloads");
    let mut plans: Vec<String> = std::fs::read_dir(dir)
        .expect("examples/workloads is checked in")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "plan"))
        .map(|path| std::fs::read_to_string(path).expect("a plan file reads"))
        .collect();
    plans.sort();
    // The fault clauses the plans embed, as a fault plan of their own.
    let faults: Vec<String> = plans
        .iter()
        .map(|plan| {
            let clauses = plan.lines().filter_map(|l| l.strip_prefix("fault "));
            clauses.collect::<Vec<_>>().join("\n")
        })
        .filter(|text| !text.is_empty())
        .collect();
    assert!(!faults.is_empty(), "no plan embeds a fault clause");

    const REACH: [&str; 9] = [
        "a wire mutant accepted as another message",
        "a wire mutant rejected",
        "a trace mutant accepted as another record",
        "a trace mutant rejected",
        "a workload plan mutant accepted as another plan",
        "a workload plan mutant rejected",
        "a workload plan mutant rejected in an embedded fault clause",
        "a fault plan mutant accepted as another plan",
        "a fault plan mutant rejected",
    ];
    let reached: [AtomicBool; 9] = Default::default();
    let reach = |what: usize, when: bool| {
        reached[what].fetch_or(when, Ordering::Relaxed);
    };
    // Each case mutates one input of every decoder, one to three edits.
    let mutant = |rng: &mut SimRng, original: &str| {
        let mut line = original.to_string();
        for _ in 0..rng.gen_range(1u32..=3) {
            line = mutate(rng, &line);
        }
        line
    };
    check("line_decoders_survive_mutation", |rng| {
        let original = wire::encode(&messages[rng.gen_range(0..messages.len())]);
        let line = mutant(rng, &original);
        match wire::decode(&line) {
            Some(msg) => {
                assert_eq!(wire::encode(&msg), line, "wire accepted {line:?}");
                reach(0, line != original);
            }
            None => reach(1, true),
        }

        let original = records[rng.gen_range(0..records.len())].to_line();
        let line = mutant(rng, &original);
        match TraceRecord::parse_line(&line) {
            Some(rec) => {
                assert_eq!(rec.to_line(), line, "trace accepted {line:?}");
                reach(2, line != original);
            }
            None => reach(3, true),
        }
        let _ = parse_dump(&line);

        let original = &plans[rng.gen_range(0..plans.len())];
        let text = mutant(rng, original);
        match WorkloadPlan::parse(&text) {
            Ok(plan) => reach(4, WorkloadPlan::parse(original) != Ok(plan)),
            Err(e) => {
                assert!(names_a_line(&e), "{e:?} names no line of {text:?}");
                reach(5, true);
                reach(6, e.contains(": fault: "));
            }
        }

        let original = &faults[rng.gen_range(0..faults.len())];
        let text = mutant(rng, original);
        match FaultPlan::parse(&text) {
            Ok(plan) => reach(7, FaultPlan::parse(original) != Ok(plan)),
            Err(e) => {
                assert!(names_a_line(&e), "{e:?} names no line of {text:?}");
                reach(8, true);
            }
        }
    });
    if std::env::var_os("TIGER_PROP_REPLAY").is_none() {
        for (what, reached) in REACH.iter().zip(&reached) {
            assert!(reached.load(Ordering::Relaxed), "no case reached {what}");
        }
    }
}
