//! The ring-buffer tracer and its gating.
//!
//! The gate is a runtime one: [`Tracer`] holds `Option<Box<Ring>>`, so
//! with tracing off every hook is a single null-pointer test (see the
//! `trace_overhead` micro-bench). [`Tracer::from_env`] reads the
//! `TIGER_TRACE*` knobs once at system construction.
//!
//! Dropping an enabled tracer renders its ring and publishes the text to
//! a thread-local slot ([`take_last_trace`]) — that is how a trace
//! escapes a panicking property case: the unwind drops the system under
//! test (and its tracer) on the worker thread, and the failure hook
//! reads the slot on that same thread afterwards. If `TIGER_TRACE_FILE`
//! was set, the dump is also written there.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;

use tiger_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};

/// Default ring capacity (events) when `TIGER_TRACE_CAP` is unset.
pub const DEFAULT_CAP: usize = 65_536;

thread_local! {
    /// The rendered dump of the most recently dropped enabled tracer on
    /// this thread. See the module docs for why this is the publication
    /// channel for property-failure dumps.
    static LAST_TRACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Takes (and clears) the dump published by the last enabled [`Tracer`]
/// dropped on this thread, if any.
pub fn take_last_trace() -> Option<String> {
    LAST_TRACE.with(|slot| slot.borrow_mut().take())
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    buf: Vec<TraceRecord>,
    /// Total events ever recorded; also the next record's `seq`.
    next_seq: u64,
    /// Where to write the dump on drop (`TIGER_TRACE_FILE`).
    dump_path: Option<PathBuf>,
}

impl Ring {
    fn push(&mut self, at: SimTime, cub: u32, ev: TraceEvent) {
        let rec = TraceRecord {
            seq: self.next_seq,
            at,
            cub,
            ev,
        };
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            let idx = (self.next_seq % self.cap as u64) as usize;
            self.buf[idx] = rec;
        }
        self.next_seq += 1;
    }

    /// The live records, oldest first.
    fn oldest_first(&self) -> impl Iterator<Item = &TraceRecord> {
        // After wraparound the oldest live record sits where the next
        // write would land.
        let start = if self.buf.len() == self.cap {
            (self.next_seq % self.cap as u64) as usize
        } else {
            0
        };
        let (newer, older) = self.buf.split_at(start);
        older.iter().chain(newer)
    }

    /// Renders the ring oldest-first with a comment header; lossless
    /// under [`crate::event::parse_dump`].
    fn render(&self) -> String {
        let dropped = self.next_seq - self.buf.len() as u64;
        let mut out = String::new();
        out.push_str("# tiger-trace v1\n");
        let _ = writeln!(
            out,
            "# recorded {} dropped {} cap {}",
            self.next_seq, dropped, self.cap
        );
        for rec in self.oldest_first() {
            let _ = writeln!(out, "{}", rec.to_line());
        }
        out
    }
}

/// The protocol event recorder each handler's context (`tiger_core::Ctx`) records on.
///
/// Disabled (`ring: None`) it records nothing and costs one pointer test
/// per hook. Construct with [`Tracer::from_env`] in production paths and
/// [`Tracer::enabled`] in tests (tests must not set process-global
/// environment variables — the suite runs multithreaded).
#[derive(Debug, Default)]
pub struct Tracer {
    ring: Option<Box<Ring>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { ring: None }
    }

    /// A tracer with a ring of `cap` events (min 1).
    pub fn enabled(cap: usize) -> Tracer {
        Tracer {
            ring: Some(Box::new(Ring {
                cap: cap.max(1),
                buf: Vec::new(),
                next_seq: 0,
                dump_path: None,
            })),
        }
    }

    /// Builds a tracer from the environment:
    ///
    /// * `TIGER_TRACE` — any value other than empty or `0` enables;
    /// * `TIGER_TRACE_FILE` — enables, and writes the dump there on drop;
    /// * `TIGER_PROP_REPLAY` — enables (a replayed failure should always
    ///   leave a trace);
    /// * `TIGER_TRACE_CAP` — ring capacity (default [`DEFAULT_CAP`]).
    pub fn from_env() -> Tracer {
        let flag = std::env::var("TIGER_TRACE").ok();
        let flag_on = flag.as_deref().is_some_and(|v| !v.is_empty() && v != "0");
        let file = std::env::var_os("TIGER_TRACE_FILE").map(PathBuf::from);
        let replay = std::env::var_os("TIGER_PROP_REPLAY").is_some();
        if !(flag_on || file.is_some() || replay) {
            return Tracer::disabled();
        }
        let cap = std::env::var("TIGER_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_CAP);
        let mut t = Tracer::enabled(cap);
        if let Some(ring) = &mut t.ring {
            ring.dump_path = file;
        }
        t
    }

    /// Is tracing live? Call sites use this to skip *preparing* an event
    /// when preparation itself has a cost (e.g. walking expired holds);
    /// plain `record` calls don't need the check.
    #[inline]
    pub fn on(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, at: SimTime, cub: u32, ev: TraceEvent) {
        if let Some(ring) = &mut self.ring {
            ring.push(at, cub, ev);
        }
    }

    /// Total events recorded so far (including any the ring has since
    /// overwritten); 0 when disabled.
    pub fn recorded(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.next_seq)
    }

    /// Renders the current ring contents as a dump; `None` when
    /// disabled.
    pub fn dump(&self) -> Option<String> {
        self.ring.as_ref().map(|r| r.render())
    }

    /// The ring's live records, oldest first; empty when disabled.
    /// (Convenience for in-process assertions; file-based flows go
    /// through [`Tracer::dump`] / [`crate::event::parse_dump`].)
    pub fn records(&self) -> Vec<TraceRecord> {
        self.iter().copied().collect()
    }

    /// [`Tracer::records`] without the copy: a whole-run trace can hold
    /// millions of records.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter().flat_map(|r| r.oldest_first())
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        let Some(ring) = &self.ring else { return };
        let dump = ring.render();
        if let Some(path) = &ring.dump_path {
            if let Err(e) = std::fs::write(path, &dump) {
                eprintln!("tiger-trace: failed to write {}: {e}", path.display());
            }
        }
        LAST_TRACE.with(|slot| *slot.borrow_mut() = Some(dump));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_dump;

    fn ping(to: u32) -> TraceEvent {
        TraceEvent::DeadmanPing { to }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(SimTime::from_nanos(1), 0, ping(1));
        assert!(!t.on());
        assert_eq!(t.recorded(), 0);
        assert!(t.dump().is_none());
        assert!(t.records().is_empty());
    }

    #[test]
    fn ring_keeps_the_newest_cap_events() {
        let mut t = Tracer::enabled(4);
        for i in 0..10u32 {
            t.record(SimTime::from_nanos(u64::from(i)), 0, ping(i));
        }
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        // Oldest-first, and only the last four survive.
        let seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(t.recorded(), 10);

        let dump = t.dump().expect("enabled tracer dumps");
        assert!(dump.contains("# recorded 10 dropped 6 cap 4"), "{dump}");
        let parsed = parse_dump(&dump).expect("dump parses");
        assert_eq!(parsed, recs);
    }

    #[test]
    fn drop_publishes_the_dump_to_the_thread_local() {
        let _ = take_last_trace(); // clear any leftover from other tests
        {
            let mut t = Tracer::enabled(8);
            t.record(SimTime::from_nanos(42), 3, ping(0));
        }
        let dump = take_last_trace().expect("drop published a dump");
        assert!(dump.contains("42 c3 deadman-ping to=0"), "{dump}");
        assert!(take_last_trace().is_none(), "take clears the slot");

        // Disabled tracers must not clobber the slot.
        {
            let mut t = Tracer::enabled(8);
            t.record(SimTime::from_nanos(7), 1, ping(2));
        }
        drop(Tracer::disabled());
        assert!(take_last_trace().is_some(), "disabled drop left dump alone");
    }
}
