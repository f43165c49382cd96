//! `tiger-trace`: ring-buffer tracing of the coherent-hallucination
//! protocol.
//!
//! The paper's hardest claims (§4.1–§4.2) are about message-ordering
//! properties: idempotent double-forwarding of viewer states, deschedule
//! holds that outlive the viewer-state lead window, ownership-gated
//! insertion, deadman-driven mirror takeover. When the property harness
//! finds a violation, a seed and a diverged `Metrics` digest are not
//! enough to debug it — what happened is a *sequence of protocol events*,
//! and this crate records that sequence.
//!
//! # Design
//!
//! * [`TraceEvent`] is a closed set of structured protocol events —
//!   schedule-transfer send/receive outcomes, deschedule apply/expiry,
//!   insert hit/miss, deadman ping/declare, mirror takeover, disk and
//!   send lifecycle — each stamped with `(SimTime, cub, seq)` as a
//!   [`TraceRecord`].
//! * [`Tracer`] owns a fixed-capacity ring buffer: tracing a multi-hour
//!   simulated run costs bounded memory, and the ring's tail is exactly
//!   the window around a failure that debugging needs.
//! * Tracing is env-gated ([`Tracer::from_env`]: `TIGER_TRACE`,
//!   `TIGER_TRACE_CAP`, `TIGER_TRACE_FILE`, and auto-on under
//!   `TIGER_PROP_REPLAY`). With tracing off, recording never happens, so
//!   metrics and bench output are bit-identical to an untraced build —
//!   tracing observes the simulation and never feeds back into it.
//! * Dumps are plain text, one event per line ([`TraceRecord::to_line`]),
//!   and parse back losslessly ([`parse_dump`]), so the `trace_timeline`
//!   tool can render per-cub/per-slot timelines and diff two traces from
//!   different scheduler configurations on the same seed.
//!
//! # Property-failure dumps
//!
//! [`install_property_dump`] wires this crate into the
//! `tiger_sim::check` harness: when a property case fails (or a
//! `TIGER_PROP_REPLAY` run panics), the most recently dropped traced
//! system's ring is written to a file and the path is appended to the
//! failure report. Dropping a [`Tracer`] publishes its ring to a
//! thread-local slot precisely so the trace survives the unwind that
//! destroys the system under test.

pub mod event;
pub mod timeline;
pub mod tracer;

pub use event::{parse_dump, TraceEvent, TraceRecord, CTRL};
pub use timeline::{render_diff, render_timeline};
pub use tracer::{take_last_trace, Tracer};

/// Installs the property-failure dump hook into the `tiger_sim::check`
/// harness: a failing case whose run left a trace (see
/// [`take_last_trace`]) gets that trace written to
/// `$TIGER_TRACE_DIR` (default: the system temp dir) as
/// `tiger-trace-<case seed>.log`, and the failure report gains a
/// `trace dumped to: <path>` line.
///
/// Idempotent; call it at the top of any property test that drives a
/// traced system. Untraced runs are unaffected (the hook finds no trace
/// and adds nothing), so failure reports stay byte-identical at any
/// thread count whether or not the hook is installed.
pub fn install_property_dump() {
    tiger_sim::check::set_failure_hook(|case_seed| {
        let dump = take_last_trace()?;
        let dir = std::env::var_os("TIGER_TRACE_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!("tiger-trace-{case_seed:#018x}.log"));
        std::fs::write(&path, dump).ok()?;
        Some(format!("trace dumped to: {}", path.display()))
    });
}
