//! The sans-io protocol core of the Tiger reproduction.
//!
//! The state machines in this crate are *pure*: inputs are typed
//! messages and timer expiries, outputs are typed verdicts the caller —
//! the *driver* — turns into sends, schedule actions, and timer re-arms.
//! Nothing here touches a clock, a socket or an event queue; time enters
//! only as `SimTime` arguments and leaves only as deadline values inside
//! outputs. Where a sequence of decisions is the protocol, it is written
//! here once, over hooks the driver implements: [`RingDriver`] runs §2.3's
//! failure handling and hands its trace events (`tiger_trace::TraceEvent`)
//! to the driver to record. That boundary is what lets the same machines
//! run under two very different drivers:
//!
//! * the deterministic discrete-event simulation in `tiger-core`
//!   (`TigerSystem` and `Cub` feed the machines and interpret their
//!   outputs against the simulated network and event queue), and
//! * the real-transport driver in `tiger-rt` (OS threads, loopback UDP
//!   sockets, wall-clock timers), whose protocol-decision sequence must
//!   match the DES oracle seq-for-seq.
//!
//! Modules:
//!
//! * [`msg`] — the control-plane message vocabulary ([`Message`]).
//! * [`wire`] — the lossless text wire format for [`Message`] that real
//!   transports use: one table row a message, its bytes pinned by tests.
//! * [`ring`] — ring membership ([`Membership`]), the failure
//!   detector / rejoin machine ([`RingMachine`]): deadman pings and
//!   checks, failure declaration, zombie fencing, rejoin baselines, and
//!   the bounded mirror hand-back window; and the sequence around it
//!   ([`RingDriver`]): declare, announce, take over, fence, answer a
//!   rejoin and hand back.
//! * [`forward`] — the viewer-state decision of §4.1.1
//!   ([`ForwardMachine`]): a received primary record is served, covered
//!   for a dead owner, shadowed, refused as a duplicate, or ends its
//!   stream ([`Verdict`]); the shadow, cover, end-of-file and §4.1.2
//!   deschedule-hold memories behind it; the declare's shadow re-drive and re-sends to a
//!   rejoiner; and the §2.3 arithmetic over the retired log (the
//!   declare's gap bridge and re-forward, the rejoin's replay).
//! * [`insert`] — the ownership-window insertion machine
//!   ([`InsertMachine`]): queued start requests, redundant-start
//!   promotion, and the attempt/commit/miss cycle.
//! * [`reserve`] — the multiple-bitrate two-phase reservation machine
//!   ([`ReserveMachine`], §4.2): the local fit check, tentative insert,
//!   the successor's reservation, commit flood or abort and release, and
//!   the reservation-expiry backstop.
//!
//! See `docs/PROTOCOL.md` ("The sans-io core and its drivers") for the
//! driver contract.

pub mod forward;
pub mod insert;
pub mod msg;
pub mod reserve;
pub mod ring;
pub mod wire;

pub use forward::{ForwardMachine, Progress, Verdict};
pub use insert::{InsertMachine, PendingStart};
pub use msg::{Message, FRAME_BYTES};
pub use reserve::ReserveMachine;
pub use ring::{Membership, RejoinOutcome, RingConfig, RingDriver, RingMachine};
pub use wire::{decode, encode};
