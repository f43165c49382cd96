//! The thread/socket driver: one OS thread per cub, loopback UDP, wall
//! clocks.
//!
//! Each cub thread owns a [`tiger_proto::RingMachine`] — the exact state
//! machine the DES runs — plus a UDP socket bound to `127.0.0.1:0`.
//! Control messages travel as [`tiger_proto::wire`] text lines, one
//! datagram per message. Time is wall-clock nanoseconds since a shared
//! epoch `Instant`, fed to the machine as [`SimTime`] values; the two
//! periodic timers (heartbeat ping, deadman check) are deadline checks
//! in the receive loop, whose `recv` timeout bounds the polling
//! latency.
//!
//! The harness script (crash, restart, shutdown) reaches each thread
//! through an atomic control word, emulating the DES's `fail_cub_at` /
//! `restart_cub_at` events: a crashed cub keeps draining its socket and
//! discarding everything — exactly what `net.fail_node` does to
//! messages addressed to a dead node — and a restarting cub resets its
//! machine and announces the rejoin, mirroring
//! `TigerSystem::restart_cub`.
//!
//! Every protocol decision is recorded as a [`TraceRecord`] so the
//! conformance gate can compare this driver's run against the DES
//! oracle with the same extraction code (see [`crate::conformance`]).

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiger_layout::CubId;
use tiger_proto::{wire, Message, RingConfig, RingMachine};
use tiger_sim::SimTime;
use tiger_trace::{TraceEvent, TraceRecord, CTRL};

/// Thread control words (the harness's side of the script).
const RUN: u8 = 0;
const CRASHED: u8 = 1;
const RESTARTING: u8 = 2;
const SHUTDOWN: u8 = 3;

/// How long a `recv` blocks before the loop re-checks timers and the
/// control word. Far below every protocol timer, so deadline slippage is
/// noise relative to the deadman margins.
const POLL: Duration = Duration::from_millis(2);

/// The scripted crash-rejoin scenario, in wall time since the epoch.
#[derive(Clone, Copy, Debug)]
pub struct CrashRejoinScript {
    /// The cub that loses power.
    pub victim: CubId,
    /// When the power cut happens.
    pub crash_at: Duration,
    /// When the cub restarts and rejoins.
    pub restart_at: Duration,
    /// When the whole run stops.
    pub end_at: Duration,
}

/// What one socket-driver run produced.
#[derive(Debug, Default)]
pub struct RtRun {
    /// Every recorded protocol decision (harness records on the [`CTRL`]
    /// lane, cub records on their own lanes), ready for
    /// [`crate::conformance`].
    pub records: Vec<TraceRecord>,
    /// Datagrams [`wire::decode`] refused, over all cubs. Both ends run
    /// one codec over loopback, so any refusal is a codec bug.
    pub refused: u64,
}

/// Runs the crash-rejoin scenario over real threads and loopback UDP:
/// `num_cubs` cub threads ping, declare, take over, and hand back using
/// the same ring machines the DES drives.
pub fn run_crash_rejoin(
    num_cubs: u32,
    cfg: RingConfig,
    script: CrashRejoinScript,
) -> std::io::Result<RtRun> {
    let socks: Vec<UdpSocket> = (0..num_cubs)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<SocketAddr> = socks
        .iter()
        .map(|s| s.local_addr())
        .collect::<Result<_, _>>()?;
    let controls: Vec<Arc<AtomicU8>> = (0..num_cubs)
        .map(|_| Arc::new(AtomicU8::new(RUN)))
        .collect();
    let epoch = Instant::now();

    let mut handles = Vec::new();
    for (i, sock) in socks.into_iter().enumerate() {
        sock.set_read_timeout(Some(POLL))?;
        let cub = CubThread {
            id: CubId(i as u32),
            ring: RingMachine::new(CubId(i as u32), num_cubs),
            cfg,
            sock,
            peers: addrs.clone(),
            control: controls[i].clone(),
            epoch,
            out: Vec::new(),
            fenced: false,
            refused: 0,
        };
        handles.push(std::thread::spawn(move || cub.run()));
    }

    // The harness is the DES's event queue: it fires the scripted
    // power-cut and restart and records them on the control lane, just
    // as `TigerSystem` does.
    let mut run = RtRun::default();
    sleep_until(epoch, script.crash_at);
    controls[script.victim.index()].store(CRASHED, Ordering::SeqCst);
    run.records.push(harness_record(
        epoch,
        TraceEvent::PowerCut {
            cub: script.victim.raw(),
        },
    ));
    sleep_until(epoch, script.restart_at);
    controls[script.victim.index()].store(RESTARTING, Ordering::SeqCst);
    run.records.push(harness_record(
        epoch,
        TraceEvent::CubRestart {
            cub: script.victim.raw(),
        },
    ));
    sleep_until(epoch, script.end_at);
    for c in &controls {
        c.store(SHUTDOWN, Ordering::SeqCst);
    }
    for h in handles {
        let (lane, refused) = h.join().expect("cub thread panicked");
        run.records.extend(lane);
        run.refused += refused;
    }
    Ok(run)
}

fn sleep_until(epoch: Instant, deadline: Duration) {
    let elapsed = epoch.elapsed();
    if elapsed < deadline {
        std::thread::sleep(deadline - elapsed);
    }
}

fn harness_record(epoch: Instant, ev: TraceEvent) -> TraceRecord {
    TraceRecord {
        seq: 0,
        at: SimTime::from_nanos(epoch.elapsed().as_nanos() as u64),
        cub: CTRL,
        ev,
    }
}

/// One cub: a ring machine, a socket, and the driver loop around them.
struct CubThread {
    id: CubId,
    ring: RingMachine,
    cfg: RingConfig,
    sock: UdpSocket,
    peers: Vec<SocketAddr>,
    control: Arc<AtomicU8>,
    epoch: Instant,
    out: Vec<TraceRecord>,
    fenced: bool,
    /// Datagrams `wire::decode` refused.
    refused: u64,
}

impl CubThread {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn record(&mut self, now: SimTime, ev: TraceEvent) {
        self.out.push(TraceRecord {
            seq: 0,
            at: now,
            cub: self.id.raw(),
            ev,
        });
    }

    fn send(&self, to: CubId, msg: &Message) {
        // UDP on loopback: a failed send (e.g. during shutdown) is the
        // same as a lost datagram, which the protocol tolerates.
        let _ = self
            .sock
            .send_to(wire::encode(msg).as_bytes(), self.peers[to.index()]);
    }

    fn run(mut self) -> (Vec<TraceRecord>, u64) {
        let interval = self.cfg.deadman_interval;
        let mut next_ping = SimTime::ZERO + interval;
        let mut next_check = SimTime::ZERO + interval;
        let mut buf = [0u8; 512];
        loop {
            match self.control.load(Ordering::SeqCst) {
                SHUTDOWN => break,
                CRASHED => {
                    // Dead node: messages addressed here are dropped.
                    let _ = self.sock.recv_from(&mut buf);
                    continue;
                }
                RESTARTING => {
                    // Mirror of `TigerSystem::restart_cub`: drain what
                    // arrived while dead, reset the machine to the
                    // knows-nothing state, announce the rejoin, and
                    // resume periodic work with the check one full
                    // timeout out (the fresh baseline can never declare
                    // a predecessor on stale silence).
                    while self.sock.recv_from(&mut buf).is_ok() {}
                    let now = self.now();
                    self.ring.restart(now, self.ring.num_cubs());
                    self.fenced = false;
                    let rejoin = Message::RejoinRequest { from: self.id };
                    for c in 0..self.ring.num_cubs() {
                        if CubId(c) != self.id {
                            self.send(CubId(c), &rejoin);
                        }
                    }
                    next_ping = now + interval;
                    next_check = now + self.cfg.deadman_timeout;
                    self.control.store(RUN, Ordering::SeqCst);
                    continue;
                }
                _ => {}
            }
            if self.fenced {
                // A fenced zombie stops participating until restarted.
                let _ = self.sock.recv_from(&mut buf);
                continue;
            }
            let now = self.now();
            if now >= next_ping {
                if let Some(succ) = self.ring.ping_target() {
                    self.send(succ, &Message::DeadmanPing { from: self.id });
                }
                next_ping += interval;
            }
            if now >= next_check {
                self.deadman_check(now);
                next_check += interval;
            }
            match self.sock.recv_from(&mut buf) {
                Ok((len, _)) => self.on_datagram(&buf[..len]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
        (self.out, self.refused)
    }

    /// Decodes and handles one datagram, or counts it when `wire::decode`
    /// refuses it.
    fn on_datagram(&mut self, bytes: &[u8]) {
        match std::str::from_utf8(bytes).ok().and_then(wire::decode) {
            Some(msg) => {
                let now = self.now();
                self.on_message(now, msg);
            }
            None => self.refused += 1,
        }
    }

    /// The timer half of the deadman protocol: poll the machine and turn
    /// a declaration verdict into the trace + notice fan-out the DES
    /// driver performs (`Cub::on_deadman_check`).
    fn deadman_check(&mut self, now: SimTime) {
        let Some((pred, silence)) = self.ring.poll_check(now, &self.cfg) else {
            return;
        };
        self.record(
            now,
            TraceEvent::DeadmanDeclare {
                failed: pred.raw(),
                silence_ns: silence.as_nanos(),
            },
        );
        self.declare_failed(now, pred);
        let notice = Message::FailureNotice { failed: pred };
        for target in self.ring.living_peers() {
            self.send(target, &notice);
        }
    }

    /// Belief adoption + acting-successor takeover, the control-plane
    /// half of `Cub::declare_failed` (this driver carries no streams, so
    /// the §2.3 redrive and shadow conversion have nothing to do).
    fn declare_failed(&mut self, now: SimTime, failed: CubId) {
        if !self.ring.declare_failed(failed, now) {
            return;
        }
        self.record(
            now,
            TraceEvent::FailureNotice {
                failed: failed.raw(),
            },
        );
        if self.ring.covers(failed) {
            self.record(
                now,
                TraceEvent::MirrorTakeover {
                    failed_cub: failed.raw(),
                },
            );
        }
    }

    fn on_message(&mut self, now: SimTime, msg: Message) {
        match msg {
            // Zombie fencing: a ping from a believed-dead sender earns a
            // notice telling it to stop serving (its streams are covered).
            Message::DeadmanPing { from } if self.ring.on_ping(from, now) => {
                self.send(from, &Message::FailureNotice { failed: from });
            }
            Message::DeadmanPing { .. } => {}
            Message::FailureNotice { failed } => {
                if failed == self.id {
                    self.record(now, TraceEvent::CubFenced { cub: self.id.raw() });
                    self.fenced = true;
                    return;
                }
                self.declare_failed(now, failed);
            }
            Message::RejoinRequest { from } => {
                let Some(outcome) = self.ring.on_rejoin_request(from, now, &self.cfg) else {
                    return;
                };
                if outcome.should_ack {
                    self.send(from, &self.ring.rejoin_ack());
                }
                if outcome.should_replay {
                    // No data plane: the retired tail is empty, but the
                    // predecessor's *decision* to replay it is the
                    // conformance-relevant act (`Cub::replay_retired_tail`
                    // traces it unconditionally for the same reason).
                    self.record(
                        now,
                        TraceEvent::RetiredReplay {
                            to: from.raw(),
                            count: 0,
                        },
                    );
                }
                if outcome.was_covering {
                    self.record(now, TraceEvent::HandbackOpen { to: from.raw() });
                    self.ring.open_handback(from, now, &self.cfg);
                }
            }
            Message::RejoinAck { from, failed } => {
                self.ring.heard_from(from, now);
                for &c in failed.iter() {
                    self.declare_failed(now, CubId(c));
                }
            }
            // Data-plane and controller-plane messages have no receiver
            // in this control-only driver.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::SimDuration;

    #[test]
    fn a_refused_datagram_is_counted_not_handled() {
        let sock = UdpSocket::bind(("127.0.0.1", 0)).expect("loopback socket");
        let addr = sock.local_addr().expect("bound address");
        let mut cub = CubThread {
            id: CubId(0),
            ring: RingMachine::new(CubId(0), 3),
            cfg: RingConfig {
                deadman_timeout: SimDuration::from_secs(1),
                deadman_interval: SimDuration::from_millis(250),
                min_vstate_lead: SimDuration::from_secs(1),
            },
            sock,
            peers: vec![addr; 3],
            control: Arc::new(AtomicU8::new(RUN)),
            epoch: Instant::now(),
            out: Vec::new(),
            fenced: false,
            refused: 0,
        };
        cub.on_datagram(b"NOTICE 01");
        cub.on_datagram(b"NOTICE 1 ");
        cub.on_datagram(&[0xff, 0xfe]);
        assert_eq!(cub.refused, 3);
        assert!(!cub.ring.believes_failed(CubId(1)));
        cub.on_datagram(b"NOTICE 1");
        assert_eq!(cub.refused, 3);
        assert!(cub.ring.believes_failed(CubId(1)), "a good line is handled");
    }
}
