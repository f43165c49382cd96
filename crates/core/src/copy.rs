//! The background copy pipeline: bulk block movement executed
//! incrementally inside the event loop, as background disk and network
//! work behind the stream schedule. It is written once and instantiated
//! per [`Lane`]: live restriping moves primary blocks to their new home
//! disks (§2.2: "the time to restripe a system does not depend on the
//! size of the system" — per-disk move volume, not system size, bounds
//! it; §6.4 gives the bandwidth estimate the chaos invariants check
//! against), and the spare shield copies exposed mirror pieces onto a
//! provisioned spare (see [`crate::shield`]).
//!
//! Each job runs a three-stage pipeline: a paced background read
//! on its source disk, a network transfer to the destination machine, and
//! an index/space commit on the destination disk. Background reads are
//! admission-gated — a source disk is touched only when it is idle (no
//! foreground stream read outstanding) and its pacing rest has elapsed, so
//! the copies steal only slack bandwidth. Jobs whose source or destination
//! is down simply re-queue: a crash mid-campaign leaves a resumable
//! pipeline, and a later [`crate::event::Event::RestartCub`] revives the
//! disks and lets the pump pick the jobs back up.

use std::collections::{HashMap, VecDeque};

use tiger_disk::{DiskError, DiskRequest, RequestKind};
use tiger_layout::{BlockNum, CubId, DiskId, FileId, StripeConfig};
use tiger_sim::{ByteSize, SimDuration, SimTime};
use tiger_trace::{TraceEvent, CTRL};

use crate::cub::Cub;
use crate::event::Event;
use crate::system::Shared;

/// Retry delay after a transient read error on a source disk.
const TRANSIENT_RETRY: SimDuration = SimDuration::from_millis(100);

/// Which pipeline instance an event belongs to. The two lanes never share
/// queues or pacing state: a shield campaign and a restripe in the same
/// run pace their source disks independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Live-restripe block moves.
    Restripe,
    /// Spare-shield mirror-piece copies.
    Shield,
}

/// One background copy: read an extent from disk `src`, ship it to machine
/// `dst`, and commit it on `dst`'s local disk `dst_local`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CopyJob {
    /// The source disk, in the pipeline's (frozen) source geometry.
    pub src: DiskId,
    /// The receiving machine.
    pub dst: CubId,
    /// The receiving machine's local disk.
    pub dst_local: u32,
    /// The disk id the copy is indexed under at the destination: a move's
    /// new home disk, or — for a shield copy — the *failed home disk*
    /// (spares have no ids in the stripe's disk namespace; the spare's
    /// read path looks shield pieces up under the home disk from the
    /// record's mirror kind).
    pub index_as: DiskId,
    /// The block's file.
    pub file: FileId,
    /// The block.
    pub block: BlockNum,
    /// `None` moves the primary block (`lookup_primary` → `Cub::load`);
    /// `Some(p)` copies mirror piece `p` (`lookup_secondary` →
    /// `Cub::load`).
    pub piece: Option<u32>,
    /// Bytes committed at the destination.
    pub size: ByteSize,
    /// Jobs that complete together, traced when the last one lands:
    /// `(departing cub, 0)` for a shrink drain, `(home disk, piece)` for a
    /// shield span. Jobs whose source is dead park forever, so completion
    /// is tracked per batch, never per campaign.
    pub batch: Option<(u32, u32)>,
}

/// Where one job is in its pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Waiting for its source disk to be idle and eligible.
    Queued,
    /// Background read outstanding on the source disk.
    Reading,
    /// In flight on the network toward the destination machine.
    Transferring,
    /// Committed into the destination disk's index and space map.
    Arrived,
}

/// One lane's jobs plus their pipeline state.
#[derive(Debug)]
pub(crate) struct CopyPipeline {
    lane: Lane,
    /// The geometry source disk ids are in: the old stripe for the whole
    /// of a restripe, the current one for the shield.
    stripe: StripeConfig,
    jobs: Vec<CopyJob>,
    stage: Vec<Stage>,
    /// Jobs not yet [`Stage::Arrived`] (parked jobs count).
    pending: usize,
    /// Per-source-disk FIFO of queued job indices.
    disk_queue: Vec<VecDeque<u32>>,
    /// Earliest next background issue per source disk: each read is
    /// followed by a rest at least as long as the read itself took, so
    /// background work never claims more than half a disk's head time.
    next_eligible: Vec<SimTime>,
    /// A stall was already traced for the current starvation episode.
    stalled: bool,
    /// `(remaining, total)` jobs per [`CopyJob::batch`].
    batch_left: HashMap<(u32, u32), (u32, u32)>,
}

impl CopyPipeline {
    /// An empty pipeline reading from disks of `stripe`.
    pub(crate) fn new(lane: Lane, stripe: StripeConfig, now: SimTime) -> Self {
        let num_disks = stripe.num_disks() as usize;
        CopyPipeline {
            lane,
            stripe,
            jobs: Vec::new(),
            stage: Vec::new(),
            pending: 0,
            disk_queue: vec![VecDeque::new(); num_disks],
            next_eligible: vec![now; num_disks],
            stalled: false,
            batch_left: HashMap::new(),
        }
    }

    /// Queues `jobs` behind whatever is already pending.
    pub(crate) fn extend(&mut self, jobs: impl IntoIterator<Item = CopyJob>) {
        for job in jobs {
            if let Some(batch) = job.batch {
                let left = self.batch_left.entry(batch).or_insert((0, 0));
                left.0 += 1;
                left.1 += 1;
            }
            self.disk_queue[job.src.index()].push_back(self.jobs.len() as u32);
            self.jobs.push(job);
            self.stage.push(Stage::Queued);
            self.pending += 1;
        }
    }

    /// Jobs not yet landed. The restripe cuts over when this reaches zero
    /// (the §6.4 duration invariant measures elapsed time between the
    /// `RestripeStart` and `RestripeCutover` trace events); the shield
    /// pipeline is dropped.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// The periodic pump: issue one background read per idle, eligible
    /// source disk. Disks whose machine or drive is down are skipped —
    /// their jobs wait for a restart.
    pub(crate) fn pump(&mut self, sh: &mut Shared, cubs: &mut [Cub], now: SimTime) {
        let mut issued = false;
        // A disk held back only by pacing (or a busy head) is idle time the
        // admission gate bought, not a stall.
        let mut pacing_wait = false;
        for d in 0..self.disk_queue.len() {
            let Some(&idx) = self.disk_queue[d].front() else {
                continue;
            };
            let disk_id = DiskId(d as u32);
            let local = self.stripe.local_index_of(disk_id) as usize;
            let cub = &mut cubs[self.stripe.cub_of(disk_id).index()];
            if cub.failed || cub.disks()[local].is_failed() {
                continue;
            }
            if cub.disks()[local].outstanding() > 0 || now < self.next_eligible[d] {
                pacing_wait = true;
                continue;
            }
            let job = self.jobs[idx as usize];
            let extent = match job.piece {
                None => cub.index().lookup_primary(job.src, job.file, job.block),
                Some(p) => cub
                    .index()
                    .lookup_secondary(job.src, job.file, job.block, p),
            };
            let Some(extent) = extent else {
                // The source layout changed under us. Unreachable for a
                // move (source entries are only removed at cut-over, which
                // also drops the shield pipeline): drop the job.
                debug_assert!(job.piece.is_some(), "restripe source extent vanished");
                self.disk_queue[d].pop_front();
                self.stage[idx as usize] = Stage::Arrived;
                self.pending -= 1;
                continue;
            };
            let req = DiskRequest {
                offset: extent.offset(),
                len: extent.length(),
                // Background class: copies ride the mirror lane so
                // foreground primary-stream accounting stays clean.
                kind: RequestKind::Mirror,
            };
            match cub.disks_mut()[local].submit(now, req) {
                Ok(done) => {
                    self.disk_queue[d].pop_front();
                    self.stage[idx as usize] = Stage::Reading;
                    // Pacing: rest at least as long as the read ran.
                    self.next_eligible[d] = done + done.saturating_since(now);
                    let lane = self.lane;
                    sh.queue.schedule(done, Event::CopyRead { lane, idx });
                    issued = true;
                }
                Err(DiskError::Transient) => {
                    self.next_eligible[d] = now + TRANSIENT_RETRY;
                    pacing_wait = true;
                }
                Err(_) => {} // Disk died under us; wait for a restart.
            }
        }
        // Some job is neither queued nor landed: a read or transfer is out.
        let queued: usize = self.disk_queue.iter().map(VecDeque::len).sum();
        if issued || pacing_wait || self.pending > queued {
            self.stalled = false;
        } else if self.pending > 0 && !self.stalled {
            // Every remaining job's source is down: the pipeline is parked
            // until a restart revives a source disk. A restripe traces it
            // once per episode so timelines show the starvation window; a
            // parked shield span simply never becomes ready.
            self.stalled = true;
            if self.lane == Lane::Restripe {
                let pending = self.pending as u32;
                sh.tracer
                    .record(now, CTRL, TraceEvent::RestripeStall { pending });
            }
        }
    }

    /// A background read finished on its source disk: hand the data to
    /// the network.
    pub(crate) fn on_read_done(
        &mut self,
        sh: &mut Shared,
        cubs: &mut [Cub],
        now: SimTime,
        idx: u32,
    ) {
        if self.stage[idx as usize] != Stage::Reading {
            return;
        }
        let job = self.jobs[idx as usize];
        let src_cub = self.stripe.cub_of(job.src);
        let local = self.stripe.local_index_of(job.src) as usize;
        let cub = &mut cubs[src_cub.index()];
        if cub.failed || cub.disks()[local].is_failed() {
            // The machine (or drive) died with the read in flight: the
            // data never surfaced. Re-queue for after a restart. (A failed
            // disk already zeroed its outstanding count.)
            self.requeue(idx);
            return;
        }
        cub.disks_mut()[local].complete(now);
        let (src, dst) = (sh.cub_node(src_cub), sh.cub_node(job.dst));
        let sent = sh.net.send_data(now, src, dst);
        sh.trace_injection(now, src, dst, sent);
        match sent.at {
            Some(at) => {
                self.stage[idx as usize] = Stage::Transferring;
                let lane = self.lane;
                sh.queue.schedule(at, Event::CopyArrive { lane, idx });
            }
            // Dropped or the destination is down: the read is repeated.
            None => self.requeue(idx),
        }
    }

    /// The data landed on its destination machine: commit it into the
    /// destination disk's space map and index, and trace the batch if
    /// this was its last job.
    pub(crate) fn on_arrive(&mut self, sh: &mut Shared, cubs: &mut [Cub], now: SimTime, idx: u32) {
        if self.stage[idx as usize] != Stage::Transferring {
            return;
        }
        let job = self.jobs[idx as usize];
        let cub = &mut cubs[job.dst.index()];
        if cub.disks()[job.dst_local as usize].is_failed() {
            // Destination drive died while the data was in flight.
            self.requeue(idx);
            return;
        }
        // Spare destinations are marked `failed` (they are not ring
        // members), but their disks are powered and commit fine.
        cub.load(
            job.index_as,
            job.dst_local,
            job.file,
            job.block,
            job.piece,
            job.size,
        );
        self.stage[idx as usize] = Stage::Arrived;
        self.pending -= 1;
        let Some(key) = job.batch else {
            return;
        };
        let left = self.batch_left.get_mut(&key).expect("counted at extend");
        left.0 -= 1;
        if left.0 > 0 {
            return;
        }
        let ev = match job.piece {
            // The departing cub's primaries now all live on survivors;
            // only the cut-over fence remains.
            None => TraceEvent::ShrinkDrain {
                cub: key.0,
                moved: left.1,
            },
            // The span is ready: the cover path may route to the spare.
            Some(piece) => {
                sh.shield.mark_ready(job.index_as, piece, job.dst);
                TraceEvent::SpareShadow {
                    spare: job.dst.raw(),
                    disk: job.index_as.raw(),
                    piece,
                    count: left.1,
                }
            }
        };
        sh.tracer.record(now, CTRL, ev);
    }

    fn requeue(&mut self, idx: u32) {
        self.stage[idx as usize] = Stage::Queued;
        self.disk_queue[self.jobs[idx as usize].src.index()].push_back(idx);
    }
}
