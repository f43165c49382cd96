//! The client (viewer) model.
//!
//! §5: "we ran a special client application that does not render any video,
//! but rather simply makes sure that the expected data arrives on time."
//! Each simulated client machine carries many viewers; a viewer records
//! per-block arrival (assembling declustered mirror pieces when the system
//! is in failed mode) and reports anything it never received.

use tiger_layout::ids::ViewerInstance;
use tiger_layout::FileId;
use tiger_sim::{DetHashMap as HashMap, SimDuration, SimTime};

/// How many block play times late a block may arrive before the client
/// discards it as useless for rendering.
pub const LATE_GRACE_BLOCKS: u64 = 10;

/// Progress of one viewer (one play-request instance).
#[derive(Clone, Debug)]
pub struct ViewerProgress {
    /// The file being played.
    pub file: FileId,
    /// Total blocks in the file.
    pub num_blocks: u32,
    /// When the start request was issued.
    pub requested_at: SimTime,
    /// Schedule load at request time (for the Figure 10 x-axis).
    pub load_at_request: f64,
    /// When the first byte-complete block arrived.
    pub first_block_at: Option<SimTime>,
    /// Received flags from `base_block` up to the highest block received,
    /// block `base_block + i` at bit `i % 64` of word `i / 64`, grown as
    /// blocks arrive. Blocks below the base hold no bit and count as received.
    received: Vec<u64>,
    /// First block this play instance covers (0 for a from-the-top play;
    /// a resume or seek starts later). Blocks below it are not expected.
    pub base_block: u32,
    /// Blocks that arrived too late to be rendered (discarded).
    pub late_blocks: u32,
    /// Fully-assembled blocks that arrived more than once. Tiger never
    /// retransmits, so any double delivery is a protocol bug (or an
    /// injected network duplicate on the control plane leaking into
    /// data, which the fault invariants treat the same way).
    pub dup_blocks: u32,
    /// Whether the viewer was stopped by request.
    pub stopped: bool,
    /// Highest block index received (None before any data).
    pub high_water: Option<u32>,
}

impl ViewerProgress {
    fn new(
        file: FileId,
        num_blocks: u32,
        base_block: u32,
        requested_at: SimTime,
        load: f64,
    ) -> Self {
        ViewerProgress {
            file,
            num_blocks,
            requested_at,
            load_at_request: load,
            first_block_at: None,
            received: Vec::new(),
            base_block,
            late_blocks: 0,
            dup_blocks: 0,
            stopped: false,
            high_water: None,
        }
    }

    /// Flags block `b`, at or above the base, received.
    fn mark_received(&mut self, b: u32) {
        let i = (b - self.base_block) as usize;
        self.received.resize(self.received.len().max(i / 64 + 1), 0);
        self.received[i / 64] |= 1 << (i % 64);
    }

    /// How many of the blocks below `end` count as received: every one
    /// below the base (not part of this play instance, so the gap
    /// accounting ignores them) and the flagged ones from it on.
    fn received_below(&self, end: u32) -> u32 {
        let Some(n) = end.checked_sub(self.base_block) else {
            return end;
        };
        let cut = self.received.len().min(n as usize / 64);
        let (whole, rest) = self.received.split_at(cut);
        let part = rest.first().map_or(0, |w| w & ((1 << (n % 64)) - 1));
        let flagged: u32 = whole.iter().chain(&[part]).map(|w| w.count_ones()).sum();
        self.base_block + flagged
    }

    /// The first block not yet received in order: where a resume or a
    /// restripe cut-over picks the viewer back up.
    pub fn resume_block(&self) -> u32 {
        self.high_water.map_or(self.base_block, |h| h + 1)
    }

    /// Whether every block arrived.
    pub fn complete(&self) -> bool {
        self.received_below(self.num_blocks) == self.num_blocks
    }

    /// Whether block `b` was (fully) received.
    pub fn block_received(&self, b: u32) -> bool {
        let Some(i) = b.checked_sub(self.base_block) else {
            return b < self.num_blocks;
        };
        let word = self.received.get(i as usize / 64).copied().unwrap_or(0);
        b < self.num_blocks && word >> (i % 64) & 1 == 1
    }

    /// Blocks received so far (within this play instance's range).
    pub fn blocks_received(&self) -> u32 {
        self.received_below(self.num_blocks) - self.base_block.min(self.num_blocks)
    }

    /// Blocks that should have arrived but did not: every gap below the
    /// high-water mark. A viewer that is still mid-play at measurement time
    /// does not count its unplayed tail; use
    /// [`ViewerProgress::tail_missing`] for runs that covered the full
    /// play time.
    pub fn blocks_missing(&self) -> u32 {
        let Some(high) = self.high_water else {
            return 0; // Never started; counted as a start failure, not loss.
        };
        high + 1 - self.received_below(high + 1)
    }

    /// Blocks above the high-water mark that never arrived. Zero for
    /// stopped viewers; for completed runs this exposes starved streams
    /// (e.g. schedule information lost in a failure).
    pub fn tail_missing(&self) -> u32 {
        if self.stopped {
            return 0;
        }
        let Some(high) = self.high_water else {
            return 0;
        };
        self.num_blocks - (high + 1)
    }

    /// The start latency, if the first block arrived.
    pub fn start_latency_secs(&self) -> Option<f64> {
        self.first_block_at
            .map(|t| t.saturating_since(self.requested_at).as_secs_f64())
    }
}

/// Aggregate per-client report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Viewers that received every block of their file.
    pub completed_viewers: u32,
    /// Viewers stopped early by request.
    pub stopped_viewers: u32,
    /// Viewers that never received any data.
    pub never_started: u32,
    /// Total blocks received (fully assembled).
    pub blocks_received: u64,
    /// Total blocks missing (gaps and lost tails).
    pub blocks_missing: u64,
    /// Total fully-assembled blocks delivered more than once.
    pub dup_blocks: u64,
}

/// One client machine, possibly receiving many concurrent streams.
#[derive(Debug, Default)]
pub struct Client {
    viewers: HashMap<ViewerInstance, ViewerProgress>,
    /// Partial mirror-piece assembly: (instance, block) -> (bitmask of
    /// pieces seen, pieces that make the block), dropped once it is whole.
    pieces: HashMap<(ViewerInstance, u32), (u32, u32)>,
}

impl Client {
    /// Creates a client with no viewers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new play request starting at `from_block` (0 for the
    /// beginning; resumes and seeks start mid-file).
    pub fn on_request(
        &mut self,
        instance: ViewerInstance,
        file: FileId,
        num_blocks: u32,
        from_block: u32,
        requested_at: SimTime,
        schedule_load: f64,
    ) {
        self.viewers.insert(
            instance,
            ViewerProgress::new(file, num_blocks, from_block, requested_at, schedule_load),
        );
    }

    /// Handles arriving stream data. Returns the viewer when this delivery
    /// completed its first whole block (for the start-latency
    /// instrumentation: [`ViewerProgress::first_block_at`] is now set).
    ///
    /// §5: the test client "makes sure that the expected data arrives on
    /// time" — data arriving more than [`LATE_GRACE_BLOCKS`] block play
    /// times after its expected instant is counted late and discarded (a
    /// renderer would have skipped past it long ago).
    pub fn on_stream_data(
        &mut self,
        instance: ViewerInstance,
        block: u32,
        piece: Option<u32>,
        total_pieces: u32,
        now: SimTime,
    ) -> Option<&ViewerProgress> {
        let Some(v) = self.viewers.get_mut(&instance) else {
            return None; // Data for a stopped/unknown viewer: ignored.
        };
        if block >= v.num_blocks {
            return None;
        }
        if block < v.base_block {
            return None; // Before this play instance's start point.
        }
        if let Some(first) = v.first_block_at {
            // Blocks arrive one per block play time after the first (1 s in
            // every configuration in this repo), counted from the play
            // instance's base block.
            let expected = first + SimDuration::from_secs(u64::from(block - v.base_block));
            if now.saturating_since(expected) > SimDuration::from_secs(LATE_GRACE_BLOCKS) {
                v.late_blocks += 1;
                return None;
            }
        }
        let completed = match piece {
            None => true,
            Some(p) => {
                let key = (instance, block);
                let entry = self.pieces.entry(key).or_insert((0, total_pieces));
                entry.0 |= 1 << p;
                let done = entry.0.count_ones() >= entry.1;
                if done {
                    self.pieces.remove(&key);
                }
                done
            }
        };
        if completed {
            if v.block_received(block) {
                v.dup_blocks += 1;
            } else {
                v.mark_received(block);
                v.high_water = Some(v.high_water.map_or(block, |h| h.max(block)));
                if v.first_block_at.is_none() {
                    v.first_block_at = Some(now);
                    return Some(v);
                }
            }
        }
        None
    }

    /// Marks a viewer stopped (deschedule issued); false if this client
    /// does not play it or had already stopped it.
    pub fn on_stopped(&mut self, instance: ViewerInstance) -> bool {
        let v = self.viewers.get_mut(&instance);
        v.is_some_and(|v| !std::mem::replace(&mut v.stopped, true))
    }

    /// Progress of one viewer.
    pub fn viewer(&self, instance: &ViewerInstance) -> Option<&ViewerProgress> {
        self.viewers.get(instance)
    }

    /// All viewers on this client, in arbitrary order: sort or aggregate.
    pub fn viewers(&self) -> impl Iterator<Item = (&ViewerInstance, &ViewerProgress)> {
        self.viewers.iter()
    }

    /// The aggregate report.
    pub fn report(&self) -> ClientReport {
        let mut r = ClientReport::default();
        self.add_to(&mut r);
        r
    }

    /// Adds this client's viewers to `r`.
    pub(crate) fn add_to(&self, r: &mut ClientReport) {
        for v in self.viewers.values() {
            r.blocks_received += u64::from(v.blocks_received());
            r.blocks_missing += u64::from(v.blocks_missing());
            r.dup_blocks += u64::from(v.dup_blocks);
            if v.first_block_at.is_none() {
                r.never_started += 1;
            } else if v.stopped {
                r.stopped_viewers += 1;
            } else if v.complete() {
                r.completed_viewers += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_layout::ViewerId;
    use tiger_sim::check::check_reaching;

    fn inst(v: u64) -> ViewerInstance {
        ViewerInstance {
            viewer: ViewerId(v),
            incarnation: 0,
        }
    }

    #[test]
    fn whole_blocks_accumulate() {
        let mut c = Client::new();
        c.on_request(inst(1), FileId(0), 3, 0, SimTime::ZERO, 0.1);
        for b in 0..3 {
            let first = c.on_stream_data(inst(1), b, None, 1, SimTime::from_secs(u64::from(b) + 2));
            assert_eq!(first.is_some(), b == 0, "only the first block is a start");
        }
        let v = c.viewer(&inst(1)).expect("known");
        assert!(v.complete());
        assert_eq!(v.blocks_missing(), 0);
        assert_eq!(v.start_latency_secs(), Some(2.0));
        assert_eq!(c.report().completed_viewers, 1);
    }

    #[test]
    fn mirror_pieces_assemble() {
        let mut c = Client::new();
        c.on_request(inst(1), FileId(0), 2, 0, SimTime::ZERO, 0.1);
        // Block 0 arrives as 4 declustered pieces.
        for (piece, ms) in [(0, 100), (1, 200), (3, 300), (1, 350)] {
            // (Piece 1 comes twice: a duplicate is idempotent.)
            let first = c.on_stream_data(inst(1), 0, Some(piece), 4, SimTime::from_millis(ms));
            assert!(first.is_none() && c.viewer(&inst(1)).expect("known").blocks_received() == 0);
        }
        let v = c.on_stream_data(inst(1), 0, Some(2), 4, SimTime::from_millis(400));
        assert_eq!(v.expect("first whole block").blocks_received(), 1);
    }

    #[test]
    fn gaps_count_as_missing() {
        let mut c = Client::new();
        c.on_request(inst(1), FileId(0), 5, 0, SimTime::ZERO, 0.1);
        c.on_stream_data(inst(1), 0, None, 1, SimTime::from_secs(1));
        c.on_stream_data(inst(1), 2, None, 1, SimTime::from_secs(3));
        let v = c.viewer(&inst(1)).expect("known");
        // Block 1 is a gap; blocks 3-4 are the (not yet due) tail.
        assert_eq!(v.blocks_missing(), 1);
        assert_eq!(v.tail_missing(), 2);
    }

    #[test]
    fn stopped_viewer_only_counts_gaps_below_high_water() {
        let mut c = Client::new();
        c.on_request(inst(1), FileId(0), 100, 0, SimTime::ZERO, 0.1);
        c.on_stream_data(inst(1), 0, None, 1, SimTime::from_secs(1));
        c.on_stream_data(inst(1), 1, None, 1, SimTime::from_secs(2));
        c.on_stream_data(inst(1), 3, None, 1, SimTime::from_secs(4));
        c.on_stopped(inst(1));
        let v = c.viewer(&inst(1)).expect("known");
        assert_eq!(v.blocks_missing(), 1, "only block 2");
        assert_eq!(c.report().stopped_viewers, 1);
    }

    /// The receipt bits against one `bool` a block of the file, blocks
    /// below the base `true` from the start: every accessor, at file
    /// lengths and bases on both sides of a word boundary, bases at and
    /// past the end of the file, and arrivals that land whole words past
    /// every bit held so far.
    #[test]
    fn receipt_bits_match_the_bool_model() {
        // What the cases reached between them, asserted after the run.
        const REACH: [&str; 3] = ["a base past the end", "a base mid-file", "a skipped word"];
        check_reaching("receipt_bits_match_the_bool_model", REACH, |rng, reach| {
            let num_blocks = rng.gen_range(1u32..400);
            let base = rng.gen_range(0..num_blocks + 130);
            reach(0, base >= num_blocks);
            reach(1, base > 64 && base < num_blocks);
            let mut v = ViewerProgress::new(FileId(0), num_blocks, base, SimTime::ZERO, 0.0);
            let mut model: Vec<bool> = (0..num_blocks).map(|b| b < base).collect();
            let arrivals = if base < num_blocks {
                rng.gen_range(0u32..300)
            } else {
                0
            };
            for step in 0..=arrivals {
                if step > 0 {
                    let held = base + 64 * v.received.len() as u32;
                    let b = if held + 64 < num_blocks && rng.gen_bool(0.2) {
                        reach(2, true);
                        rng.gen_range(held + 64..num_blocks)
                    } else {
                        rng.gen_range(base..num_blocks)
                    };
                    v.mark_received(b);
                    v.high_water = Some(v.high_water.map_or(b, |h| h.max(b)));
                    model[b as usize] = true;
                }
                let got = |flags: &[bool]| flags.iter().filter(|&&f| f).count() as u32;
                let played = model.get(base as usize..).unwrap_or_default();
                assert_eq!(v.blocks_received(), got(played));
                let missing = v
                    .high_water
                    .map_or(0, |h| h + 1 - got(&model[..=h as usize]));
                assert_eq!(v.blocks_missing(), missing);
                assert_eq!(v.complete(), model.iter().all(|&f| f));
                for probe in 0..num_blocks + 70 {
                    let want = model.get(probe as usize).copied().unwrap_or(false);
                    assert_eq!(v.block_received(probe), want, "block {probe}");
                }
            }
        });
    }

    #[test]
    fn instances_sharing_blocks_assemble_their_pieces_apart() {
        let mut c = Client::new();
        for v in [1, 2] {
            c.on_request(inst(v), FileId(0), 4, 0, SimTime::ZERO, 0.1);
        }
        // Block 0 in four pieces to each instance, interleaved; instance 1's
        // piece 2 comes last, after instance 2 has its whole block.
        let sends = [
            (1, 0),
            (2, 1),
            (1, 1),
            (2, 0),
            (1, 3),
            (2, 3),
            (2, 2),
            (1, 2),
        ];
        for (i, &(v, piece)) in sends.iter().enumerate() {
            let now = SimTime::from_millis(100 * i as u64 + 100);
            let first = c.on_stream_data(inst(v), 0, Some(piece), 4, now);
            assert_eq!(first.is_some(), i == 6 || i == 7, "send {i}");
            assert_eq!(c.pieces.len(), [1, 2, 2, 2, 2, 2, 1, 0][i], "send {i}");
        }
        for v in [1, 2] {
            let progress = c.viewer(&inst(v)).expect("known");
            assert_eq!((progress.blocks_received(), progress.dup_blocks), (1, 0));
        }
    }

    #[test]
    fn never_started_viewers_are_reported() {
        let mut c = Client::new();
        c.on_request(inst(1), FileId(0), 5, 0, SimTime::ZERO, 0.99);
        assert_eq!(c.report().never_started, 1);
        assert_eq!(c.report().blocks_missing, 0);
    }

    #[test]
    fn data_for_unknown_viewer_ignored() {
        let mut c = Client::new();
        let ignored = c.on_stream_data(inst(9), 0, None, 1, SimTime::ZERO);
        assert!(ignored.is_none());
    }
}
