//! Schedule arithmetic (paper §3.1): block service time, slots, pointers,
//! and slot ownership.
//!
//! "The disk schedule is an array of slots, with one slot for every stream
//! of system capacity. … each slot in the disk schedule is one block
//! service time long, and the entire schedule is the block play time times
//! the number of disks in the system. The schedule must be an integral
//! multiple of both the block play and block service times. If not, the
//! block service time is lengthened enough to make it so."
//!
//! All arithmetic is exact: slot boundaries are the rational partition
//! `slot_start(i) = floor(L * i / S)` of the schedule ring, computed in
//! `u128`, so the `S` slots exactly tile the `L`-nanosecond ring with no
//! cumulative drift.

use std::fmt;

use tiger_layout::{DiskId, StripeConfig};
use tiger_sim::{Bandwidth, ByteSize, SimDuration, SimTime};

/// A slot in the global disk schedule (0-based, `< capacity`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId(pub u32);

impl SlotId {
    /// The raw slot number.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The slot number as a usize for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A memory of recent slot removals, used by the omniscient checker to
/// permit legitimately in-flight sends shortly after a deschedule commits.
#[derive(Clone, Debug, Default)]
pub struct SlotGrace {
    span: tiger_sim::SimDuration,
    recent: std::collections::HashMap<(SlotId, tiger_layout::ids::ViewerInstance), SimTime>,
}

impl SlotGrace {
    /// Creates a grace tracker covering `span` after each removal.
    pub fn new(span: tiger_sim::SimDuration) -> Self {
        SlotGrace {
            span,
            recent: std::collections::HashMap::new(),
        }
    }

    /// Records that `(slot, instance)` was removed at `now`.
    pub fn record(
        &mut self,
        slot: SlotId,
        instance: tiger_layout::ids::ViewerInstance,
        now: SimTime,
    ) {
        self.recent.insert((slot, instance), now);
        // Opportunistic GC.
        let span = self.span;
        self.recent
            .retain(|_, &mut at| now.saturating_since(at) <= span);
    }

    /// Whether a send for `(slot, instance)` at `now` falls inside the
    /// grace window of its removal.
    pub fn covers(
        &self,
        slot: SlotId,
        instance: tiger_layout::ids::ViewerInstance,
        now: SimTime,
    ) -> bool {
        self.recent
            .get(&(slot, instance))
            .is_some_and(|&at| now.saturating_since(at) <= self.span)
    }
}

/// Derived schedule parameters for a Tiger system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleParams {
    stripe: StripeConfig,
    block_play_time: SimDuration,
    block_service_time: SimDuration,
    schedule_len: SimDuration,
    capacity: u32,
    scheduling_lead: SimDuration,
    ownership_duration: SimDuration,
}

impl ScheduleParams {
    /// Derives the schedule from hardware characteristics.
    ///
    /// * `disk_worst_read` — the worst-case time for one slot's disk work
    ///   (one primary read, plus one mirror-piece read if the system is
    ///   fault tolerant); obtained from the disk model.
    /// * `block_size`/`nic_capacity` — used for the network-side limit: a
    ///   cub's NIC can sustain at most `nic_capacity / stream_rate`
    ///   concurrent streams across its `disks_per_cub` disks.
    ///
    /// The block service time is the larger of the disk- and NIC-implied
    /// minima ("determined by either the speed of the disks or the capacity
    /// of the network interface, whichever is the bottleneck"), then
    /// lengthened so the schedule holds an integral number of slots.
    ///
    /// # Panics
    ///
    /// Panics if the hardware cannot sustain even one stream per disk.
    pub fn derive(
        stripe: StripeConfig,
        block_play_time: SimDuration,
        block_size: ByteSize,
        disk_worst_read: SimDuration,
        nic_capacity: Bandwidth,
    ) -> Self {
        assert!(
            !block_play_time.is_zero(),
            "block play time must be nonzero"
        );
        assert!(
            !disk_worst_read.is_zero(),
            "disk service time must be nonzero"
        );

        // NIC-implied minimum service time: each of the cub's disks may
        // have at most (streams_per_cub_nic / disks_per_cub) slots per
        // block play time. The per-block send occupies `stream_rate` for
        // one block play time, so streams_per_cub_nic = capacity / rate,
        // with rate = block_size / block_play_time.
        let stream_rate_bits =
            block_size.as_bytes() as u128 * 8 * 1_000_000_000 / block_play_time.as_nanos() as u128;
        let nic_streams_per_cub = (nic_capacity.bits_per_sec() as u128 * 1000)
            .checked_div(stream_rate_bits)
            .unwrap_or(u128::MAX); // scaled by 1000 for sub-stream precision
                                   // bst_net = bpt * disks_per_cub / streams_per_cub.
        let nic_min_service =
            (block_play_time.as_nanos() as u128 * stripe.disks_per_cub as u128 * 1000)
                .checked_div(nic_streams_per_cub)
                .map_or(SimDuration::MAX, |ns| SimDuration::from_nanos(ns as u64));

        let min_service = disk_worst_read.max(nic_min_service);
        let schedule_len = block_play_time.mul_u64(u64::from(stripe.num_disks()));
        let capacity_u64 = schedule_len.div_duration(min_service);
        assert!(
            capacity_u64 >= u64::from(stripe.num_disks()),
            "hardware cannot sustain one stream per disk"
        );
        let capacity = u32::try_from(capacity_u64).expect("capacity fits u32");
        // Lengthening rule: the effective service time is schedule_len /
        // capacity (kept implicitly by the rational slot partition).
        let block_service_time = schedule_len.div_u64_ceil(u64::from(capacity));

        // "The ownership period begins some time before the beginning of
        // the slot … the scheduling lead is always at least one block
        // service time. Typically, it is somewhat longer to allow for
        // variations in disk performance."
        let scheduling_lead = block_service_time.mul_u64(3);
        // "The time during which a cub owns a slot is small relative to the
        // block play time."
        let ownership_duration = block_play_time.div_u64(8);

        ScheduleParams {
            stripe,
            block_play_time,
            block_service_time,
            schedule_len,
            capacity,
            scheduling_lead,
            ownership_duration,
        }
    }

    /// Overrides the scheduling lead (tests and ablations).
    pub fn with_scheduling_lead(mut self, lead: SimDuration) -> Self {
        assert!(
            lead >= self.block_service_time,
            "lead must be >= one service time"
        );
        self.scheduling_lead = lead;
        self
    }

    /// Overrides the ownership window duration (tests and ablations).
    pub fn with_ownership_duration(mut self, d: SimDuration) -> Self {
        assert!(
            d <= self.block_play_time,
            "ownership window must fit between pointers"
        );
        assert!(!d.is_zero(), "ownership window must be nonzero");
        self.ownership_duration = d;
        self
    }

    /// The striping configuration.
    pub fn stripe(&self) -> StripeConfig {
        self.stripe
    }

    /// The block play time.
    pub fn block_play_time(&self) -> SimDuration {
        self.block_play_time
    }

    /// The (lengthened) block service time.
    pub fn block_service_time(&self) -> SimDuration {
        self.block_service_time
    }

    /// The schedule ring length: block play time × number of disks.
    pub fn schedule_len(&self) -> SimDuration {
        self.schedule_len
    }

    /// Total system capacity in streams (= number of slots).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The scheduling lead: how far before a slot's start its disk read is
    /// issued (and its ownership window opens).
    pub fn scheduling_lead(&self) -> SimDuration {
        self.scheduling_lead
    }

    /// The slot-ownership window length.
    pub fn ownership_duration(&self) -> SimDuration {
        self.ownership_duration
    }

    // --- Exact slot geometry -------------------------------------------

    /// The start position of `slot` on the schedule ring, in nanoseconds
    /// from ring origin.
    pub fn slot_start(&self, slot: SlotId) -> SimDuration {
        debug_assert!(slot.raw() < self.capacity);
        SimDuration::from_nanos(
            (self.schedule_len.as_nanos() as u128 * slot.raw() as u128 / self.capacity as u128)
                as u64,
        )
    }

    /// The slot containing ring position `pos` (`pos < schedule_len`).
    ///
    /// Exact inverse of [`ScheduleParams::slot_start`]: the largest `s`
    /// with `slot_start(s) <= pos`, i.e. `floor(((pos+1)*S - 1) / L)`.
    pub fn slot_at(&self, pos: SimDuration) -> SlotId {
        debug_assert!(pos < self.schedule_len);
        let s = ((pos.as_nanos() as u128 + 1) * self.capacity as u128 - 1)
            / self.schedule_len.as_nanos() as u128;
        SlotId(s as u32)
    }

    /// The slot after `slot`, wrapping around the ring.
    pub fn next_slot(&self, slot: SlotId) -> SlotId {
        SlotId((slot.raw() + 1) % self.capacity)
    }

    // --- Disk pointers ---------------------------------------------------

    /// Disk `disk`'s pointer position on the ring at time `t`.
    ///
    /// "The pointer for each disk is one block play time behind the pointer
    /// for its predecessor": disk 0 is at `t mod L`, disk `d` lags it by
    /// `d` block play times.
    pub fn disk_position(&self, disk: DiskId, t: SimTime) -> SimDuration {
        let l = self.schedule_len.as_nanos();
        let lag = (self.block_play_time.as_nanos() as u128 * disk.raw() as u128 % l as u128) as u64;
        SimDuration::from_nanos(((t.as_nanos() % l) + l - lag) % l)
    }

    /// The slot disk `disk` is servicing at time `t`.
    pub fn slot_under_disk(&self, disk: DiskId, t: SimTime) -> SlotId {
        self.slot_at(self.disk_position(disk, t))
    }

    /// The earliest time `>= not_before` at which disk `disk`'s pointer is
    /// at ring position `pos`.
    pub fn time_disk_at_position(
        &self,
        disk: DiskId,
        pos: SimDuration,
        not_before: SimTime,
    ) -> SimTime {
        debug_assert!(pos < self.schedule_len);
        let l = self.schedule_len.as_nanos();
        let lag = (self.block_play_time.as_nanos() as u128 * disk.raw() as u128 % l as u128) as u64;
        // We need t with (t - lag) mod L == pos, i.e. t ≡ pos + lag (mod L).
        let target = (pos.as_nanos() + lag) % l;
        let nb = not_before.as_nanos();
        let base = nb - nb % l + target;
        let t = if base >= nb { base } else { base + l };
        SimTime::from_nanos(t)
    }

    /// The earliest time `>= not_before` at which disk `disk`'s pointer
    /// reaches the start of `slot` — the block's send time.
    pub fn slot_send_time(&self, disk: DiskId, slot: SlotId, not_before: SimTime) -> SimTime {
        self.time_disk_at_position(disk, self.slot_start(slot), not_before)
    }

    // --- Ownership (§4.1.3) ---------------------------------------------

    /// The ring position at which the ownership window for `slot` begins:
    /// one scheduling lead before the slot's start.
    fn ownership_start(&self, slot: SlotId) -> SimDuration {
        let l = self.schedule_len.as_nanos();
        let start = self.slot_start(slot).as_nanos();
        let lead = self.scheduling_lead.as_nanos() % l;
        SimDuration::from_nanos((start + l - lead) % l)
    }

    /// The disk (if any) whose pointer currently gives its cub ownership of
    /// `slot` at time `t`.
    ///
    /// Pointers are spaced one block play time apart and the window is
    /// shorter than that spacing, so at most one disk owns a slot at any
    /// instant; between windows the slot is unowned (Figure 6).
    pub fn owner_of_slot(&self, slot: SlotId, t: SimTime) -> Option<DiskId> {
        let l = self.schedule_len.as_nanos();
        let win = self.ownership_start(slot).as_nanos();
        let bpt = self.block_play_time.as_nanos();
        // Disk d's pointer is at (t - d*bpt) mod L; it is inside
        // [win, win + dur) iff (t - win - d*bpt) mod L < dur.
        let x = ((t.as_nanos() % l) + l - win) % l;
        let d = x / bpt;
        let into = x % bpt;
        (into < self.ownership_duration.as_nanos() && d < u64::from(self.stripe.num_disks()))
            .then_some(DiskId(d as u32))
    }

    /// All slots disk `disk` owns at time `t`, oldest window first.
    ///
    /// When the ownership duration exceeds one block service time a pointer
    /// can be inside several slots' windows simultaneously; the inserting
    /// cub may use any empty one.
    pub fn owned_slot_range(&self, disk: DiskId, t: SimTime) -> Vec<SlotId> {
        let l = self.schedule_len.as_nanos();
        let p = self.disk_position(disk, t).as_nanos();
        let hi = (p + self.scheduling_lead.as_nanos()) % l;
        let dur = self.ownership_duration.as_nanos();
        let mut out = Vec::new();
        // Slot starts in (hi - dur, hi], walking backwards from slot_at(hi).
        let mut slot = self.slot_at(SimDuration::from_nanos(hi));
        loop {
            let start = self.slot_start(slot).as_nanos();
            let dist_back = (hi + l - start) % l;
            if dist_back < dur {
                out.push(slot);
                slot = SlotId((slot.raw() + self.capacity - 1) % self.capacity);
                if out.len() as u32 >= self.capacity {
                    break; // Degenerate: window covers the whole ring.
                }
            } else {
                break;
            }
        }
        out.reverse();
        out
    }

    /// How long from `t` until disk `disk` next *gains* ownership of some
    /// slot (used to pace insertion retries).
    pub fn time_to_next_ownership(&self, disk: DiskId, t: SimTime) -> SimDuration {
        // Ownership windows open each time a slot start crosses position
        // p + lead. The next slot boundary after (p + lead) opens the next
        // window.
        let l = self.schedule_len.as_nanos();
        let p = self.disk_position(disk, t).as_nanos();
        let hi = (p + self.scheduling_lead.as_nanos()) % l;
        let slot = self.slot_at(SimDuration::from_nanos(hi));
        let next = self.next_slot(slot);
        let next_start = self.slot_start(next).as_nanos();
        SimDuration::from_nanos((next_start + l - hi) % l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §5 testbed parameters; the disk worst-case read is the value the
    /// calibrated `tiger-disk` profile produces (asserted equal there).
    fn sosp() -> ScheduleParams {
        ScheduleParams::derive(
            StripeConfig::new(14, 4, 4),
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            SimDuration::from_nanos(92_954_226), // tiger-disk sosp97 worst case
            Bandwidth::from_mbit_per_sec(135),
        )
    }

    #[test]
    fn sosp_capacity_is_602() {
        let p = sosp();
        assert_eq!(p.capacity(), 602);
        assert_eq!(p.schedule_len(), SimDuration::from_secs(56));
        // Disks are the bottleneck, not the NIC (§5).
        let spd = p.capacity() as f64 / 56.0;
        assert!((10.0..11.0).contains(&spd));
    }

    #[test]
    fn nic_limits_when_disks_are_fast() {
        // With an implausibly fast disk, the NIC becomes the bottleneck:
        // 135 Mbit/s / 2 Mbit/s = 67.5 streams per cub = ~16.9 per disk.
        let p = ScheduleParams::derive(
            StripeConfig::new(14, 4, 4),
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            SimDuration::from_millis(1),
            Bandwidth::from_mbit_per_sec(135),
        );
        let per_cub = p.capacity() as f64 / 14.0;
        assert!(per_cub <= 67.5 + 1e-9, "per-cub streams {per_cub}");
        assert!(per_cub > 66.0, "per-cub streams {per_cub}");
    }

    #[test]
    fn slots_tile_the_ring_exactly() {
        let p = sosp();
        // Every ring position maps to exactly one slot, boundaries agree.
        for i in 0..p.capacity() {
            let s = SlotId(i);
            let start = p.slot_start(s);
            assert_eq!(p.slot_at(start), s, "start of {s}");
            if !start.is_zero() {
                let just_before = SimDuration::from_nanos(start.as_nanos() - 1);
                assert_eq!(p.slot_at(just_before).raw(), i - 1);
            }
        }
        // The last slot reaches the end of the ring.
        let last = SimDuration::from_nanos(p.schedule_len().as_nanos() - 1);
        assert_eq!(p.slot_at(last).raw(), p.capacity() - 1);
    }

    #[test]
    fn slot_widths_differ_by_at_most_one_nano() {
        let p = sosp();
        let mut widths = Vec::new();
        for i in 0..p.capacity() {
            let start = p.slot_start(SlotId(i)).as_nanos();
            let end = if i + 1 == p.capacity() {
                p.schedule_len().as_nanos()
            } else {
                p.slot_start(SlotId(i + 1)).as_nanos()
            };
            widths.push(end - start);
        }
        let min = widths.iter().min().expect("nonempty");
        let max = widths.iter().max().expect("nonempty");
        assert!(max - min <= 1, "slot widths vary by {}", max - min);
        // And the width is the block service time (±1 ns).
        assert!((p.block_service_time().as_nanos() as i128 - *max as i128).abs() <= 1);
    }

    #[test]
    fn disk_pointers_lag_by_one_block_play_time() {
        let p = sosp();
        let t = SimTime::from_millis(12_345);
        for d in 1..p.stripe().num_disks() {
            let prev = p.disk_position(DiskId(d - 1), t);
            let cur = p.disk_position(DiskId(d), t);
            let l = p.schedule_len().as_nanos();
            let lag = (prev.as_nanos() + l - cur.as_nanos()) % l;
            assert_eq!(lag, p.block_play_time().as_nanos(), "disk {d}");
        }
        // The distance between the last and first disk is also one bpt.
        let first = p.disk_position(DiskId(0), t);
        let last = p.disk_position(DiskId(p.stripe().num_disks() - 1), t);
        let l = p.schedule_len().as_nanos();
        let gap = (last.as_nanos() + l - first.as_nanos()) % l;
        assert_eq!(gap, l - p.block_play_time().as_nanos() * 55);
    }

    #[test]
    fn time_disk_at_position_is_consistent() {
        let p = sosp();
        for d in [0u32, 1, 13, 55] {
            for pos_ms in [0u64, 1, 93, 999, 55_999] {
                let pos = SimDuration::from_millis(pos_ms);
                let nb = SimTime::from_secs(100);
                let t = p.time_disk_at_position(DiskId(d), pos, nb);
                assert!(t >= nb);
                assert_eq!(
                    p.disk_position(DiskId(d), t),
                    pos,
                    "disk {d} pos {pos_ms}ms"
                );
                assert!(t - nb < p.schedule_len() + SimDuration::from_nanos(1));
            }
        }
    }

    #[test]
    fn successive_sends_to_a_slot_are_one_bpt_apart() {
        // A viewer in slot s gets a block from each successive disk exactly
        // one block play time after the previous disk.
        let p = sosp();
        let s = SlotId(17);
        let t0 = p.slot_send_time(DiskId(5), s, SimTime::from_secs(10));
        let t1 = p.slot_send_time(DiskId(6), s, t0);
        assert_eq!(t1 - t0, p.block_play_time());
    }

    #[test]
    fn at_most_one_owner_and_windows_rotate() {
        let p = sosp();
        let slot = SlotId(100);
        let mut owners_seen = Vec::new();
        let mut owned_ns = 0u64;
        let step = SimDuration::from_millis(5);
        let total_steps = (p.schedule_len().as_nanos() / step.as_nanos()) as usize;
        let mut t = SimTime::from_secs(200);
        for _ in 0..total_steps {
            if let Some(d) = p.owner_of_slot(slot, t) {
                owned_ns += step.as_nanos();
                if owners_seen.last() != Some(&d) {
                    owners_seen.push(d);
                }
                // Cross-check both directions of the ownership math.
                assert!(
                    p.owned_slot_range(d, t).contains(&slot),
                    "owner {d} does not list {slot}"
                );
            }
            t += step;
        }
        // Over one full ring, every disk owned the slot exactly once (a
        // window straddling the sample boundary may count its disk twice).
        let n = p.stripe().num_disks() as usize;
        assert!(
            owners_seen.len() == n || owners_seen.len() == n + 1,
            "expected ~{n} ownership windows, saw {}",
            owners_seen.len()
        );
        // The slot was owned for roughly num_disks × ownership_duration.
        let expect = p.ownership_duration().as_nanos() * u64::from(p.stripe().num_disks());
        let ratio = owned_ns as f64 / expect as f64;
        assert!((0.8..1.2).contains(&ratio), "owned fraction off: {ratio}");
    }

    #[test]
    fn ownership_precedes_slot_start_by_scheduling_lead() {
        let p = sosp();
        let slot = SlotId(42);
        // Find a time when disk 7 owns the slot; the slot's send time for
        // disk 7 must then be within [0, lead] in the future (ownership
        // opens `lead` before the pointer reaches the slot start).
        let mut t = SimTime::from_secs(300);
        let step = SimDuration::from_millis(1);
        let mut found = false;
        for _ in 0..60_000 {
            if p.owner_of_slot(slot, t) == Some(DiskId(7)) {
                let send = p.slot_send_time(DiskId(7), slot, t);
                let until = send - t;
                assert!(until <= p.scheduling_lead(), "send due {until} away");
                found = true;
                break;
            }
            t += step;
        }
        assert!(found, "disk 7 never owned the slot in one ring period");
    }

    #[test]
    fn time_to_next_ownership_is_bounded_by_service_time() {
        let p = sosp();
        let t = SimTime::from_millis(777);
        let dt = p.time_to_next_ownership(DiskId(3), t);
        assert!(dt <= p.block_service_time() + SimDuration::from_nanos(1));
        // After waiting, a window is indeed open.
        let t2 = t + dt;
        assert!(!p.owned_slot_range(DiskId(3), t2).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot sustain")]
    fn impossible_hardware_rejected() {
        ScheduleParams::derive(
            StripeConfig::new(2, 1, 1),
            SimDuration::from_secs(1),
            ByteSize::from_bytes(250_000),
            SimDuration::from_secs(2), // disk slower than one block per bpt
            Bandwidth::from_mbit_per_sec(135),
        );
    }
}
