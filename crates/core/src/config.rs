//! System configuration.

use tiger_disk::DiskProfile;
use tiger_layout::{RedundancyMode, StripeConfig};
use tiger_net::LatencyModel;
use tiger_sched::ScheduleParams;
use tiger_sim::{Bandwidth, ByteSize, SimDuration};

/// How many successors receive each forwarded viewer state.
///
/// The paper chose double forwarding and explains why (§4.1.1); single
/// forwarding is implemented for the ablation that demonstrates the
/// schedule-information loss it causes during the failure-detection window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardingPolicy {
    /// Forward to the successor only ("would have halved the number of
    /// viewer states sent between cubs" — and loses data on failure).
    Single,
    /// Forward to the successor and the second successor (the paper's
    /// choice).
    Double,
}

/// Full configuration of a Tiger system.
#[derive(Clone, Debug)]
pub struct TigerConfig {
    /// Striping dimensions and decluster factor.
    pub stripe: StripeConfig,
    /// The block play time (1 s in the SOSP testbed).
    pub block_play_time: SimDuration,
    /// The system maximum stream bitrate (2 Mbit/s in the testbed).
    pub max_bitrate: Bandwidth,
    /// Disk model parameters.
    pub disk: DiskProfile,
    /// Per-machine NIC capacity (OC-3 payload ≈ 135 Mbit/s).
    pub nic_capacity: Bandwidth,
    /// Control-message latency model.
    pub latency: LatencyModel,
    /// Minimum viewer-state lead (§4.1.1; 4 s typical).
    pub min_vstate_lead: SimDuration,
    /// Maximum viewer-state lead (§4.1.1; 9 s typical).
    pub max_vstate_lead: SimDuration,
    /// How long deschedules are held after their slot passes ("at least a
    /// few seconds").
    pub deschedule_hold: SimDuration,
    /// Scheduling lead: how far before a slot's start its disk read is
    /// issued and its ownership window opens.
    pub scheduling_lead: SimDuration,
    /// Ownership window duration ("small relative to the block play time").
    pub ownership_duration: SimDuration,
    /// Interval between deadman heartbeats.
    pub deadman_interval: SimDuration,
    /// Silence threshold after which a cub declares its predecessor dead.
    pub deadman_timeout: SimDuration,
    /// Interval between viewer-state forwarding passes (batching).
    pub forward_interval: SimDuration,
    /// Forwarding redundancy.
    pub forwarding: ForwardingPolicy,
    /// Whether cubs retain recently serviced records and "go back, figure
    /// out what schedule information had been lost and recreate it" after
    /// a failure (§2.3 gap bridging / §4.1.1's description of what single
    /// forwarding would force every failure to do). On by default; the
    /// forwarding ablation turns it off to reproduce the paper's argument.
    pub gap_recovery: bool,
    /// Whether a rejoining cub's ring predecessor replays its retired-log
    /// tail (advanced to the next due positions) the moment it sees the
    /// rejoin request, so the rejoiner reconstructs in-flight viewer
    /// state in sub-interval time instead of waiting up to one forward
    /// interval for natural circulation. On by default; the fast-rejoin
    /// chaos scenario turns it off to demonstrate the latency it buys.
    pub retired_replay: bool,
    /// Whether registered spares serve as interim mirror capacity before
    /// a restripe cut-over: on a failure declaration, the mirror pieces
    /// shadowing the failed cub's disks (the most-exposed decluster
    /// spans — one more holder failure loses them) are background-copied
    /// to a spare, which then serves them if that second failure lands.
    /// On by default; a no-op without provisioned spares.
    pub spare_shield: bool,
    /// Per-cub buffer cache (20 MB in the testbed; bounds read-ahead).
    pub buffer_cache: ByteSize,
    /// Number of client machines.
    pub num_clients: u32,
    /// Root RNG seed; a run is a pure function of (config, workload, seed).
    pub seed: u64,
    /// Reject start requests that would push schedule load above this
    /// fraction, if set (§5: "Tiger contains code to prevent schedule
    /// insertions beyond a certain level, which we disabled for this
    /// test").
    pub admission_limit: Option<f64>,
    /// Run a hot-standby backup controller (the paper's stated future
    /// work: "The Netshow product group plans on making the remaining
    /// functions of the controller fault tolerant"). The backup mirrors
    /// the controller's per-viewer state from the cubs' commit/finish
    /// notices and takes over `controller_failover_timeout` after the
    /// primary goes silent.
    pub backup_controller: bool,
    /// How long after the primary controller falls silent the backup
    /// promotes itself.
    pub controller_failover_timeout: SimDuration,
    /// Spare cubs built but not part of the stripe (§2.2 restriping: "the
    /// time to restripe a system does not depend on the size of the
    /// system"). Spares are powered machines with live disks that receive
    /// moved blocks during a live restripe and join the ring at cut-over.
    pub spare_cubs: u32,
    /// Which redundancy backend stores and serves each block's secondary
    /// data: the paper's declustered mirroring (the default — every
    /// existing experiment is byte-identical under it) or the
    /// `tiger-coded` network-coded backend, where a block is `2k` shards
    /// and any `k` reconstruct it.
    pub redundancy: RedundancyMode,
}

impl TigerConfig {
    /// The §5 testbed: 14 cubs × 4 disks, 2 Mbit/s streams, 0.25 MB blocks,
    /// decluster 4, minVStateLead 4 s, maxVStateLead 9 s.
    pub fn sosp97() -> Self {
        TigerConfig {
            stripe: StripeConfig::new(14, 4, 4),
            block_play_time: SimDuration::from_secs(1),
            max_bitrate: Bandwidth::from_mbit_per_sec(2),
            disk: DiskProfile::sosp97(),
            nic_capacity: Bandwidth::from_mbit_per_sec(135),
            latency: LatencyModel::lan_default(),
            min_vstate_lead: SimDuration::from_secs(4),
            max_vstate_lead: SimDuration::from_secs(9),
            deschedule_hold: SimDuration::from_secs(3),
            scheduling_lead: SimDuration::from_millis(700),
            ownership_duration: SimDuration::from_millis(125),
            deadman_interval: SimDuration::from_millis(500),
            deadman_timeout: SimDuration::from_millis(5_000),
            forward_interval: SimDuration::from_millis(500),
            forwarding: ForwardingPolicy::Double,
            gap_recovery: true,
            retired_replay: true,
            spare_shield: true,
            buffer_cache: ByteSize::from_mib(20),
            num_clients: 31,
            seed: 1997,
            admission_limit: None,
            backup_controller: false,
            controller_failover_timeout: SimDuration::from_secs(3),
            spare_cubs: 0,
            redundancy: RedundancyMode::Mirrored,
        }
    }

    /// A small, fast configuration for unit and integration tests:
    /// 4 cubs × 1 disk, decluster 2, short leads.
    pub fn small_test() -> Self {
        TigerConfig {
            stripe: StripeConfig::new(4, 1, 2),
            num_clients: 4,
            min_vstate_lead: SimDuration::from_secs(2),
            max_vstate_lead: SimDuration::from_secs(3),
            deschedule_hold: SimDuration::from_secs(2),
            deadman_timeout: SimDuration::from_millis(2_000),
            ..Self::sosp97()
        }
    }

    /// The worst-case per-slot disk work implied by this configuration:
    /// under mirroring, one primary read plus the mirror-piece read that
    /// failed-mode service reserves (§3.1: "If a Tiger system is
    /// configured to be fault tolerant, the block service time is
    /// increased" — every configuration here is); under the coded
    /// backend, the `k` shard reads that assemble every block (degraded
    /// service costs no extra — it is the same `k` reads against fewer
    /// candidate holders).
    pub fn disk_worst_read(&self) -> SimDuration {
        match self.redundancy {
            RedundancyMode::Mirrored => {
                self.disk
                    .worst_case_read(self.block_size(), self.stripe.decluster, true)
            }
            RedundancyMode::Coded => self
                .disk
                .worst_case_coded_read(self.block_size(), self.stripe.decluster),
        }
    }

    /// The schedule parameters this configuration implies; re-derived at a
    /// restripe cut-over, when the stripe changes.
    pub fn schedule_params(&self) -> ScheduleParams {
        ScheduleParams::derive(
            self.stripe,
            self.block_play_time,
            self.block_size(),
            self.disk_worst_read(),
            self.nic_capacity,
        )
        .with_scheduling_lead(self.scheduling_lead)
        .with_ownership_duration(self.ownership_duration)
    }

    /// Total cub machines built: striped members plus spares. Node
    /// numbering uses this so client and backup-controller node ids never
    /// shift when spares join the stripe at a restripe cut-over.
    pub fn total_cubs(&self) -> u32 {
        self.stripe.num_cubs + self.spare_cubs
    }

    /// The (maximum) block size: max bitrate × block play time.
    pub fn block_size(&self) -> ByteSize {
        self.max_bitrate.bytes_in(self.block_play_time)
    }

    /// How many read-ahead blocks the buffer cache can hold.
    pub fn buffer_blocks(&self) -> u32 {
        (self.buffer_cache.as_bytes() / self.block_size().as_bytes().max(1)) as u32
    }

    /// Whether `maxVStateLead` fits in one lap of a schedule over
    /// `num_disks` disks (block play time × disks). Checked at build and
    /// for every restripe step: on the 4-cub small ring a 4.0 s lead runs
    /// clean, 4.1 s loses blocks and 4.5 s overcommits NICs.
    pub fn lead_fits(&self, num_disks: u32) -> bool {
        self.max_vstate_lead <= self.block_play_time.mul_u64(u64::from(num_disks))
    }

    /// Validates cross-field invariants the protocol depends on (the coded
    /// backend's geometry is checked where it is built, by
    /// `CodedPlacement::new`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates a protocol precondition.
    pub fn validate(&self) {
        assert!(
            self.latency.worst_case() < self.block_play_time,
            "§4.1.3: the block play time must exceed the worst inter-cub latency"
        );
        assert!(
            self.min_vstate_lead < self.max_vstate_lead,
            "minVStateLead must be below maxVStateLead"
        );
        assert!(
            self.lead_fits(self.stripe.num_disks()),
            "maxVStateLead must not exceed the schedule length (block play time x disks)"
        );
        assert!(
            self.scheduling_lead < self.min_vstate_lead,
            "§4.1.3: minVStateLead is always much larger than the scheduling lead"
        );
        assert!(
            self.ownership_duration < self.block_play_time,
            "ownership windows must not overlap between pointers"
        );
        assert!(
            self.deadman_timeout >= self.deadman_interval.mul_u64(2),
            "deadman timeout must allow at least two missed heartbeats"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sosp_config_is_valid() {
        let c = TigerConfig::sosp97();
        c.validate();
        assert_eq!(c.block_size().as_bytes(), 250_000);
        assert_eq!(c.buffer_blocks(), 83); // 20 MiB / 250 kB
    }

    #[test]
    fn small_config_is_valid() {
        TigerConfig::small_test().validate();
    }

    #[test]
    #[should_panic(expected = "worst inter-cub latency")]
    fn latency_above_bpt_rejected() {
        let mut c = TigerConfig::sosp97();
        c.latency = LatencyModel::fixed(SimDuration::from_secs(2));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "exceed the schedule length")]
    fn lead_past_the_schedule_rejected() {
        // The 4-cub ring's whole schedule is 4 s: a lead of exactly one
        // lap is legal, a 4.1 s one carries viewer states past it.
        let mut c = TigerConfig::small_test();
        c.max_vstate_lead = SimDuration::from_secs(4);
        c.validate();
        c.max_vstate_lead = SimDuration::from_millis(4_100);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "much larger than the scheduling lead")]
    fn lead_ordering_enforced() {
        let mut c = TigerConfig::sosp97();
        c.scheduling_lead = SimDuration::from_secs(5);
        c.validate();
    }
}
