//! Which redundancy backend a system runs.
//!
//! The paper's Tiger has exactly one scheme — declustered mirroring
//! (§2.3, [`crate::mirror::MirrorPlacement`]) — where each degraded read
//! is pinned to the single disk holding the right mirror piece. A
//! network-coded backend (`tiger-coded`) places `2k` shards instead, any
//! `k` of which rebuild a block. Both cost the same storage, `2 ×
//! block_size` per block; `tiger-core`'s `Backend` is the one value that
//! answers, for the configured mode, every question on which the two
//! differ.

/// Which redundancy backend a Tiger system runs.
///
/// The mode is part of the system configuration (like the decluster
/// factor): every cub derives the same layout from it, nothing about it
/// is negotiated at run time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RedundancyMode {
    /// Declustered mirroring (paper §2.3): one full secondary copy, split
    /// into `decluster` pieces on the disks after the primary.
    #[default]
    Mirrored,
    /// Systematic MDS network coding (`tiger-coded`): the block becomes
    /// `2k` shards (`k = decluster`) of `ceil(block/k)` bytes, any `k` of
    /// which reconstruct it, spread over the `2k` disks starting at the
    /// home disk.
    Coded,
}

impl RedundancyMode {
    /// Stable lowercase name, used in reports and config dumps.
    pub fn name(self) -> &'static str {
        match self {
            RedundancyMode::Mirrored => "mirrored",
            RedundancyMode::Coded => "coded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(RedundancyMode::Mirrored.name(), "mirrored");
        assert_eq!(RedundancyMode::Coded.name(), "coded");
        assert_eq!(RedundancyMode::default(), RedundancyMode::Mirrored);
    }
}
