//! Deterministic discrete-event simulation kernel for the Tiger reproduction.
//!
//! The Tiger paper's evaluation ran on a 14-machine ATM testbed. This crate
//! provides the substrate that replaces that testbed: a nanosecond-resolution
//! simulated clock, a deterministic event queue, a seedable RNG tree so that
//! every component draws from an independent but reproducible stream, and the
//! metrics primitives (busy trackers, time series, histograms) used to report
//! the quantities the paper measures (disk duty cycle, CPU load, control
//! traffic, startup latency).
//!
//! Determinism contract: a simulation driven by [`EventQueue`] is a pure
//! function of its inputs. Ties in event time are broken by insertion
//! sequence number, so iteration order never depends on queue internals.
//!
//! The whole substrate is dependency-free: the PRNG ([`SimRng`], a
//! splitmix64-seeded xoshiro256++) and the property-test harness
//! ([`check`]) live in this crate, so builds are replayable with an empty
//! cargo registry (`CARGO_NET_OFFLINE=1`).

pub mod check;
pub mod dense;
pub mod event;
pub mod kv;
pub mod metrics;
pub mod rng;
pub mod time;

pub use dense::{DenseLists, Tagged};
pub use event::EventQueue;
pub use metrics::{BusyTracker, Counter, Histogram, TimeWeightedMean};
pub use rng::{RngTree, SimRng};
pub use time::{Bandwidth, ByteSize, SimDuration, SimTime};

/// A `HashMap` with a fixed hasher, so a run is reproducible *across
/// processes*, not just within one. Its iteration order is deterministic
/// but arbitrary — it changes with the hasher, the insertion history and
/// the standard library — and **behaviour must not read it**: sort what
/// you iterate, or keep an ordered structure beside the map.
/// `scripts/ci.sh` holds the repository to that by re-running the golden
/// suites under `--cfg tiger_alt_hash`, which swaps the hasher's
/// multiplier and with it every map's order.
pub type DetHashMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<DetHasher>>;

/// A `HashSet` with a fixed hasher (see [`DetHashMap`]).
pub type DetHashSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<DetHasher>>;

/// The hasher behind [`DetHashMap`]: each word written is xored into the
/// state and the state multiplied by a fixed odd constant, the 128-bit
/// product folded to 64 by xoring its halves. The keys are the
/// simulator's own ids (slots, viewers, blocks, node pairs), never
/// outside input, so there is nobody to collide them on purpose and no
/// reason to pay SipHash on every block; the fold spreads consecutive ids
/// over both the low bits `HashMap` picks a bucket by and the top seven
/// it tags entries with.
#[derive(Clone, Copy, Debug)]
pub struct DetHasher(u64);

impl DetHasher {
    #[cfg(not(tiger_alt_hash))]
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
    /// Set by nothing but the order-independence step of `scripts/ci.sh`.
    #[cfg(tiger_alt_hash)]
    const MULTIPLIER: u64 = 0xd6e8_feb8_6659_fd93;

    #[inline]
    fn fold(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher(0x243f_6a88_85a3_08d3)
    }
}

impl std::hash::Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::assert_hash_spreads as assert_spreads;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn det_hasher_spreads_consecutive_integers() {
        assert_spreads("u64 0..65536", 0u64..65_536);
        assert_spreads("u32 0..65536", 0u32..65_536);
        assert_spreads(
            "(u32, u32) node pairs",
            (0u32..256).flat_map(|a| (0u32..256).map(move |b| (a, b))),
        );
    }

    #[test]
    fn det_hasher_tells_byte_strings_apart() {
        let build = BuildHasherDefault::<DetHasher>::default();
        let hashes: std::collections::BTreeSet<u64> = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "abcdefgh",
            "abcdefghi",
            "abcdefgh\0",
        ]
        .iter()
        .map(|s| build.hash_one(s))
        .collect();
        assert_eq!(hashes.len(), 8);
    }
}
