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
pub mod event;
pub mod kv;
pub mod metrics;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use metrics::{BusyTracker, Counter, Histogram, Series, TimeWeightedMean};
pub use rng::{RngTree, SimRng};
pub use time::{Bandwidth, ByteSize, SimDuration, SimTime};

/// A `HashMap` with a fixed-key hasher: iteration order is a pure function
/// of the insertion history, so simulations that iterate maps (batching,
/// re-drives) stay deterministic *across processes*, not just within one.
pub type DetHashMap<K, V> = std::collections::HashMap<
    K,
    V,
    std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>,
>;

/// A `HashSet` with a fixed-key hasher (see [`DetHashMap`]).
pub type DetHashSet<K> = std::collections::HashSet<
    K,
    std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>,
>;
