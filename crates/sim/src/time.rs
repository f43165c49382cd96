//! Simulated time, durations, byte sizes, and bandwidths.
//!
//! All schedule math in the Tiger reproduction is exact integer arithmetic on
//! nanoseconds. The paper's block-service-time rounding rule (§3.1: "If not,
//! the block service time is lengthened enough to make it so") only works if
//! time values divide exactly, which floating point cannot guarantee.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// Nanoseconds per second, as a `u64`.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per millisecond, as a `u64`.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond, as a `u64`.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from whole milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The duration since an earlier instant.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, which
    /// makes lead-time computations robust against slight reordering.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The exact duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier > self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "since() given a later instant");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating subtraction of a duration (clamps at the epoch).
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span; useful as an "infinite timeout".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large for a `u64`
    /// nanosecond count.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(
            nanos <= u64::MAX as f64,
            "duration overflows u64 nanoseconds"
        );
        SimDuration(nanos.round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer with `u128` intermediate precision.
    ///
    /// # Panics
    ///
    /// Panics if the result overflows a `u64` nanosecond count.
    pub fn mul_u64(self, k: u64) -> SimDuration {
        let wide = self.0 as u128 * k as u128;
        assert!(wide <= u64::MAX as u128, "duration overflow");
        SimDuration(wide as u64)
    }

    /// Divides by an integer, truncating toward zero.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn div_u64(self, k: u64) -> SimDuration {
        assert!(k != 0, "division by zero");
        SimDuration(self.0 / k)
    }

    /// Divides by an integer, rounding the quotient *up*.
    ///
    /// This implements the §3.1 lengthening rule: when a schedule must hold
    /// an integral number of slots, the block service time is rounded up so
    /// that `slots * service_time >= schedule_length`.
    pub fn div_u64_ceil(self, k: u64) -> SimDuration {
        assert!(k != 0, "division by zero");
        SimDuration(self.0.div_ceil(k))
    }

    /// How many whole `other` spans fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(other.0 != 0, "division by zero duration");
        self.0 / other.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        self.mul_u64(k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        self.div_u64(k)
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    fn rem(self, other: SimDuration) -> SimDuration {
        assert!(other.0 != 0, "modulo by zero duration");
        SimDuration(self.0 % other.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A count of bytes, used for block sizes and message sizes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from binary megabytes (1 MiB = 1024 KiB).
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Integer division, truncating.
    pub fn div_u64(self, k: u64) -> ByteSize {
        assert!(k != 0, "division by zero");
        ByteSize(self.0 / k)
    }

    /// Integer division, rounding up. Used to split a block into
    /// `decluster` mirror pieces without losing the remainder.
    pub fn div_u64_ceil(self, k: u64) -> ByteSize {
        assert!(k != 0, "division by zero");
        ByteSize(self.0.div_ceil(k))
    }

    /// Multiplies by an integer.
    pub fn mul_u64(self, k: u64) -> ByteSize {
        ByteSize(self.0.checked_mul(k).expect("ByteSize overflow"))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(other.0).expect("ByteSize overflow"))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, other: ByteSize) {
        *self = *self + other;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(other.0).expect("negative ByteSize"))
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.1}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A data rate in bits per second.
///
/// Stream bitrates (2 Mbit/s in the SOSP configuration), NIC capacities
/// (OC-3 ≈ 155 Mbit/s), and disk media rates are all expressed as
/// `Bandwidth`. Conversions to transmit times use `u128` intermediates so
/// that no precision is lost for realistic sizes and rates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth from bits per second.
    pub const fn from_bits_per_sec(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a bandwidth from megabits per second (10^6 bits).
    pub const fn from_mbit_per_sec(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Creates a bandwidth from bytes per second.
    pub const fn from_bytes_per_sec(byps: u64) -> Self {
        Bandwidth(byps * 8)
    }

    /// Raw bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.0
    }

    /// Megabits per second, as a float (for reporting only).
    pub fn as_mbit_per_sec_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if the bandwidth is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time required to move `size` at this rate, rounded up to the
    /// next nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn time_to_move(self, size: ByteSize) -> SimDuration {
        assert!(self.0 != 0, "cannot move data at zero bandwidth");
        let bits = size.as_bytes() as u128 * 8;
        let nanos = (bits * NANOS_PER_SEC as u128).div_ceil(self.0 as u128);
        assert!(nanos <= u64::MAX as u128, "transmit time overflow");
        SimDuration::from_nanos(nanos as u64)
    }

    /// The number of bytes moved in `d` at this rate, truncating.
    pub fn bytes_in(self, d: SimDuration) -> ByteSize {
        let bits = self.0 as u128 * d.as_nanos() as u128 / NANOS_PER_SEC as u128;
        ByteSize::from_bytes((bits / 8) as u64)
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_add(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Bandwidth) -> Option<Bandwidth> {
        self.0.checked_sub(other.0).map(Bandwidth)
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_add(other.0).expect("Bandwidth overflow"))
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, other: Bandwidth) {
        *self = *self + other;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.checked_sub(other.0).expect("negative Bandwidth"))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Mbit/s", self.as_mbit_per_sec_f64())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(250);
        assert_eq!(t.as_nanos(), 3_250_000_000);
        assert_eq!(t - SimTime::from_secs(3), SimDuration::from_millis(250));
        assert_eq!(
            t.saturating_since(SimTime::from_secs(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_div_ceil_implements_lengthening_rule() {
        // A 10-second schedule divided into 3 slots lengthens each slot so
        // that 3 slots cover at least the whole schedule.
        let sched = SimDuration::from_secs(10);
        let slot = sched.div_u64_ceil(3);
        assert!(slot.mul_u64(3) >= sched);
        assert!(slot.mul_u64(3) - sched < slot);
    }

    #[test]
    fn bandwidth_transmit_times() {
        // 0.25 MB at 2 Mbit/s is exactly 1.048576 s (binary MB, decimal Mbit):
        // 262144 bytes * 8 bits = 2097152 bits / 2e6 bits/s.
        let bw = Bandwidth::from_mbit_per_sec(2);
        let block = ByteSize::from_mib(1).div_u64(4);
        let t = bw.time_to_move(block);
        assert_eq!(t.as_nanos(), 1_048_576_000);
        // Inverse direction loses at most a byte to truncation.
        let back = bw.bytes_in(t);
        assert!(block.as_bytes() - back.as_bytes() <= 1);
    }

    #[test]
    fn bandwidth_zero_move_panics() {
        let r = std::panic::catch_unwind(|| Bandwidth::ZERO.time_to_move(ByteSize::from_bytes(1)));
        assert!(r.is_err());
    }

    #[test]
    fn bytesize_ceil_split_covers_block() {
        // Splitting a block into `d` mirror pieces of ceil size never loses
        // bytes: d * ceil(size/d) >= size.
        for d in 1..10 {
            let block = ByteSize::from_bytes(262_144 + 7);
            let piece = block.div_u64_ceil(d);
            assert!(piece.mul_u64(d).as_bytes() >= block.as_bytes());
        }
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(format!("{}", SimDuration::from_millis(93)), "93.000ms");
        assert_eq!(format!("{}", ByteSize::from_mib(1).div_u64(4)), "256.0KiB");
        assert_eq!(
            format!("{}", Bandwidth::from_mbit_per_sec(2)),
            "2.000Mbit/s"
        );
    }
}
