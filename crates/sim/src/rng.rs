//! A deterministic tree of random-number streams, with an in-tree PRNG.
//!
//! Every stochastic element of the simulation (disk blips, network jitter,
//! client file selection, arrival processes) draws from its own stream,
//! derived from a single root seed and a label. This keeps experiments
//! replayable and — just as important — keeps streams independent: adding a
//! draw in one component cannot perturb the sequence seen by another.
//!
//! The generator itself is [`SimRng`], a splitmix64-seeded xoshiro256++
//! implemented here so the workspace builds with zero external
//! dependencies. The determinism contract — a run is a pure function of
//! `(TigerConfig, workload, seed)` — therefore extends all the way down:
//! no registry crate can change a stream out from under us.

/// A labelled fork point in the deterministic RNG tree.
///
/// `RngTree::fork("disk", 7)` always yields the same stream for the same
/// root seed, regardless of what any other component has drawn.
#[derive(Debug, Clone)]
pub struct RngTree {
    seed: u64,
}

impl RngTree {
    /// Creates a tree rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        RngTree { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent RNG stream for component `label` instance
    /// `index`.
    pub fn fork(&self, label: &str, index: u64) -> SimRng {
        SimRng::from_seed(derive(self.seed, label, index))
    }

    /// Derives a child tree, for components that themselves own several
    /// streams.
    pub fn subtree(&self, label: &str, index: u64) -> RngTree {
        RngTree {
            seed: derive(self.seed, label, index),
        }
    }
}

/// Mixes `(seed, label, index)` into a 64-bit stream seed using FNV-1a over
/// the label followed by a splitmix64 finalizer. Not cryptographic; just a
/// stable, well-spread derivation.
fn derive(seed: u64, label: &str, index: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ seed;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= index;
    h = h.wrapping_mul(FNV_PRIME);
    splitmix64(&mut h);
    h
}

/// Advances `x` by one splitmix64 step and returns the mixed output.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulation PRNG: xoshiro256++ (Blackman & Vigna), state expanded
/// from a 64-bit seed via splitmix64 — the seeding procedure the xoshiro
/// authors recommend, which guarantees a nonzero state for every seed.
///
/// Deliberately not cryptographic. It is fast, has a 2^256 − 1 period, and
/// passes BigCrush; what the simulation needs from it is *replayability*
/// and *stream independence* (see [`RngTree`]), both of which are covered
/// by tests below.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose state is expanded from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed;
        let s = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { s }
    }

    /// The next 64 uniformly random bits (one xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from `range`, which may be a half-open (`a..b`) or
    /// inclusive (`a..=b`) integer range, or a half-open `f64` range.
    ///
    /// Panics if the range is empty, matching the contract callers relied
    /// on from `rand`.
    #[inline]
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform integer in `[0, n)`, unbiased via Lemire's multiply-shift
    /// rejection method.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(n);
            let lo = m as u64;
            if lo < n {
                // Reject the biased low fringe: threshold = 2^64 mod n.
                let t = n.wrapping_neg() % n;
                if lo < t {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }
}

/// Ranges [`SimRng::gen_range`] can sample from.
pub trait UniformRange {
    /// The sampled value's type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl UniformRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range on empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + rng.below(span + 1) as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

impl UniformRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

/// Draws from an exponential distribution with the given mean, via inverse
/// CDF. Returns the sample in the same (float) units as the mean.
///
/// Provided here so all components use one well-tested implementation.
pub fn sample_exponential(rng: &mut SimRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    // Map the open interval (0, 1]; `gen_f64()` yields [0, 1), so invert.
    let u: f64 = 1.0 - rng.gen_f64();
    -mean * u.ln()
}

/// Draws from a bounded Pareto-like heavy tail on `[1, cap]` with shape
/// `alpha`. Used for disk service-time "blips": most draws are near 1, rare
/// draws are large multipliers.
pub fn sample_bounded_pareto(rng: &mut SimRng, alpha: f64, cap: f64) -> f64 {
    debug_assert!(alpha > 0.0 && cap > 1.0);
    let u: f64 = rng.gen_f64().clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON);
    // Inverse CDF of a Pareto truncated at `cap`.
    let l = 1.0f64;
    let h = cap;
    let la = l.powf(alpha);
    let ha = h.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let tree = RngTree::new(42);
        let a: Vec<u64> = {
            let mut r = tree.fork("disk", 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = tree.fork("disk", 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let tree = RngTree::new(42);
        let a = tree.fork("disk", 0).next_u64();
        let b = tree.fork("net", 0).next_u64();
        let c = tree.fork("disk", 1).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn subtree_is_stable() {
        let t1 = RngTree::new(7).subtree("cub", 2);
        let t2 = RngTree::new(7).subtree("cub", 2);
        assert_eq!(t1.fork("x", 0).next_u64(), t2.fork("x", 0).next_u64());
    }

    #[test]
    fn forked_streams_are_independent() {
        // The RngTree contract: forking "disk" vs "net" yields streams
        // that never correlate. Checked two ways: no positionwise u64
        // collision over a long prefix, and a Pearson correlation of the
        // uniform draws statistically indistinguishable from zero.
        let tree = RngTree::new(1997);
        let mut a = tree.fork("disk", 0);
        let mut b = tree.fork("net", 0);
        let n = 8192;
        let xs: Vec<f64> = (0..n).map(|_| a.gen_f64()).collect();
        let ys: Vec<f64> = (0..n).map(|_| b.gen_f64()).collect();
        let collisions = xs.iter().zip(&ys).filter(|(x, y)| x == y).count();
        assert_eq!(collisions, 0, "positionwise collisions between streams");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = (mean(&xs), mean(&ys));
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        let r = cov / (vx.sqrt() * vy.sqrt());
        // For n = 8192 independent pairs, |r| < 4/sqrt(n) ≈ 0.044 with
        // overwhelming probability.
        assert!(r.abs() < 0.05, "streams correlate: r = {r}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = RngTree::new(5).fork("range", 0);
        for _ in 0..10_000 {
            let x = r.gen_range(10u64..30);
            assert!((10..30).contains(&x));
            let y = r.gen_range(0u64..=7);
            assert!(y <= 7);
            let z = r.gen_range(0.7..1.3);
            assert!((0.7..1.3).contains(&z));
            let w = r.gen_range(0usize..3);
            assert!(w < 3);
        }
    }

    #[test]
    fn gen_range_covers_small_ranges_uniformly() {
        let mut r = RngTree::new(6).fork("uniform", 0);
        let n = 40_000;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[r.gen_range(0usize..8)] += 1;
        }
        let expected = n / 8;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected as f64).abs() / expected as f64;
            assert!(dev < 0.1, "bucket {i} off by {dev:.3}: {counts:?}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut r = RngTree::new(8).fork("bool", 0);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "gen_bool(0.3) hit rate {frac}");
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut r = RngTree::new(9).fork("f64", 0);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = RngTree::new(1).fork("exp", 0);
        let n = 20_000;
        let mean = 5.0;
        let total: f64 = (0..n).map(|_| sample_exponential(&mut r, mean)).sum();
        let sample_mean = total / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.2,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn bounded_pareto_within_bounds() {
        let mut r = RngTree::new(1).fork("pareto", 0);
        for _ in 0..10_000 {
            let x = sample_bounded_pareto(&mut r, 1.5, 50.0);
            assert!((1.0..=50.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn bounded_pareto_is_mostly_small() {
        let mut r = RngTree::new(2).fork("pareto", 0);
        let n = 10_000;
        let big = (0..n)
            .filter(|_| sample_bounded_pareto(&mut r, 1.5, 50.0) > 10.0)
            .count();
        // Heavy tail, but the bulk of mass stays near 1.
        assert!(big < n / 20, "{big} of {n} samples exceeded 10x");
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256++ from the all-distinct small state
        // [1, 2, 3, 4], cross-checked against the reference C
        // implementation's algebra: result = rotl(s0 + s3, 23) + s0.
        let mut r = SimRng { s: [1, 2, 3, 4] };
        let first = r.next_u64();
        assert_eq!(first, (1u64 + 4).rotate_left(23).wrapping_add(1));
        // The state must have advanced (not a fixed point).
        assert_ne!(r.s, [1, 2, 3, 4]);
    }

    #[test]
    fn seeding_never_yields_all_zero_state() {
        for seed in [0u64, 1, u64::MAX, 0xdead_beef] {
            let r = SimRng::from_seed(seed);
            assert_ne!(r.s, [0, 0, 0, 0], "zero state for seed {seed}");
        }
    }
}
