//! Deterministic random-number generation.
//!
//! Every stochastic component of the reproduction (workload generators,
//! random replacement, BIP coin flips, PIPP promotion probability) draws
//! from a [`DetRng`] seeded explicitly, so a simulation config plus its
//! seeds fully determines the output bit-for-bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded RNG with helpers for deriving independent substreams.
///
/// # Examples
///
/// ```
/// use nucache_common::DetRng;
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent substream from a parent seed and a stream
    /// label. Distinct labels give statistically independent streams;
    /// identical (seed, label) pairs give identical streams.
    pub fn substream(seed: u64, label: u64) -> Self {
        // SplitMix64-style mixing keeps nearby labels uncorrelated.
        DetRng::seed(mix64(seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.random_range(0..bound)
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        self.inner.random_range(0..bound)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.random_bool(p.clamp(0.0, 1.0))
    }

    /// Uniform `f64` in `[0,1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.random()
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniform draw from a precomputed [`FastRange`] — bit-identical to
    /// [`DetRng::below`] with the same bound, but without the per-draw hardware division. Hot loops that
    /// draw from a fixed range repeatedly (trace generation) precompute
    /// the range once and use this.
    #[inline]
    pub fn draw(&mut self, range: &FastRange) -> u64 {
        range.lo + range.reduce(self.next_u64())
    }
}

/// The SplitMix64 finalizer: a cheap bijective avalanche over `u64`.
///
/// Every output bit depends on every input bit, so sequential or
/// low-entropy inputs (keys, labels, counters) spread uniformly over the
/// full range. [`DetRng::substream`] uses it to decorrelate stream
/// labels; the concurrent cache front-end uses it to pick a shard from a
/// key whose low bits also index the kernel's set array (without the
/// mix, shard choice and set index would correlate and skew occupancy).
#[inline]
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform integer range with a precomputed Granlund–Montgomery
/// reciprocal, so repeated draws replace the `x % span` hardware divide
/// with a widening multiply plus one conditional subtract.
///
/// The reduction is exact — `reduce(x) == x % span` for every `x` — so
/// [`DetRng::draw`] consumes and produces the very same values as the
/// division-based helper [`DetRng::below`] and can replace it without
/// perturbing any stream.
///
/// # Examples
///
/// ```
/// use nucache_common::{DetRng, FastRange};
/// let mut a = DetRng::seed(7);
/// let mut b = DetRng::seed(7);
/// let bound = FastRange::below(8);
/// for _ in 0..100 {
///     assert_eq!(a.draw(&bound), b.below(8));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FastRange {
    lo: u64,
    /// Number of representable values; 0 encodes the full 2^64 span.
    span: u64,
    /// `floor(2^64 / span)`; 0 when `span` is a power of two (mask path).
    magic: u64,
}

impl FastRange {
    /// Range `[0, bound)`, matching [`DetRng::below`].
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    pub fn below(bound: u64) -> Self {
        assert!(bound > 0, "bound must be positive");
        Self::inclusive(0, bound - 1)
    }

    /// Range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn inclusive(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty range");
        let Some(span) = (hi - lo).checked_add(1) else {
            return FastRange { lo, span: 0, magic: 0 };
        };
        // For non-powers of two, floor((2^64-1)/span) == floor(2^64/span)
        // (span would have to divide 2^64, i.e. be a power of two).
        let magic = if span.is_power_of_two() { 0 } else { u64::MAX / span };
        FastRange { lo, span, magic }
    }

    /// Exact `x % span` via the precomputed reciprocal.
    ///
    /// With `m = floor(2^64/span)`, `q = (x*m) >> 64` satisfies
    /// `q ∈ {x/span - 1, x/span}`, so `x - q*span < 2*span` and a single
    /// conditional subtract recovers the exact remainder.
    ///
    /// Public because it doubles as a division-free hash-to-bucket
    /// reduction: `FastRange::below(n).reduce(mix64(key))` maps a key
    /// uniformly onto `n` buckets (the concurrent front-end's shard
    /// routing) with the same two-instruction cost as the RNG path.
    #[inline]
    #[must_use]
    pub fn reduce(&self, x: u64) -> u64 {
        if self.magic == 0 {
            // Power-of-two span (mask) or full-range (span == 0: the
            // wrapping sub makes the mask u64::MAX, i.e. `x` unchanged).
            return x & self.span.wrapping_sub(1);
        }
        let q = ((x as u128 * self.magic as u128) >> 64) as u64;
        let r = x - q * self.span;
        if r >= self.span {
            r - self.span
        } else {
            r
        }
    }
}

#[cfg(test)]
impl DetRng {
    /// Samples a geometric-ish gap: uniform in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        self.inner.random_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec::Vec;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = DetRng::substream(7, 0);
        let mut b = DetRng::substream(7, 1);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "substreams should be independent");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fast_range_matches_division_helpers() {
        // Identical streams: the reciprocal draw must consume and produce
        // exactly what the division-based helpers do, for pow2 and
        // non-pow2 spans alike.
        for bound in [1u64, 2, 3, 7, 10, 64, 1000, 1 << 33, u64::MAX] {
            let mut a = DetRng::seed(41);
            let mut b = DetRng::seed(41);
            let fast = FastRange::below(bound);
            for _ in 0..200 {
                assert_eq!(a.draw(&fast), b.below(bound), "bound {bound}");
            }
        }
        for (lo, hi) in [(0u64, 0u64), (2, 4), (2, 9), (5, 5), (100, 1 << 40), (0, u64::MAX)] {
            let mut a = DetRng::seed(17);
            let mut b = DetRng::seed(17);
            let fast = FastRange::inclusive(lo, hi);
            for _ in 0..200 {
                assert_eq!(a.draw(&fast), b.range_inclusive(lo, hi), "range {lo}..={hi}");
            }
        }
    }

    #[test]
    fn fast_range_reduce_is_exact_modulo() {
        for span in [3u64, 5, 6, 7, 9, 100, (1 << 20) - 1, u64::MAX - 1] {
            let f = FastRange::below(span);
            for x in [0u64, 1, span - 1, span, span + 1, u64::MAX / 2, u64::MAX] {
                assert_eq!(f.reduce(x), x % span, "x {x} span {span}");
            }
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = DetRng::seed(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..500 {
            match r.range_inclusive(1, 3) {
                1 => lo_seen = true,
                3 => hi_seen = true,
                2 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
