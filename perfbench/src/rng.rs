//! The benchmark's own random source for its inputs. Kept apart from
//! the workspace RNG so a change to the program cannot change what the
//! benchmark feeds it.

/// SplitMix64 finaliser: a bijection on `u64`, so distinct inputs give
/// distinct, well-mixed keys.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `label` separates streams of one seed.
    pub fn new(seed: u64, label: u64) -> Self {
        Rng(mix(seed ^ mix(label)))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`), by multiply-shift.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf distribution over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `i` has weight `1 / (i + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}
