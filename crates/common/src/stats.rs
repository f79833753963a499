//! Counter bundles and ratio helpers shared across cache levels.

use core::fmt;

/// Hit/miss/eviction counters for one cache (or one region of a cache).
///
/// # Examples
///
/// ```
/// use nucache_common::CacheStats;
/// let mut s = CacheStats::default();
/// s.record_hit();
/// s.record_miss();
/// assert_eq!(s.accesses(), 2);
/// assert!((s.hit_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines evicted (clean or dirty).
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Increments the hit counter.
    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Increments the miss counter.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Increments eviction (and, if `dirty`, writeback) counters.
    pub fn record_eviction(&mut self, dirty: bool) {
        self.evictions += 1;
        if dirty {
            self.writebacks += 1;
        }
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0,1]`; 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.accesses())
    }

    /// Misses per kilo-instruction given an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Component-wise sum of two counter bundles.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            writebacks: self.writebacks + other.writebacks,
        }
    }

    /// Resets all counters to zero.
    pub fn clear(&mut self) {
        *self = CacheStats::default();
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} ({:.2}% hit) evictions={} writebacks={}",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.evictions,
            self.writebacks
        )
    }
}

/// `num / den` as `f64`, 0 when the denominator is 0.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Geometric mean of a slice of positive values; 0 if empty or any value
/// is non-positive.
///
/// Gated out of `no_std` builds: `f64::ln`/`exp` live in std, and the
/// reporting paths that aggregate speedups always run hosted.
#[cfg(any(feature = "std", test))]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0 if empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Harmonic mean of positive values; 0 if empty or any value non-positive.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_zero_on_empty() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::default();
        s.record_hit();
        s.record_miss();
        s.record_miss();
        s.record_eviction(true);
        s.record_eviction(false);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn mpki_scales() {
        let s = CacheStats { misses: 50, ..CacheStats::default() };
        assert!((s.mpki(10_000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_componentwise() {
        let a = CacheStats { hits: 1, misses: 2, evictions: 3, writebacks: 4 };
        let b = CacheStats { hits: 10, misses: 20, evictions: 30, writebacks: 40 };
        let m = a.merged(&b);
        assert_eq!(m, CacheStats { hits: 11, misses: 22, evictions: 33, writebacks: 44 });
    }

    #[test]
    fn means_behave() {
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_hits() {
        let s = CacheStats { hits: 5, ..CacheStats::default() };
        assert!(format!("{s}").contains("hits=5"));
    }
}
