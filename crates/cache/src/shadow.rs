//! Sampled shadow tag directories and UCP's UMON utility monitor.
//!
//! A shadow (auxiliary) tag directory tracks what a cache *would* contain
//! if one core had it all to itself under LRU. UMON adds per-recency-rank
//! hit counters, which yield the core's utility curve: how many extra hits
//! each additional way would capture. UCP's lookahead partitioning
//! consumes those curves.
//!
//! Keeping a full shadow directory per core is expensive; the standard
//! remedy — implemented here — is *dynamic set sampling*: only every
//! `sample_shift`-th set is tracked, and counts are scaled up by the
//! sampling factor when read.

use crate::array::SetArray;
use crate::config::CacheGeometry;
use crate::meta::LineMeta;
use nucache_common::tags::{rank_oldest, rank_touch};
use nucache_common::{CoreId, LineAddr, Pc};

/// Set-sampling shift of the UCP and PIPP UMONs (1 set in 32); Tables 1
/// and 4 read it too.
pub const DEFAULT_UMON_SHIFT: u32 = 5;

/// A set-sampled, fully-LRU shadow tag directory with per-rank hit
/// counters (UMON-DSS).
///
/// The directory is a [`SetArray`] with one set per sampled set, whose
/// policy rows hold the LRU ranks. A shadow never invalidates, so a
/// valid way's rank is the number of valid ways touched after it: a
/// hit's stack position is its rank byte.
///
/// # Examples
///
/// ```
/// use nucache_cache::shadow::UtilityMonitor;
/// use nucache_cache::CacheGeometry;
/// use nucache_common::LineAddr;
///
/// let geom = CacheGeometry::new(64 * 16 * 256, 16, 64);
/// let mut umon = UtilityMonitor::new(&geom, 0); // sample every set
/// umon.observe(LineAddr::new(3));
/// umon.observe(LineAddr::new(3));
/// assert_eq!(umon.hits_at_rank()[0], 1);
/// ```
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    set_bits: u32,
    sample_shift: u32,
    /// The shadow directory, indexed by sampled set; tags are the
    /// monitored cache's.
    shadow: SetArray,
    hits_at_rank: Vec<u64>,
    misses: u64,
    accesses: u64,
}

impl UtilityMonitor {
    /// Creates a monitor for caches shaped like `geom`, sampling one set
    /// in `2^sample_shift`.
    ///
    /// # Panics
    ///
    /// Panics if the sampling leaves no sets.
    pub fn new(geom: &CacheGeometry, sample_shift: u32) -> Self {
        let sampled_sets = geom.num_sets() >> sample_shift;
        assert!(sampled_sets > 0, "sampling eliminates every set");
        let assoc = geom.associativity();
        let block = geom.block_bytes();
        let size = sampled_sets as u64 * assoc as u64 * u64::from(block);
        UtilityMonitor {
            set_bits: geom.set_bits(),
            sample_shift,
            shadow: SetArray::new(CacheGeometry::new(size, assoc, block)),
            hits_at_rank: vec![0; assoc],
            misses: 0,
            accesses: 0,
        }
    }

    /// The sampling factor (counts scale by this when read).
    fn scale(&self) -> u64 {
        1 << self.sample_shift
    }

    #[inline]
    fn sampled_index(&self, line: LineAddr) -> Option<usize> {
        let set = line.set_index(self.set_bits);
        if set & ((1usize << self.sample_shift) - 1) != 0 {
            return None;
        }
        Some(set >> self.sample_shift)
    }

    /// Feeds one access from the owning core.
    ///
    /// Returns the LRU rank the access hit at (`None` on a shadow miss
    /// or an unsampled set). The sampled-set test inlines into the
    /// caller; only the sampled accesses call into the directory.
    #[inline]
    pub fn observe(&mut self, line: LineAddr) -> Option<usize> {
        let sset = self.sampled_index(line)?;
        self.observe_sampled(sset, line)
    }

    #[inline(never)]
    fn observe_sampled(&mut self, sset: usize, line: LineAddr) -> Option<usize> {
        self.accesses += 1;
        let tag = line.tag(self.set_bits);
        if let Some(way) = self.shadow.find(sset, tag) {
            let ranks = self.shadow.policy_row_mut(sset);
            let rank = usize::from(ranks[way]);
            rank_touch(ranks, way);
            self.hits_at_rank[rank] += 1;
            return Some(rank);
        }
        self.misses += 1;
        // Fill: the first invalid frame, else the LRU one.
        let way = match self.shadow.invalid_way(sset) {
            Some(w) => w,
            None => rank_oldest(self.shadow.policy_row(sset)),
        };
        self.shadow.fill(sset, way, LineMeta::new(tag, CoreId::new(0), Pc::new(0), false));
        rank_touch(self.shadow.policy_row_mut(sset), way);
        None
    }

    /// Hits observed at each LRU rank (rank 0 = MRU), unscaled.
    pub fn hits_at_rank(&self) -> &[u64] {
        &self.hits_at_rank
    }

    /// Shadow misses observed, unscaled.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses observed in sampled sets, unscaled.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Utility curve: `curve[w]` estimates total hits (scaled) this core
    /// would get with `w` ways. `curve[0] = 0`; the curve is
    /// non-decreasing.
    pub fn utility_curve(&self) -> Vec<u64> {
        let mut curve = Vec::with_capacity(self.hits_at_rank.len() + 1);
        curve.push(0);
        let mut acc = 0u64;
        for &h in &self.hits_at_rank {
            acc += h * self.scale();
            curve.push(acc);
        }
        curve
    }

    /// Halves all counters (epoch decay).
    pub fn decay(&mut self) {
        self.hits_at_rank.iter_mut().for_each(|h| *h /= 2);
        self.misses /= 2;
        self.accesses /= 2;
    }
}

#[cfg(test)]
impl UtilityMonitor {
    /// Clears counters (contents retained).
    fn reset_counters(&mut self) {
        self.hits_at_rank.iter_mut().for_each(|h| *h = 0);
        self.misses = 0;
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(sets: u64, assoc: usize) -> CacheGeometry {
        CacheGeometry::new(64 * assoc as u64 * sets, assoc, 64)
    }

    #[test]
    fn rank_zero_for_immediate_reuse() {
        let g = geom(4, 4);
        let mut m = UtilityMonitor::new(&g, 0);
        assert_eq!(m.observe(LineAddr::new(0)), None);
        assert_eq!(m.observe(LineAddr::new(0)), Some(0));
    }

    #[test]
    fn ranks_reflect_stack_depth() {
        let g = geom(1, 4);
        let mut m = UtilityMonitor::new(&g, 0);
        for n in 0..4 {
            m.observe(LineAddr::new(n));
        }
        // Line 0 is now at rank 3.
        assert_eq!(m.observe(LineAddr::new(0)), Some(3));
        // Line 1 slipped to rank 3 after 0's promotion? No: ranks after
        // promotion of 0: [0,3,2,1] -> line 1 sits at rank 3.
        assert_eq!(m.observe(LineAddr::new(1)), Some(3));
    }

    #[test]
    fn utility_curve_monotone_and_scaled() {
        let g = geom(4, 2);
        let mut m = UtilityMonitor::new(&g, 1); // sample half the sets
        for _ in 0..10 {
            m.observe(LineAddr::new(0)); // set 0: sampled
            m.observe(LineAddr::new(1)); // set 1: not sampled
        }
        let curve = m.utility_curve();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0], 0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        // 9 rank-0 hits, scaled by 2.
        assert_eq!(curve[1], 18);
    }

    #[test]
    fn unsampled_sets_ignored() {
        let g = geom(4, 2);
        let mut m = UtilityMonitor::new(&g, 2); // only set 0 sampled
        assert_eq!(m.observe(LineAddr::new(1)), None);
        assert_eq!(m.observe(LineAddr::new(1)), None);
        assert_eq!(m.accesses(), 0, "set 1 accesses must not be recorded");
        m.observe(LineAddr::new(0));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn shadow_thrash_yields_no_hits() {
        let g = geom(1, 2);
        let mut m = UtilityMonitor::new(&g, 0);
        for _ in 0..10 {
            for n in 0..3 {
                m.observe(LineAddr::new(n));
            }
        }
        assert_eq!(m.utility_curve()[2], 0, "loop of 3 over 2 ways: zero shadow hits");
        assert!(m.misses() >= 29);
    }

    #[test]
    fn decay_and_reset() {
        let g = geom(1, 2);
        let mut m = UtilityMonitor::new(&g, 0);
        m.observe(LineAddr::new(0));
        m.observe(LineAddr::new(0));
        m.decay();
        assert_eq!(m.accesses(), 1);
        m.reset_counters();
        assert_eq!(m.hits_at_rank().iter().sum::<u64>(), 0);
    }
}
