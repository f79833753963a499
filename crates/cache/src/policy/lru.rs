//! True least-recently-used replacement.

use crate::config::CacheGeometry;
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::tags::{rank_oldest, rank_touch};

/// Least-recently-used replacement over each set's rank row.
///
/// Every hit and fill moves the way to rank 0 ([`rank_touch`]); the
/// victim is the way at the last rank ([`rank_oldest`]). The ranks live
/// in the set's policy row, so the policy itself holds no state.
///
/// # Examples
///
/// ```
/// use nucache_cache::{BasicCache, CacheGeometry, ReplacementPolicy, policy::Lru};
/// let geom = CacheGeometry::new(64 * 4, 4, 64); // one 4-way set
/// let cache = BasicCache::new(geom, Lru::new(&geom));
/// assert_eq!(cache.policy().name(), "lru");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru;

impl Lru {
    /// Creates LRU state for `geom`. LRU keeps nothing per cache; the
    /// geometry argument keeps every policy's constructor alike.
    pub fn new(_geom: &CacheGeometry) -> Self {
        Lru
    }
}

impl ReplacementPolicy for Lru {
    #[inline]
    fn on_hit(&mut self, _set: usize, way: usize, row: &mut [u8]) {
        rank_touch(row, way);
    }

    #[inline]
    fn on_fill(&mut self, _set: usize, way: usize, _ctx: &FillCtx, row: &mut [u8]) {
        rank_touch(row, way);
    }

    #[inline]
    fn victim(&mut self, _set: usize, row: &mut [u8]) -> usize {
        rank_oldest(row)
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::testutil::{one_set, touch};

    #[test]
    fn evicts_least_recently_used() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, Lru::new(&g));
        for n in 0..4 {
            assert!(!touch(&mut c, n));
        }
        // Touch 0 to make it MRU; line 1 is now LRU.
        assert!(touch(&mut c, 0));
        assert!(!touch(&mut c, 4)); // evicts 1
        assert!(touch(&mut c, 0));
        assert!(touch(&mut c, 2));
        assert!(touch(&mut c, 3));
        assert!(!touch(&mut c, 1), "line 1 should have been the victim");
    }

    #[test]
    fn lru_stack_property_on_loop() {
        // A cyclic loop over assoc+1 distinct lines yields zero hits under
        // true LRU (the classic thrash pattern).
        let g = one_set(4);
        let mut c = BasicCache::new(g, Lru::new(&g));
        let mut hits = 0;
        for _ in 0..10 {
            for n in 0..5 {
                if touch(&mut c, n) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn recency_rank_orders_ways() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, Lru::new(&g));
        for n in 0..4 {
            touch(&mut c, n);
        }
        // Fill order 0,1,2,3 -> way of line 3 is MRU (rank 0), way of 0 is rank 3.
        assert_eq!(c.array().policy_row(0), &[3, 2, 1, 0]);
    }

    #[test]
    fn invalidate_clears_recency() {
        let g = one_set(2);
        let mut c = BasicCache::new(g, Lru::new(&g));
        touch(&mut c, 0);
        touch(&mut c, 1);
        c.invalidate_line(nucache_common::LineAddr::new(1));
        // Refill: the invalidated way is reused first (invalid-way preference),
        // and line 0 must still be resident.
        assert!(!touch(&mut c, 2));
        assert!(touch(&mut c, 0));
    }
}
