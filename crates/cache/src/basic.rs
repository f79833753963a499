//! A policy-driven set-associative cache.

use crate::array::SetArray;
use crate::config::CacheGeometry;
use crate::meta::{AccessOutcome, LineMeta};
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::{AccessKind, CacheStats, CoreId, LineAddr, Pc};

/// A set-associative cache whose replacement behaviour is supplied by a
/// [`ReplacementPolicy`], which keeps its per-way state in the policy
/// row of each [`SetArray`] set.
///
/// Wrapped in [`ClassicLlc`](crate::ClassicLlc), it is every policy-only
/// shared-LLC baseline (LRU, DIP, DRRIP, TADIP, …). With
/// [`Lru`](crate::policy::Lru) it is also the reference the private
/// levels of [`PrivateHierarchy`](crate::hierarchy::PrivateHierarchy)
/// are tested against.
///
/// Fills prefer invalid ways; the policy is consulted for a victim only
/// when the set is full. Misses allocate unconditionally (write-allocate),
/// and writes mark the line dirty.
///
/// # Examples
///
/// ```
/// use nucache_cache::{BasicCache, CacheGeometry, policy::Lru};
/// use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
///
/// let geom = CacheGeometry::new(256 * 1024, 8, 64);
/// let mut l2 = BasicCache::new(geom, Lru::new(&geom));
/// let out = l2.access(LineAddr::new(5), AccessKind::Write, CoreId::new(0), Pc::new(0));
/// assert!(out.is_miss());
/// assert_eq!(l2.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct BasicCache<P> {
    array: SetArray,
    policy: P,
    stats: CacheStats,
}

impl<P: ReplacementPolicy> BasicCache<P> {
    /// Creates an empty cache with the given geometry and policy.
    pub fn new(geom: CacheGeometry, policy: P) -> Self {
        BasicCache { array: SetArray::new(geom), policy, stats: CacheStats::default() }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.array.geometry()
    }

    /// Aggregate hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the counters (the contents stay).
    pub(crate) fn clear_stats(&mut self) {
        self.stats.clear();
    }

    /// The replacement policy (for policy-specific introspection).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The underlying tag array (read-only).
    pub fn array(&self) -> &SetArray {
        &self.array
    }

    /// Enables or disables the differential audit mirror on the tag array
    /// (see [`crate::audit`]).
    pub fn set_audit(&mut self, enabled: bool) {
        if enabled {
            self.array.enable_audit();
        } else {
            self.array.disable_audit();
        }
    }

    /// Performs one demand access, filling on a miss.
    #[inline]
    pub fn access(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        core: CoreId,
        pc: Pc,
    ) -> AccessOutcome {
        let geom = *self.array.geometry();
        let set = geom.set_of(line);
        let tag = geom.tag_of(line);
        if let Some(way) = self.array.find(set, tag) {
            self.stats.record_hit();
            self.policy.on_hit(set, way, self.array.policy_row_mut(set));
            if kind.is_write() {
                self.array.mark_dirty(set, way);
            }
            return AccessOutcome::Hit;
        }
        self.stats.record_miss();
        let ctx = FillCtx::new(core, pc);
        self.policy.on_miss(set, &ctx);
        let way = match self.array.invalid_way(set) {
            Some(w) => w,
            None => self.policy.victim(set, self.array.policy_row_mut(set)),
        };
        let evicted = self.array.fill(set, way, LineMeta::new(tag, core, pc, kind.is_write()));
        if let Some(ev) = evicted {
            self.stats.record_eviction(ev.dirty);
        }
        self.policy.on_fill(set, way, &ctx, self.array.policy_row_mut(set));
        AccessOutcome::Miss { evicted }
    }

    /// Looks a line up without touching replacement state or counters.
    pub fn probe(&self, line: LineAddr) -> bool {
        let geom = self.array.geometry();
        self.array.find(geom.set_of(line), geom.tag_of(line)).is_some()
    }

    /// Current number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.array.total_occupancy()
    }
}

#[cfg(test)]
impl<P: ReplacementPolicy> BasicCache<P> {
    /// Removes a line if present, returning whether it was dirty.
    pub(crate) fn invalidate_line(&mut self, line: LineAddr) -> Option<bool> {
        let geom = *self.array.geometry();
        let set = geom.set_of(line);
        let way = self.array.find(set, geom.tag_of(line))?;
        let ev = self.array.invalidate(set, way).expect("found way is valid");
        self.policy.on_invalidate(set, way, self.array.policy_row_mut(set));
        Some(ev.dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;

    fn cache(sets: u64, assoc: usize) -> BasicCache<Lru> {
        let g = CacheGeometry::new(64 * assoc as u64 * sets, assoc, 64);
        BasicCache::new(g, Lru::new(&g))
    }

    fn read(c: &mut BasicCache<Lru>, n: u64) -> AccessOutcome {
        c.access(LineAddr::new(n), AccessKind::Read, CoreId::new(0), Pc::new(0))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(4, 2);
        assert!(read(&mut c, 1).is_miss());
        assert!(read(&mut c, 1).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = cache(4, 2);
        for n in 0..100 {
            read(&mut c, n);
        }
        assert!(c.occupancy() <= 8);
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn eviction_reports_dirty_victim() {
        let mut c = cache(1, 1);
        c.access(LineAddr::new(1), AccessKind::Write, CoreId::new(0), Pc::new(0));
        let out = read(&mut c, 2);
        let ev = out.evicted().expect("full set must evict");
        assert!(ev.dirty);
        assert_eq!(ev.line, LineAddr::new(1));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = cache(1, 2);
        read(&mut c, 1);
        c.access(LineAddr::new(1), AccessKind::Write, CoreId::new(0), Pc::new(0));
        read(&mut c, 2);
        // Evict line 1 (LRU after the 2-fill? no: 1 was touched last by the
        // write, so 2 fills the empty way; force eviction of 1 via a third
        // line after touching 2).
        read(&mut c, 2);
        let out = read(&mut c, 3);
        let ev = out.evicted().expect("evicts line 1");
        assert_eq!(ev.line, LineAddr::new(1));
        assert!(ev.dirty, "write hit must have marked the line dirty");
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = cache(1, 2);
        read(&mut c, 1);
        read(&mut c, 2);
        let (hits, misses) = (c.stats().hits, c.stats().misses);
        assert!(c.probe(LineAddr::new(1)));
        assert!(!c.probe(LineAddr::new(9)));
        assert_eq!(c.stats().hits, hits);
        assert_eq!(c.stats().misses, misses);
        // Probe must not refresh recency: 1 is still LRU.
        let out = read(&mut c, 3);
        assert_eq!(out.evicted().unwrap().line, LineAddr::new(1));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = cache(1, 2);
        c.access(LineAddr::new(1), AccessKind::Write, CoreId::new(0), Pc::new(0));
        read(&mut c, 2);
        assert_eq!(c.invalidate_line(LineAddr::new(1)), Some(true));
        assert_eq!(c.invalidate_line(LineAddr::new(2)), Some(false));
        assert_eq!(c.invalidate_line(LineAddr::new(7)), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn lines_map_to_correct_sets() {
        let mut c = cache(4, 1); // 4 sets, direct-mapped
                                 // Lines 0..4 map to distinct sets: all coexist.
        for n in 0..4 {
            read(&mut c, n);
        }
        for n in 0..4 {
            assert!(read(&mut c, n).is_hit());
        }
        // Line 4 conflicts with line 0 only.
        read(&mut c, 4);
        assert!(read(&mut c, 1).is_hit());
        assert!(read(&mut c, 0).is_miss());
    }
}
