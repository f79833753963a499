//! Utility-based Cache Partitioning (UCP).
//!
//! Each core owns a sampled shadow LRU directory with per-rank hit
//! counters (UMON-DSS, provided by the cache substrate). Every epoch the
//! lookahead algorithm converts the resulting utility curves into per-core
//! way quotas; quotas are enforced lazily at victim-selection time: a
//! miss from an under-quota core evicts the LRU line of some over-quota
//! core, while a miss from a core at/over quota recycles that core's own
//! LRU line. Lines are never migrated eagerly on repartition — the quota
//! drift resolves itself within a few misses, as in the hardware scheme.

use crate::lookahead::lookahead_partition;
use nucache_cache::meta::{AccessOutcome, LineMeta};
use nucache_cache::shadow::{UtilityMonitor, DEFAULT_UMON_SHIFT};
use nucache_cache::{AuditStats, CacheGeometry, SetArray, SharedLlc};
use nucache_common::tags::{rank_oldest, rank_oldest_in, rank_touch};
use nucache_common::{AccessKind, CacheStats, CoreId, LineAddr, Pc};

/// A UCP-managed shared LLC.
///
/// # Examples
///
/// ```
/// use nucache_cache::{CacheGeometry, SharedLlc};
/// use nucache_partition::UcpLlc;
/// let geom = CacheGeometry::new(512 * 1024, 16, 64);
/// let llc = UcpLlc::new(geom, 4, 50_000);
/// assert_eq!(llc.allocations().iter().sum::<usize>(), 16);
/// ```
#[derive(Debug)]
pub struct UcpLlc {
    /// The tag array; each set's policy row holds its LRU ranks across
    /// the whole set (the quotas decide which lines are candidates).
    array: SetArray,
    monitors: Vec<UtilityMonitor>,
    alloc: Vec<usize>,
    epoch_len: u64,
    accesses_in_epoch: u64,
    repartitions: u64,
    stats: CacheStats,
    core_stats: Vec<CacheStats>,
}

impl UcpLlc {
    /// Creates a UCP LLC for `num_cores` cores repartitioning every
    /// `epoch_len` LLC accesses, its UMONs sampling one set in
    /// `2^DEFAULT_UMON_SHIFT`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero, the associativity is smaller than
    /// the core count (no way to give each core a way), or `epoch_len`
    /// is zero.
    pub fn new(geom: CacheGeometry, num_cores: usize, epoch_len: u64) -> Self {
        assert!(num_cores > 0, "need at least one core");
        assert!(geom.associativity() >= num_cores, "fewer ways than cores");
        assert!(epoch_len > 0, "zero epoch length");
        let shift = DEFAULT_UMON_SHIFT.min(geom.set_bits());
        let base = geom.associativity() / num_cores;
        let mut alloc = vec![base; num_cores];
        for a in alloc.iter_mut().take(geom.associativity() - base * num_cores) {
            *a += 1;
        }
        UcpLlc {
            array: SetArray::new(geom),
            monitors: (0..num_cores).map(|_| UtilityMonitor::new(&geom, shift)).collect(),
            alloc,
            epoch_len,
            accesses_in_epoch: 0,
            repartitions: 0,
            stats: CacheStats::default(),
            core_stats: vec![CacheStats::default(); num_cores],
        }
    }

    /// Current per-core way quotas.
    pub fn allocations(&self) -> &[usize] {
        &self.alloc
    }

    /// Number of repartitions performed so far.
    pub const fn repartitions(&self) -> u64 {
        self.repartitions
    }

    fn geometry_copy(&self) -> CacheGeometry {
        *self.array.geometry()
    }

    /// Victim selection under quotas: evict the LRU line of a core that
    /// exceeds its quota (preferring the most over-quota situation via
    /// plain LRU among over-quota lines); if nobody is over quota (can
    /// happen transiently right after repartitioning), fall back to the
    /// requester's own LRU line, then to global LRU.
    ///
    /// Called on a full set only. The LRU line among candidates is the
    /// candidate with the highest rank in the set's policy row.
    fn victim(&self, set: usize, requester: CoreId) -> usize {
        let cores = self.array.core_row(set);
        let ranks = self.array.policy_row(set);
        let valid = self.array.valid_mask(set);
        // One pass over the valid mask gathers per-core occupancy; the
        // associativity cap (<= 64, and cores <= ways) bounds the counter
        // array so nothing is heap-allocated on the miss path.
        let mut occupancy = [0u8; 64];
        let mut m = valid;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            occupancy[usize::from(cores[w])] += 1;
        }
        // A second pass splits the valid ways into the requester's and
        // the over-quota cores'.
        let req = requester.index();
        let (mut own, mut over) = (0u64, 0u64);
        let mut m = valid;
        while m != 0 {
            let w = m.trailing_zeros() as usize;
            m &= m - 1;
            let c = usize::from(cores[w]);
            own |= u64::from(c == req) << w;
            over |= u64::from(usize::from(occupancy[c]) > self.alloc[c]) << w;
        }
        let candidate_own = rank_oldest_in(ranks, own);
        // If the requester is at/over its quota, recycle its own LRU line.
        if usize::from(occupancy[req]) >= self.alloc[req] {
            if let Some(w) = candidate_own {
                return w;
            }
        }
        // Requester deserves growth: take the LRU line among over-quota
        // cores' lines. Transient: fall back to own LRU, then global LRU.
        rank_oldest_in(ranks, over).or(candidate_own).unwrap_or_else(|| rank_oldest(ranks))
    }

    fn epoch_tick(&mut self) {
        self.accesses_in_epoch += 1;
        if self.accesses_in_epoch < self.epoch_len {
            return;
        }
        self.accesses_in_epoch = 0;
        self.repartitions += 1;
        let geom = self.geometry_copy();
        let curves: Vec<Vec<u64>> = self.monitors.iter().map(|m| m.utility_curve()).collect();
        self.alloc = lookahead_partition(&curves, geom.associativity(), 1);
        for m in &mut self.monitors {
            m.decay();
        }
    }
}

impl SharedLlc for UcpLlc {
    fn access(&mut self, core: CoreId, pc: Pc, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        let geom = self.geometry_copy();
        self.monitors[core.index()].observe(line);
        self.epoch_tick();
        let set = geom.set_of(line);
        let tag = geom.tag_of(line);
        if let Some(way) = self.array.find(set, tag) {
            self.stats.record_hit();
            self.core_stats[core.index()].record_hit();
            rank_touch(self.array.policy_row_mut(set), way);
            if kind.is_write() {
                self.array.mark_dirty(set, way);
            }
            return AccessOutcome::Hit;
        }
        self.stats.record_miss();
        self.core_stats[core.index()].record_miss();
        let way = match self.array.invalid_way(set) {
            Some(w) => w,
            None => self.victim(set, core),
        };
        let evicted = self.array.fill(set, way, LineMeta::new(tag, core, pc, kind.is_write()));
        if let Some(ev) = evicted {
            self.stats.record_eviction(ev.dirty);
        }
        rank_touch(self.array.policy_row_mut(set), way);
        AccessOutcome::Miss { evicted }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn core_stats(&self) -> &[CacheStats] {
        &self.core_stats
    }

    fn reset_stats(&mut self) {
        self.stats.clear();
        self.core_stats.iter_mut().for_each(CacheStats::clear);
    }

    fn geometry(&self) -> &CacheGeometry {
        self.array.geometry()
    }

    fn scheme_name(&self) -> String {
        "ucp".to_string()
    }

    fn set_audit(&mut self, enabled: bool) {
        if enabled {
            self.array.enable_audit();
        } else {
            self.array.disable_audit();
        }
    }

    fn audit_stats(&self) -> Option<AuditStats> {
        self.array
            .audit_enabled()
            .then(|| AuditStats { array_ops: self.array.audit_ops(), epoch_checks: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64 * 8 * 64, 8, 64) // 64 sets, 8-way
    }

    fn read(llc: &mut UcpLlc, core: u8, line: u64) -> AccessOutcome {
        llc.access(CoreId::new(core), Pc::new(core as u64), LineAddr::new(line), AccessKind::Read)
    }

    #[test]
    fn initial_allocation_splits_ways() {
        let llc = UcpLlc::new(geom(), 3, 1000);
        assert_eq!(llc.allocations().iter().sum::<usize>(), 8);
        assert!(llc.allocations().iter().all(|&a| a >= 2));
    }

    #[test]
    fn basic_hit_miss_accounting() {
        let mut llc = UcpLlc::new(geom(), 2, 1_000_000);
        assert!(read(&mut llc, 0, 5).is_miss());
        assert!(read(&mut llc, 0, 5).is_hit());
        assert_eq!(llc.core_stats()[0].hits, 1);
    }

    #[test]
    fn repartition_rewards_reuse_heavy_core() {
        // Core 0 loops over 4 lines/set in every set (high utility up to 4
        // ways); core 1 streams (zero utility). After an epoch, core 0's
        // quota should grow well past the even split.
        let mut llc = UcpLlc::new(geom(), 2, 20_000);
        let mut stream_line = 1_000_000u64;
        for _ in 0..30_000 {
            for k in 0..4u64 {
                for s in 0..8u64 {
                    read(&mut llc, 0, s + 64 * k);
                }
            }
            for _ in 0..32 {
                read(&mut llc, 1, stream_line);
                stream_line += 1;
            }
            if llc.repartitions() > 2 {
                break;
            }
        }
        assert!(llc.repartitions() >= 1);
        assert!(
            llc.allocations()[0] >= 4,
            "reuse-heavy core should win ways: {:?}",
            llc.allocations()
        );
        assert!(llc.allocations()[1] <= 4);
    }

    #[test]
    fn quota_enforcement_protects_under_quota_core() {
        // Force allocations manually via an epoch with clear utility, then
        // verify the streamer cannot push the loop core below quota.
        let mut llc = UcpLlc::new(geom(), 2, 10_000);
        // Warm: core 0 keeps 4 lines hot in set 0.
        for _ in 0..5_000 {
            for k in 0..4u64 {
                read(&mut llc, 0, 64 * k); // set 0
            }
            read(&mut llc, 1, 7); // also set 7? line 7 -> set 7; stream instead:
        }
        // Flood set 0 from core 1.
        for n in 0..10_000u64 {
            read(&mut llc, 1, 64 * n); // every line maps to set 0
        }
        // Core 0's 4 hot lines must still hit (they are within its quota).
        let before = llc.core_stats()[0].hits;
        for k in 0..4u64 {
            assert!(read(&mut llc, 0, 64 * k).is_hit(), "hot line {k} was evicted");
        }
        assert_eq!(llc.core_stats()[0].hits, before + 4);
    }

    #[test]
    fn capacity_conserved() {
        let mut llc = UcpLlc::new(geom(), 2, 500);
        for n in 0..5_000 {
            read(&mut llc, (n % 2) as u8, n);
        }
        assert!(llc.array.total_occupancy() <= 64 * 8);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut llc = UcpLlc::new(geom(), 2, 1000);
        read(&mut llc, 0, 1);
        llc.reset_stats();
        assert_eq!(llc.stats().accesses(), 0);
        assert_eq!(llc.core_stats()[0].accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "fewer ways than cores")]
    fn too_many_cores_rejected() {
        let _ = UcpLlc::new(CacheGeometry::new(64 * 2 * 4, 2, 64), 3, 100);
    }
}
