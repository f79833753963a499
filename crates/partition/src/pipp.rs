//! Promotion/Insertion Pseudo-Partitioning (PIPP).
//!
//! PIPP pursues the same utility targets as UCP but enforces them softly:
//! instead of hard quotas at eviction time, each core inserts new lines at
//! a stack position derived from its allocation (bigger quota → closer to
//! MRU) and hits promote a line by only a single position, with
//! probability `p_prom`, rather than jumping to MRU. Evictions always
//! take the LRU-most line. Cores classified as streaming (near-zero
//! shadow utility) insert at the LRU-most position so their lines become
//! immediate victim candidates.

use crate::lookahead::lookahead_partition;
use nucache_cache::meta::{AccessOutcome, LineMeta};
use nucache_cache::shadow::{UtilityMonitor, DEFAULT_UMON_SHIFT};
use nucache_cache::{AuditStats, CacheGeometry, SetArray, SharedLlc};
use nucache_common::tags::{rank_insert, rank_oldest, rank_promote};
use nucache_common::{AccessKind, CacheStats, CoreId, DetRng, LineAddr, Pc};

/// Single-step promotion probability on a hit (value from the original
/// proposal).
pub const PROMOTION_PROB: f64 = 0.75;

/// Shadow hit-rate below which a core is treated as streaming.
pub const STREAM_UTILITY_THRESHOLD: f64 = 0.02;

/// A PIPP-managed shared LLC.
///
/// Each set's recency stack is its policy row: a way's rank is its stack
/// position, 0 the MRU-most. The valid ways hold ranks `0..occupancy`
/// and the invalid ways the ranks behind them, an order every insert
/// keeps, so the LRU-most line of a full set is the way at the last
/// rank.
///
/// # Examples
///
/// ```
/// use nucache_cache::{CacheGeometry, SharedLlc};
/// use nucache_partition::PippLlc;
/// let geom = CacheGeometry::new(512 * 1024, 16, 64);
/// let llc = PippLlc::new(geom, 4, 50_000, 7);
/// assert_eq!(llc.allocations().iter().sum::<usize>(), 16);
/// ```
#[derive(Debug)]
pub struct PippLlc {
    array: SetArray,
    monitors: Vec<UtilityMonitor>,
    alloc: Vec<usize>,
    streaming: Vec<bool>,
    epoch_len: u64,
    accesses_in_epoch: u64,
    repartitions: u64,
    rng: DetRng,
    stats: CacheStats,
    core_stats: Vec<CacheStats>,
}

impl PippLlc {
    /// Creates a PIPP LLC for `num_cores` cores repartitioning every
    /// `epoch_len` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero, the associativity is smaller than
    /// the core count, or `epoch_len` is zero.
    pub fn new(geom: CacheGeometry, num_cores: usize, epoch_len: u64, seed: u64) -> Self {
        assert!(num_cores > 0, "need at least one core");
        assert!(geom.associativity() >= num_cores, "fewer ways than cores");
        assert!(epoch_len > 0, "zero epoch length");
        let base = geom.associativity() / num_cores;
        let mut alloc = vec![base; num_cores];
        for a in alloc.iter_mut().take(geom.associativity() - base * num_cores) {
            *a += 1;
        }
        PippLlc {
            array: SetArray::new(geom),
            monitors: (0..num_cores)
                .map(|_| UtilityMonitor::new(&geom, DEFAULT_UMON_SHIFT.min(geom.set_bits())))
                .collect(),
            alloc,
            streaming: vec![false; num_cores],
            epoch_len,
            accesses_in_epoch: 0,
            repartitions: 0,
            rng: DetRng::substream(seed, 0x9199),
            stats: CacheStats::default(),
            core_stats: vec![CacheStats::default(); num_cores],
        }
    }

    /// Current per-core way targets.
    pub fn allocations(&self) -> &[usize] {
        &self.alloc
    }

    /// Which cores are currently classified streaming.
    pub fn streaming_flags(&self) -> &[bool] {
        &self.streaming
    }

    /// Number of repartitions performed so far.
    pub const fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Insertion distance from the LRU end for `core`: a core with
    /// allocation `w` inserts `w - 1` positions above LRU (0 = LRU-most);
    /// streaming cores insert at the LRU-most position regardless.
    fn insert_depth(&self, core: CoreId) -> usize {
        if self.streaming[core.index()] {
            0
        } else {
            self.alloc[core.index()].saturating_sub(1)
        }
    }

    fn epoch_tick(&mut self) {
        self.accesses_in_epoch += 1;
        if self.accesses_in_epoch < self.epoch_len {
            return;
        }
        self.accesses_in_epoch = 0;
        self.repartitions += 1;
        let assoc = self.array.geometry().associativity();
        let curves: Vec<Vec<u64>> = self.monitors.iter().map(|m| m.utility_curve()).collect();
        self.alloc = lookahead_partition(&curves, assoc, 1);
        for (c, m) in self.monitors.iter_mut().enumerate() {
            let shadow_hits: u64 = m.hits_at_rank().iter().sum();
            let shadow_accesses = m.accesses();
            self.streaming[c] = shadow_accesses > 100
                && (shadow_hits as f64 / shadow_accesses as f64) < STREAM_UTILITY_THRESHOLD;
            m.decay();
        }
    }
}

impl SharedLlc for PippLlc {
    fn access(&mut self, core: CoreId, pc: Pc, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        let geom = *self.array.geometry();
        self.monitors[core.index()].observe(line);
        self.epoch_tick();
        let set = geom.set_of(line);
        let tag = geom.tag_of(line);
        if let Some(way) = self.array.find(set, tag) {
            self.stats.record_hit();
            self.core_stats[core.index()].record_hit();
            if kind.is_write() {
                self.array.mark_dirty(set, way);
            }
            // Single-step probabilistic promotion.
            if self.rng.chance(PROMOTION_PROB) {
                rank_promote(self.array.policy_row_mut(set), way);
            }
            return AccessOutcome::Hit;
        }
        self.stats.record_miss();
        self.core_stats[core.index()].record_miss();
        // The lines that stay in the stack: every valid one, less the
        // victim of a full set.
        let assoc = geom.associativity();
        let stay = (self.array.valid_mask(set).count_ones() as usize).min(assoc - 1);
        let way = match self.array.invalid_way(set) {
            Some(w) => w,
            None => rank_oldest(self.array.policy_row(set)),
        };
        let evicted = self.array.fill(set, way, LineMeta::new(tag, core, pc, kind.is_write()));
        if let Some(ev) = evicted {
            self.stats.record_eviction(ev.dirty);
        }
        // Insert at the core's depth from the LRU end of the staying
        // lines, which is `assoc - 1 - stay` ranks further from the back
        // of the row: the invalid ways sit behind them.
        let depth = self.insert_depth(core).min(stay);
        rank_insert(self.array.policy_row_mut(set), way, depth + (assoc - 1 - stay));
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
        "pipp".to_string()
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

    fn read(llc: &mut PippLlc, core: u8, line: u64) -> AccessOutcome {
        llc.access(CoreId::new(core), Pc::new(core as u64), LineAddr::new(line), AccessKind::Read)
    }

    /// The stack order the ranks encode: the valid ways hold ranks
    /// `0..occupancy`, each once, and the invalid ways the ranks behind.
    fn assert_stack_consistent(llc: &PippLlc, set: usize) {
        let ranks = llc.array.policy_row(set);
        let valid = llc.array.valid_mask(set);
        let occupancy = llc.array.occupancy(set);
        let mut seen = vec![false; ranks.len()];
        for (w, &r) in ranks.iter().enumerate() {
            let r = usize::from(r);
            assert!(!seen[r], "set {set}: rank {r} held twice");
            seen[r] = true;
            assert_eq!(valid >> w & 1 == 1, r < occupancy, "set {set}: way {w} at rank {r}");
        }
    }

    #[test]
    fn stack_tracks_residency() {
        let mut llc = PippLlc::new(geom(), 2, 1_000_000, 1);
        for n in 0..4u64 {
            read(&mut llc, 0, n * 64); // all set 0
            assert_stack_consistent(&llc, 0);
        }
        for n in 4..64u64 {
            read(&mut llc, 0, n * 64);
        }
        assert_eq!(llc.array.occupancy(0), 8);
        assert_stack_consistent(&llc, 0);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut llc = PippLlc::new(geom(), 2, 1_000_000, 1);
        assert!(read(&mut llc, 1, 3).is_miss());
        assert!(read(&mut llc, 1, 3).is_hit());
        assert_eq!(llc.core_stats()[1].hits, 1);
    }

    #[test]
    fn streaming_core_classified_and_demoted() {
        let mut llc = PippLlc::new(geom(), 2, 5_000, 2);
        // Core 0 reuses, core 1 streams.
        for round in 0..30_000u64 {
            read(&mut llc, 0, round % 128); // loop over 128 lines (2/set)
            read(&mut llc, 1, (1 << 20) + round); // fresh line every round
            if llc.repartitions() >= 2 {
                break;
            }
        }
        assert!(llc.repartitions() >= 2);
        assert!(llc.streaming_flags()[1], "streamer must be classified");
        assert!(!llc.streaming_flags()[0], "reuser must not be classified streaming");
        assert!(llc.allocations()[0] > llc.allocations()[1]);
    }

    #[test]
    fn pseudo_partitioning_protects_reuser_from_stream() {
        let mut llc = PippLlc::new(geom(), 2, 5_000, 3);
        // Warm up through at least one repartition so core 1 is marked
        // streaming and core 0 has a large allocation.
        let mut sline = 1 << 20;
        for round in 0..40_000u64 {
            read(&mut llc, 0, round % 256); // 4 lines/set, reused
            read(&mut llc, 1, sline);
            sline += 1;
        }
        llc.reset_stats();
        for round in 0..20_000u64 {
            read(&mut llc, 0, round % 256);
            read(&mut llc, 1, sline);
            sline += 1;
        }
        let reuser_hit_rate = llc.core_stats()[0].hit_rate();
        assert!(
            reuser_hit_rate > 0.8,
            "PIPP must shield the reuser from the stream, hit rate {reuser_hit_rate}"
        );
    }

    #[test]
    fn capacity_conserved_and_stacks_consistent() {
        let mut llc = PippLlc::new(geom(), 2, 500, 4);
        for n in 0..20_000u64 {
            read(&mut llc, (n % 2) as u8, n * 7);
        }
        assert!(llc.array.total_occupancy() <= 64 * 8);
        for s in 0..64 {
            assert_stack_consistent(&llc, s);
        }
    }

    #[test]
    fn reset_stats_clears() {
        let mut llc = PippLlc::new(geom(), 2, 1000, 5);
        read(&mut llc, 0, 1);
        llc.reset_stats();
        assert_eq!(llc.stats().accesses(), 0);
    }
}
