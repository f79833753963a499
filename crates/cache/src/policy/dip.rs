//! DIP: dynamic insertion.
//!
//! DIP keeps LRU's eviction rule but changes *where* an incoming line is
//! inserted in the recency stack. It set-duels two insertion rules and
//! lets the winner govern the follower sets:
//!
//! * **LRU** inserts at the MRU position, as usual;
//! * **BIP** (bimodal insertion) inserts at the LRU position, so a
//!   never-reused line is the next victim, except with a small
//!   probability (epsilon) of a normal MRU insertion, which lets a slowly
//!   changing working set rotate in.

use crate::config::CacheGeometry;
use crate::dueling::DuelingSelector;
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::tags::{rank_oldest, rank_to_back, rank_touch};
use nucache_common::DetRng;

/// MRU-insertion probability used by BIP in the original proposal (1/32).
pub(crate) const BIP_EPSILON: f64 = 1.0 / 32.0;

/// Dynamic-insertion policy: set-duels LRU (policy A) against BIP
/// (policy B).
///
/// Recency is the set's rank row: hits and MRU insertions move the way
/// to rank 0 ([`rank_touch`]), LRU-position insertions behind every
/// other way ([`rank_to_back`]), and the victim is the way at the last
/// rank.
#[derive(Debug)]
pub struct Dip {
    selector: DuelingSelector,
    epsilon: f64,
    rng: DetRng,
}

impl Dip {
    /// Creates DIP state with 32 leader sets per policy and a 10-bit PSEL
    /// (scaled down automatically for tiny caches).
    pub fn new(geom: &CacheGeometry, seed: u64) -> Self {
        let leaders = (geom.num_sets() / 16).clamp(1, 32);
        Dip {
            selector: DuelingSelector::new(geom.num_sets(), leaders, 10),
            epsilon: BIP_EPSILON,
            rng: DetRng::substream(seed, 0xd1b),
        }
    }
}

impl ReplacementPolicy for Dip {
    #[inline]
    fn on_hit(&mut self, _set: usize, way: usize, row: &mut [u8]) {
        rank_touch(row, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx, row: &mut [u8]) {
        // Short-circuit keeps the RNG stream identical: the epsilon draw
        // only happens for BIP-following sets, as before.
        if self.selector.use_a(set) || self.rng.chance(self.epsilon) {
            rank_touch(row, way);
        } else {
            rank_to_back(row, way);
        }
    }

    fn on_miss(&mut self, set: usize, _ctx: &FillCtx) {
        self.selector.record_miss(set);
    }

    #[inline]
    fn victim(&mut self, _set: usize, row: &mut [u8]) -> usize {
        rank_oldest(row)
    }

    fn name(&self) -> &'static str {
        "dip"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::CacheGeometry;
    use nucache_common::{AccessKind, CoreId, LineAddr, Pc};

    #[test]
    fn dip_follows_winner_on_thrash() {
        // Thrashing workload across many sets: BIP side must win.
        let g = CacheGeometry::new(64 * 4 * 64, 4, 64); // 64 sets, 4-way
        let mut c = BasicCache::new(g, Dip::new(&g, 5));
        let lines_per_set = 6; // loop bigger than assoc => thrash
        for _ in 0..60 {
            for k in 0..lines_per_set {
                for s in 0..64u64 {
                    let line = LineAddr::new(s + 64 * k + 64 * 100);
                    c.access(line, AccessKind::Read, CoreId::new(0), Pc::new(1));
                }
            }
        }
        assert!(!c.policy().selector.a_wins(), "thrash must drive DIP to BIP");
        let hit_rate = c.stats().hit_rate();
        assert!(hit_rate > 0.1, "DIP should salvage hits under thrash, got {hit_rate}");
    }

    #[test]
    fn dip_behaves_like_lru_on_friendly() {
        let g = CacheGeometry::new(64 * 4 * 16, 4, 64); // 16 sets
        let mut c = BasicCache::new(g, Dip::new(&g, 5));
        // Working set fits: every set holds <= 4 lines.
        for _ in 0..50 {
            for n in 0..32u64 {
                c.access(LineAddr::new(n), AccessKind::Read, CoreId::new(0), Pc::new(1));
            }
        }
        assert!(c.policy().selector.a_wins());
        assert!(c.stats().hit_rate() > 0.9);
    }
}
