//! TADIP-F: thread-aware dynamic insertion policy with feedback.
//!
//! DIP picks one insertion policy (MRU vs bimodal) for the whole cache;
//! with several cores sharing the LLC that single choice is wrong whenever
//! the co-runners disagree. TADIP gives each core its own policy bit,
//! learned with per-core leader sets and per-core PSEL counters. In the
//! feedback (-F) variant, a core's leader sets observe the *current*
//! policy choices of all other cores, so the cores' decisions co-adapt.

use crate::config::CacheGeometry;
use crate::policy::dip::BIP_EPSILON;
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::tags::{rank_oldest, rank_to_back, rank_touch};
use nucache_common::{CoreId, DetRng};

/// Per-set role in TADIP's dueling layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TadipRole {
    /// Leader set where `core` is forced to MRU insertion.
    LeaderMru(usize),
    /// Leader set where `core` is forced to bimodal insertion.
    LeaderBip(usize),
    /// Follower set: every core uses its learned policy.
    Follower,
}

/// TADIP-F insertion policy for a shared cache.
///
/// Recency/eviction is LRU over the set's rank row; per-core insertion
/// is MRU ([`rank_touch`]) or bimodal (mostly [`rank_to_back`]), chosen
/// by per-core saturating PSEL counters updated on leader-set misses.
#[derive(Debug)]
pub struct TadipF {
    num_cores: usize,
    block: usize,
    psel: Vec<u32>,
    psel_max: u32,
    rng: DetRng,
}

impl TadipF {
    /// Creates TADIP-F state for `geom` shared by `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or the cache has fewer than
    /// `2 * num_cores` sets (no room for the leader layout).
    pub fn new(geom: &CacheGeometry, num_cores: usize, seed: u64) -> Self {
        assert!(num_cores > 0, "need at least one core");
        let sets = geom.num_sets();
        assert!(sets >= 2 * num_cores, "too few sets for TADIP leader layout");
        // Aim for 32 leader sets per (core, policy); shrink on small
        // caches. The floor of 1 matters: `sets / 32` is 0 below 32 sets
        // and doubling zero would never terminate.
        let mut block = (sets / 32).max(1);
        while block < 2 * num_cores {
            block *= 2;
        }
        let psel_max = (1u32 << 10) - 1;
        TadipF {
            num_cores,
            block,
            psel: vec![psel_max / 2; num_cores],
            psel_max,
            rng: DetRng::substream(seed, 0x7ad1),
        }
    }

    fn role(&self, set: usize) -> TadipRole {
        let offset = set % self.block;
        if offset < 2 * self.num_cores {
            let core = offset / 2;
            if offset.is_multiple_of(2) {
                TadipRole::LeaderMru(core)
            } else {
                TadipRole::LeaderBip(core)
            }
        } else {
            TadipRole::Follower
        }
    }

    /// Whether `core` currently prefers MRU insertion in follower sets.
    ///
    /// PSEL convention: misses in the core's MRU-leader sets increment,
    /// misses in its BIP-leader sets decrement; low PSEL means MRU wins.
    fn mru_preferred(&self, core: CoreId) -> bool {
        self.psel[core.index()] <= self.psel_max / 2
    }

    fn inserts_mru(&mut self, set: usize, core: CoreId) -> bool {
        let forced = match self.role(set) {
            TadipRole::LeaderMru(c) if c == core.index() => Some(true),
            TadipRole::LeaderBip(c) if c == core.index() => Some(false),
            _ => None,
        };
        match forced {
            Some(true) => true,
            // Bimodal: mostly LRU-position, epsilon MRU.
            Some(false) => self.rng.chance(BIP_EPSILON),
            None => {
                if self.mru_preferred(core) {
                    true
                } else {
                    self.rng.chance(BIP_EPSILON)
                }
            }
        }
    }
}

impl ReplacementPolicy for TadipF {
    #[inline]
    fn on_hit(&mut self, _set: usize, way: usize, row: &mut [u8]) {
        rank_touch(row, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &FillCtx, row: &mut [u8]) {
        if self.inserts_mru(set, ctx.core) {
            rank_touch(row, way);
        } else {
            rank_to_back(row, way);
        }
    }

    fn on_miss(&mut self, set: usize, ctx: &FillCtx) {
        match self.role(set) {
            TadipRole::LeaderMru(c) if c == ctx.core.index() => {
                self.psel[c] = (self.psel[c] + 1).min(self.psel_max);
            }
            TadipRole::LeaderBip(c) if c == ctx.core.index() => {
                self.psel[c] = self.psel[c].saturating_sub(1);
            }
            _ => {}
        }
    }

    #[inline]
    fn victim(&mut self, _set: usize, row: &mut [u8]) -> usize {
        rank_oldest(row)
    }

    fn name(&self) -> &'static str {
        "tadip-f"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::CacheGeometry;
    use nucache_common::{AccessKind, LineAddr, Pc};

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64 * 4 * 64, 4, 64) // 64 sets, 4-way
    }

    #[test]
    fn leader_layout_covers_all_cores() {
        let g = geom();
        let t = TadipF::new(&g, 4, 1);
        let mut mru = [0; 4];
        let mut bip = [0; 4];
        for s in 0..g.num_sets() {
            match t.role(s) {
                TadipRole::LeaderMru(c) => mru[c] += 1,
                TadipRole::LeaderBip(c) => bip[c] += 1,
                TadipRole::Follower => {}
            }
        }
        for c in 0..4 {
            assert!(mru[c] > 0 && bip[c] > 0, "core {c} missing leaders");
            assert_eq!(mru[c], bip[c]);
        }
    }

    #[test]
    fn thrashing_core_learns_bip() {
        let g = geom();
        let mut c = BasicCache::new(g, TadipF::new(&g, 2, 3));
        // Core 0 thrashes every set with 6 distinct lines/set.
        for _ in 0..80 {
            for k in 0..6u64 {
                for s in 0..64u64 {
                    c.access(
                        LineAddr::new(s + 64 * k),
                        AccessKind::Read,
                        CoreId::new(0),
                        Pc::new(1),
                    );
                }
            }
        }
        assert!(
            !c.policy().mru_preferred(CoreId::new(0)),
            "thrashing core should learn bimodal insertion"
        );
    }

    #[test]
    fn friendly_core_keeps_mru() {
        let g = geom();
        let mut c = BasicCache::new(g, TadipF::new(&g, 2, 3));
        for _ in 0..80 {
            for n in 0..128u64 {
                // 2 lines per set: fits easily.
                c.access(LineAddr::new(n), AccessKind::Read, CoreId::new(1), Pc::new(2));
            }
        }
        assert!(c.policy().mru_preferred(CoreId::new(1)));
        assert!(c.stats().hit_rate() > 0.9);
    }

    #[test]
    fn per_core_decisions_are_independent() {
        let g = geom();
        let mut c = BasicCache::new(g, TadipF::new(&g, 2, 3));
        for _ in 0..80 {
            // Core 0: thrash (6 lines/set in a disjoint region).
            for k in 0..6u64 {
                for s in 0..64u64 {
                    c.access(
                        LineAddr::new(0x10000 + s + 64 * k),
                        AccessKind::Read,
                        CoreId::new(0),
                        Pc::new(1),
                    );
                }
            }
            // Core 1: small reused set.
            for n in 0..64u64 {
                c.access(LineAddr::new(n), AccessKind::Read, CoreId::new(1), Pc::new(2));
            }
        }
        assert!(!c.policy().mru_preferred(CoreId::new(0)));
        assert!(c.policy().mru_preferred(CoreId::new(1)));
    }

    #[test]
    #[should_panic(expected = "too few sets")]
    fn rejects_tiny_cache() {
        let g = CacheGeometry::new(64 * 4, 4, 64); // 1 set
        let _ = TadipF::new(&g, 2, 0);
    }

    #[test]
    fn small_caches_construct_and_work() {
        // Regression: with fewer than 32 sets, the leader-block sizing
        // used to start at zero and loop forever.
        let g = CacheGeometry::new(64 * 4 * 8, 4, 64); // 8 sets
        let mut c = BasicCache::new(g, TadipF::new(&g, 2, 1));
        for n in 0..200u64 {
            c.access(
                LineAddr::new(n % 40),
                AccessKind::Read,
                CoreId::new((n % 2) as u8),
                Pc::new(1),
            );
        }
        assert_eq!(c.stats().accesses(), 200);
    }
}
