//! Re-reference interval prediction: DRRIP.
//!
//! Each line carries an M-bit re-reference prediction value (RRPV).
//! Victims are lines predicted to be re-referenced in the distant future
//! (RRPV == max); when none exists, every RRPV in the set is aged up
//! until one does. Hits promote to 0 (the hit-priority variant). DRRIP
//! set-duels two insertion rules:
//!
//! * **SRRIP** inserts with "long" re-reference prediction (max-1);
//! * **BRRIP** usually inserts "distant" (max), occasionally "long".

use crate::config::CacheGeometry;
use crate::dueling::DuelingSelector;
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::DetRng;

/// RRPV width used throughout (2 bits, as in the original evaluation).
const RRPV_BITS: u32 = 2;

pub(crate) const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1;

/// The RRIP victim of a full set's RRPV row: the first way predicted
/// distant (RRPV == max), after ageing every way by one as often as it
/// takes for one to get there. Shared with SHiP-PC.
#[inline]
pub(crate) fn rrip_victim(row: &mut [u8]) -> usize {
    loop {
        if let Some(w) = row.iter().position(|&r| r >= RRPV_MAX) {
            return w;
        }
        for r in row.iter_mut() {
            *r += 1;
        }
    }
}

/// Probability of a "long" insertion in BRRIP.
const BRRIP_EPSILON: f64 = 1.0 / 32.0;

/// Dynamic RRIP: set-duels SRRIP (A) against BRRIP (B). Each way's RRPV
/// is its byte of the set's policy row.
#[derive(Debug)]
pub struct Drrip {
    selector: DuelingSelector,
    rng: DetRng,
}

impl Drrip {
    /// Creates DRRIP state for `geom`.
    pub fn new(geom: &CacheGeometry, seed: u64) -> Self {
        let leaders = (geom.num_sets() / 16).clamp(1, 32);
        Drrip {
            selector: DuelingSelector::new(geom.num_sets(), leaders, 10),
            rng: DetRng::substream(seed, 0xdd1b),
        }
    }
}

impl ReplacementPolicy for Drrip {
    #[inline]
    fn on_hit(&mut self, _set: usize, way: usize, row: &mut [u8]) {
        row[way] = 0;
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx, row: &mut [u8]) {
        // Short-circuit keeps the RNG stream identical: the epsilon draw
        // only happens for BRRIP-following sets, as before.
        row[way] = if self.selector.use_a(set) || self.rng.chance(BRRIP_EPSILON) {
            RRPV_MAX - 1
        } else {
            RRPV_MAX
        };
    }

    fn on_miss(&mut self, set: usize, _ctx: &FillCtx) {
        self.selector.record_miss(set);
    }

    #[inline]
    fn victim(&mut self, _set: usize, row: &mut [u8]) -> usize {
        rrip_victim(row)
    }

    fn on_invalidate(&mut self, _set: usize, way: usize, row: &mut [u8]) {
        row[way] = RRPV_MAX;
    }

    fn name(&self) -> &'static str {
        "drrip"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::CacheGeometry;
    use nucache_common::{AccessKind, CoreId, LineAddr, Pc};

    /// Two sets: DRRIP's only SRRIP leader (set 0) and its only BRRIP
    /// leader (set 1), so each set runs one insertion rule throughout.
    fn leaders() -> CacheGeometry {
        CacheGeometry::new(64 * 4 * 2, 4, 64)
    }

    /// Accesses the `n`th line of `set` in a two-set cache.
    fn touch_in(c: &mut BasicCache<Drrip>, set: u64, n: u64) -> bool {
        let line = LineAddr::new(2 * n + set);
        c.access(line, AccessKind::Read, CoreId::new(0), Pc::new(n)).is_hit()
    }

    #[test]
    fn srrip_leader_scan_resistance() {
        // Working set of 2 reused lines interleaved with short scans:
        // SRRIP keeps the reused lines (promoted to RRPV 0) while scan
        // lines enter near-distant and evict each other. LRU loses the
        // reused lines to every scan burst; SRRIP retains them after the
        // first round.
        let g = leaders();
        let mut c = BasicCache::new(g, Drrip::new(&g, 1));
        let mut reuse_hits = 0;
        for round in 0..10u64 {
            for line in [0, 0, 1, 1] {
                if touch_in(&mut c, 0, line) {
                    reuse_hits += 1;
                }
            }
            for scan in 0..2 {
                touch_in(&mut c, 0, 100 + round * 2 + scan);
            }
        }
        // Round 0: only the second touch of each line hits (2 hits);
        // afterwards the RRPV-0 lines outlive every scan burst: 4/round.
        assert_eq!(reuse_hits, 38, "reused lines must survive every scan after round 0");
    }

    #[test]
    fn brrip_leader_resists_thrash() {
        let g = leaders();
        let mut c = BasicCache::new(g, Drrip::new(&g, 9));
        let mut hits = 0;
        for _ in 0..100 {
            for n in 0..6 {
                if touch_in(&mut c, 1, n) {
                    hits += 1;
                }
            }
        }
        assert!(hits > 50, "BRRIP should beat LRU's zero hits on thrash, got {hits}");
    }

    #[test]
    fn victim_ages_until_found() {
        let g = leaders();
        let mut p = Drrip::new(&g, 1);
        let ctx = FillCtx::new(CoreId::new(0), Pc::new(0));
        let mut row = [RRPV_MAX; 4];
        for w in 0..4 {
            p.on_fill(0, w, &ctx, &mut row);
            p.on_hit(0, w, &mut row);
        }
        // All at RRPV 0: aging loop must terminate and return some way.
        assert!(p.victim(0, &mut row) < 4);
    }

    #[test]
    fn drrip_adapts_to_thrash() {
        let g = CacheGeometry::new(64 * 4 * 64, 4, 64);
        let mut c = BasicCache::new(g, Drrip::new(&g, 5));
        for _ in 0..60 {
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
        assert!(!c.policy().selector.a_wins(), "thrash should favour BRRIP");
        assert!(c.stats().hit_rate() > 0.1);
    }

    #[test]
    fn invalidate_makes_way_preferred_victim() {
        let g = leaders();
        let mut p = Drrip::new(&g, 1);
        let ctx = FillCtx::new(CoreId::new(0), Pc::new(0));
        let mut row = [RRPV_MAX; 4];
        for w in 0..4 {
            p.on_fill(0, w, &ctx, &mut row);
            p.on_hit(0, w, &mut row);
        }
        p.on_invalidate(0, 2, &mut row);
        assert_eq!(p.victim(0, &mut row), 2);
    }
}
