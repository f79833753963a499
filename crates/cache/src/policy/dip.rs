//! Insertion-policy family: LIP, BIP and DIP.
//!
//! These policies keep LRU's eviction rule but change *where* an incoming
//! line is inserted in the recency stack:
//!
//! * **LIP** inserts at the LRU position, so a never-reused line is the
//!   next victim — thrash-resistant but unable to exploit recency.
//! * **BIP** is LIP with a small probability (epsilon) of a normal MRU
//!   insertion, letting a slowly changing working set rotate in.
//! * **DIP** set-duels LRU against BIP and lets the winner govern
//!   follower sets.

use crate::config::CacheGeometry;
use crate::dueling::DuelingSelector;
use crate::policy::{FillCtx, ReplacementPolicy};
use nucache_common::DetRng;

/// How a fill is placed into the recency stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Insertion {
    Mru,
    Lru,
}

/// Shared recency core for the insertion-policy family.
///
/// Recency is tracked with last-touch stamps as in [`crate::policy::Lru`];
/// an LRU-position insertion is implemented by stamping the fill *older*
/// than everything currently in the set.
#[derive(Debug, Clone)]
struct RecencyCore {
    assoc: usize,
    stamp: u64,
    // Monotone "old" stamp source for LRU-position inserts: decreases, so
    // successive LRU-inserts are ordered among themselves (older first).
    old_stamp: u64,
    last_touch: Vec<u64>,
}

impl RecencyCore {
    fn new(geom: &CacheGeometry) -> Self {
        RecencyCore {
            assoc: geom.associativity(),
            stamp: u64::MAX / 2,
            old_stamp: u64::MAX / 2,
            last_touch: vec![0; geom.num_lines()],
        }
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.stamp += 1;
        self.last_touch[set * self.assoc + way] = self.stamp;
    }

    fn on_fill(&mut self, set: usize, way: usize, ins: Insertion) {
        let stamp = match ins {
            Insertion::Mru => {
                self.stamp += 1;
                self.stamp
            }
            Insertion::Lru => {
                self.old_stamp -= 1;
                self.old_stamp
            }
        };
        self.last_touch[set * self.assoc + way] = stamp;
    }

    #[expect(clippy::expect_used, reason = "the associativity is non-zero")]
    fn victim(&self, set: usize) -> usize {
        let base = set * self.assoc;
        (0..self.assoc).min_by_key(|&w| self.last_touch[base + w]).expect("non-zero associativity")
    }
}

/// LRU-insertion policy: fills land at the LRU position.
#[derive(Debug, Clone)]
pub struct Lip {
    core: RecencyCore,
}

impl Lip {
    /// Creates LIP state for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Lip { core: RecencyCore::new(geom) }
    }
}

impl ReplacementPolicy for Lip {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.core.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx) {
        self.core.on_fill(set, way, Insertion::Lru);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.core.victim(set)
    }

    fn name(&self) -> &'static str {
        "lip"
    }
}

/// Bimodal-insertion policy: LIP with an epsilon of MRU insertions.
#[derive(Debug)]
pub struct Bip {
    core: RecencyCore,
    epsilon: f64,
    rng: DetRng,
}

/// MRU-insertion probability used by BIP in the original proposal (1/32).
pub const BIP_EPSILON: f64 = 1.0 / 32.0;

impl Bip {
    /// Creates BIP state with the canonical epsilon of 1/32.
    pub fn new(geom: &CacheGeometry, seed: u64) -> Self {
        Bip::with_epsilon(geom, seed, BIP_EPSILON)
    }

    /// Creates BIP state with an explicit MRU-insertion probability.
    pub fn with_epsilon(geom: &CacheGeometry, seed: u64, epsilon: f64) -> Self {
        Bip { core: RecencyCore::new(geom), epsilon, rng: DetRng::substream(seed, 0xb1b) }
    }

    fn choose_insertion(&mut self) -> Insertion {
        if self.rng.chance(self.epsilon) {
            Insertion::Mru
        } else {
            Insertion::Lru
        }
    }
}

impl ReplacementPolicy for Bip {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.core.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx) {
        let ins = self.choose_insertion();
        self.core.on_fill(set, way, ins);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.core.victim(set)
    }

    fn name(&self) -> &'static str {
        "bip"
    }
}

/// Dynamic-insertion policy: set-duels LRU (policy A) against BIP
/// (policy B).
#[derive(Debug)]
pub struct Dip {
    core: RecencyCore,
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
            core: RecencyCore::new(geom),
            selector: DuelingSelector::new(geom.num_sets(), leaders, 10),
            epsilon: BIP_EPSILON,
            rng: DetRng::substream(seed, 0xd1b),
        }
    }

    /// Whether followers currently insert MRU (LRU policy winning).
    pub fn lru_winning(&self) -> bool {
        self.selector.a_wins()
    }
}

impl ReplacementPolicy for Dip {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.core.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx) {
        // Short-circuit keeps the RNG stream identical: the epsilon draw
        // only happens for BIP-following sets, as before.
        let ins = if self.selector.use_a(set) || self.rng.chance(self.epsilon) {
            Insertion::Mru
        } else {
            Insertion::Lru
        };
        self.core.on_fill(set, way, ins);
    }

    fn on_miss(&mut self, set: usize, _ctx: &FillCtx) {
        self.selector.record_miss(set);
    }

    fn victim(&mut self, set: usize) -> usize {
        self.core.victim(set)
    }

    fn name(&self) -> &'static str {
        "dip"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::testutil::{one_set, touch};
    use crate::CacheGeometry;
    use nucache_common::{AccessKind, CoreId, LineAddr, Pc};

    #[test]
    fn lip_resists_thrash() {
        // Loop of assoc+1 lines: LRU gets 0 hits, LIP keeps assoc-1 of the
        // loop resident and hits on them every iteration.
        let g = one_set(4);
        let mut lip = BasicCache::new(g, Lip::new(&g));
        let mut hits = 0;
        for _ in 0..50 {
            for n in 0..5 {
                if touch(&mut lip, n) {
                    hits += 1;
                }
            }
        }
        assert!(hits >= 100, "LIP should retain part of the loop, got {hits} hits");
    }

    #[test]
    fn lip_loses_recency_friendly() {
        // Strong recency: always re-reference the newest line once.
        // LIP still works but must not crash; sanity check only.
        let g = one_set(2);
        let mut c = BasicCache::new(g, Lip::new(&g));
        touch(&mut c, 0);
        assert!(touch(&mut c, 0));
    }

    #[test]
    fn bip_eventually_rotates_working_set() {
        let g = one_set(4);
        let mut c = BasicCache::new(g, Bip::new(&g, 11));
        // Phase 1: lines 0..4 resident.
        for _ in 0..10 {
            for n in 0..4 {
                touch(&mut c, n);
            }
        }
        // Phase 2: switch working set to 10..14; epsilon-MRU insertions
        // must eventually admit the new set.
        let mut late_hits = 0;
        for round in 0..400 {
            for n in 10..14 {
                if touch(&mut c, n) && round > 200 {
                    late_hits += 1;
                }
            }
        }
        assert!(late_hits > 300, "BIP should adapt to the new working set, got {late_hits}");
    }

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
        assert!(!c.policy().lru_winning(), "thrash must drive DIP to BIP");
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
        assert!(c.policy().lru_winning());
        assert!(c.stats().hit_rate() > 0.9);
    }
}
