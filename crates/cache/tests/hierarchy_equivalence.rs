//! `PrivateHierarchy` stores each private level as recency-ordered tag
//! rows. This test drives it beside a reference hierarchy built from two
//! `BasicCache<Lru>`s, which keep a rank row per set in their
//! `SetArray`, composed the way the hierarchy is specified
//! (fill both levels on the way in, a dirty L1 victim re-touches its L2
//! copy as a write or is dropped, a dirty L2 victim is the write-back),
//! and requires the same `PrivateOutcome`, write-back line included, at
//! every step.

use nucache_cache::hierarchy::{PrivateHierarchy, PrivateOutcome};
use nucache_cache::policy::Lru;
use nucache_cache::{BasicCache, CacheGeometry};
use nucache_common::{AccessKind, CoreId, DetRng, LineAddr, Pc};
use proptest::prelude::*;

const WAYS: [usize; 7] = [1, 2, 3, 4, 8, 16, 64];

/// The private hierarchy as two policy-driven caches.
struct Reference {
    core: CoreId,
    l1: BasicCache<Lru>,
    l2: BasicCache<Lru>,
}

impl Reference {
    fn new(l1: CacheGeometry, l2: CacheGeometry) -> Self {
        Reference {
            core: CoreId::new(0),
            l1: BasicCache::new(l1, Lru::new(&l1)),
            l2: BasicCache::new(l2, Lru::new(&l2)),
        }
    }

    fn access(&mut self, pc: Pc, line: LineAddr, kind: AccessKind) -> PrivateOutcome {
        let l1_out = self.l1.access(line, kind, self.core, pc);
        if l1_out.is_hit() {
            return PrivateOutcome::L1Hit;
        }
        if let Some(ev) = l1_out.evicted().filter(|ev| ev.dirty) {
            if self.l2.probe(ev.line) {
                self.l2.access(ev.line, AccessKind::Write, self.core, pc);
            }
        }
        let l2_out = self.l2.access(line, kind, self.core, pc);
        if l2_out.is_hit() {
            return PrivateOutcome::L2Hit;
        }
        PrivateOutcome::LlcAccess {
            writeback: l2_out.evicted().filter(|ev| ev.dirty).map(|ev| ev.line),
        }
    }
}

fn geometry(ways: usize, set_bits: u32) -> CacheGeometry {
    CacheGeometry::new(64 * ways as u64 * (1 << set_bits), ways, 64)
}

/// The shape of one random access stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    seed: u64,
    steps: usize,
    /// Distinct keys drawn from.
    span: u64,
    /// Keys are spaced `1 << stride_bits` lines apart, so a stride of at
    /// least the set count puts every key in one set.
    stride_bits: u32,
    /// Share of accesses that go to the first `span / 16` keys.
    hot: f64,
    writes: f64,
}

fn check(l1: CacheGeometry, l2: CacheGeometry, s: Stream) {
    let mut fast = PrivateHierarchy::new(CoreId::new(0), l1, l2);
    let mut reference = Reference::new(l1, l2);
    let mut rng = DetRng::seed(s.seed);
    // Half the streams include line 0, the value an empty row holds.
    let base = if s.seed.is_multiple_of(2) { 0 } else { rng.next_u64() >> 20 };
    let (mut reaches_llc, mut writebacks) = (0u64, 0u64);
    for step in 0..s.steps {
        let key =
            if rng.chance(s.hot) { rng.below((s.span / 16).max(1)) } else { rng.below(s.span) };
        let line = LineAddr::new(base + (key << s.stride_bits));
        let kind = if rng.chance(s.writes) { AccessKind::Write } else { AccessKind::Read };
        let pc = Pc::new(rng.below(8));
        let got = fast.access(pc, line, kind);
        let want = reference.access(pc, line, kind);
        assert_eq!(got, want, "step {step}: {kind:?} {line} on L1 {l1:?}, L2 {l2:?}, {s:?}");
        if let PrivateOutcome::LlcAccess { writeback } = got {
            reaches_llc += 1;
            writebacks += u64::from(writeback.is_some());
        }
    }
    // A stream far above the L2's capacity must reach the LLC; this keeps
    // the comparison from passing on a hierarchy that never misses.
    if s.span > 4 * l2.num_lines() as u64 && s.hot < 0.5 {
        assert!(reaches_llc > 0, "no access reached the LLC: {s:?}");
        if s.writes > 0.5 && s.steps > 8 * l2.num_lines() {
            assert!(writebacks > 0, "no dirty L2 victim surfaced: {s:?}");
        }
    }
}

/// Every listed associativity at both levels, one stream each from
/// within a set's ways to far beyond the L2.
#[test]
fn every_listed_associativity_matches_the_reference() {
    for (i, &l1_ways) in WAYS.iter().enumerate() {
        for (j, &l2_ways) in WAYS.iter().enumerate() {
            let l1 = geometry(l1_ways, 1);
            let l2 = geometry(l2_ways, 3);
            let span = [l1_ways as u64 / 2 + 1, 64 * l2.num_lines() as u64][(i + j) % 2];
            let s = Stream {
                seed: (i * WAYS.len() + j) as u64,
                steps: 4_000,
                span,
                stride_bits: 0,
                hot: 0.3,
                writes: 0.6,
            };
            check(l1, l2, s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random geometries (1 to 64 sets per level, any listed
    /// associativity), key spans from below one set's ways to 64x the
    /// L2's capacity, strides up to 256 lines, and any read/write mix.
    #[test]
    fn hierarchy_matches_two_basic_caches(
        ways in (0usize..WAYS.len(), 0usize..WAYS.len()),
        set_bits in (0u32..=6, 0u32..=6),
        span_bits in 0u32..=18,
        stride_bits in 0u32..=8,
        mix in (0u32..=100, 0u32..=100),
        seed in any::<u64>(),
    ) {
        let l1 = geometry(WAYS[ways.0], set_bits.0);
        let l2 = geometry(WAYS[ways.1], set_bits.1);
        let s = Stream {
            seed,
            steps: 3_000,
            span: 1u64 << span_bits,
            stride_bits,
            hot: f64::from(mix.0) / 100.0,
            writes: f64::from(mix.1) / 100.0,
        };
        check(l1, l2, s);
    }
}
