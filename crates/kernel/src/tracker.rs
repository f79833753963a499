//! Delinquency accounting: which insertion classes cause the misses.
//!
//! The DelinquentPC observation underpinning NUcache is that a handful of
//! sources produce most misses. This tracker maintains per-class miss
//! counters over a window, with exponential decay at epoch boundaries
//! and a hard cap on tracked classes so the structure stays bounded:
//! when full, the weakest entry is reclaimed for a newly hot class (a
//! standard victim-replacement counter table).
//!
//! The table is one flat array of `(class, misses)` pairs kept sorted by
//! class and allocated at its full capacity in [`DelinquentTracker::new`],
//! so it never grows afterwards: a lookup is a binary search, and a
//! reclaim is a scan for the weakest count plus one shift of the entries
//! between the victim and the newcomer's slot.

use alloc::vec::Vec;
use core::fmt::Debug;

/// Per-class miss counters with bounded capacity and epoch decay,
/// generic over the insertion-class type `C`.
///
/// # Examples
///
/// ```
/// use nucache_kernel::tracker::DelinquentTracker;
/// use nucache_kernel::InsertionClass;
///
/// let mut t = DelinquentTracker::new(8);
/// t.record_miss(InsertionClass::new(0x400));
/// t.record_miss(InsertionClass::new(0x400));
/// t.record_miss(InsertionClass::new(0x408));
/// let top = t.top_k(1);
/// assert_eq!(top[0].0, InsertionClass::new(0x400));
/// assert_eq!(top[0].1, 2);
/// ```
#[derive(Debug)]
pub struct DelinquentTracker<C> {
    capacity: usize,
    /// `(class, misses)` sorted by class, so every scan (victim search,
    /// top-k) visits entries in class order — tie-breaks are
    /// deterministic by construction. Every count is at least 1: entries
    /// start at 1 and decay drops the ones that reach 0.
    entries: Vec<(C, u64)>,
    total_misses: u64,
}

/// Clones keep the full-capacity reservation, so a cloned tracker does
/// not allocate on `record_miss` either.
impl<C: Copy> Clone for DelinquentTracker<C> {
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(self.capacity);
        entries.extend_from_slice(&self.entries);
        DelinquentTracker { capacity: self.capacity, entries, total_misses: self.total_misses }
    }
}

impl<C: Copy + Ord + Debug> DelinquentTracker<C> {
    /// Creates a tracker holding at most `capacity` classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero capacity");
        DelinquentTracker { capacity, entries: Vec::with_capacity(capacity), total_misses: 0 }
    }

    /// Records one miss caused by `class`.
    pub fn record_miss(&mut self, class: C) {
        self.total_misses += 1;
        let at = match self.entries.binary_search_by(|e| e.0.cmp(&class)) {
            Ok(i) => {
                self.entries[i].1 += 1;
                return;
            }
            Err(at) => at,
        };
        if self.entries.len() < self.capacity {
            // audit:allow-alloc(tracker table preallocated at capacity in new; insert only shifts)
            self.entries.insert(at, (class, 1));
            return;
        }
        // Reclaim the weakest entry and shift the ones between it and
        // the newcomer's slot by one, keeping the table sorted.
        let victim = self.weakest();
        if victim < at {
            self.entries[victim..at].rotate_left(1);
            self.entries[at - 1] = (class, 1);
        } else {
            self.entries[at..=victim].rotate_right(1);
            self.entries[at] = (class, 1);
        }
    }

    /// Index of the first entry, in class order, holding the smallest
    /// count. No count is below 1, so the first 1 ends the scan.
    fn weakest(&self) -> usize {
        let mut victim = 0;
        let mut least = u64::MAX;
        for (i, &(_, misses)) in self.entries.iter().enumerate() {
            if misses < least {
                victim = i;
                least = misses;
                if misses == 1 {
                    break;
                }
            }
        }
        victim
    }

    /// Misses recorded for `class` in the current window.
    pub fn misses_of(&self, class: C) -> u64 {
        self.entries.binary_search_by(|e| e.0.cmp(&class)).map_or(0, |i| self.entries[i].1)
    }

    /// Total misses observed (including those from untracked classes).
    pub const fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// Number of classes currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no class has missed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` classes with the most misses, descending (ties broken by
    /// class for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(C, u64)> {
        let mut v = self.entries.to_vec();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Fraction of tracked misses covered by the top `k` classes (the
    /// DelinquentPC concentration statistic of the paper's Fig. 1).
    pub fn top_k_coverage(&self, k: usize) -> f64 {
        let tracked: u64 = self.entries.iter().map(|&(_, c)| c).sum();
        if tracked == 0 {
            return 0.0;
        }
        let top: u64 = self.top_k(k).iter().map(|&(_, c)| c).sum();
        top as f64 / tracked as f64
    }

    /// Halves every counter and drops emptied entries (epoch decay).
    pub fn decay(&mut self) {
        for e in &mut self.entries {
            e.1 /= 2;
        }
        self.entries.retain(|e| e.1 > 0);
        self.total_misses /= 2;
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionClass;
    use alloc::collections::BTreeMap;
    use alloc::vec;
    use proptest::prelude::*;

    fn class(raw: u64) -> InsertionClass {
        InsertionClass::new(raw)
    }

    /// Reference model: a `BTreeMap` whose full-table reclaim takes
    /// `min_by_key` in class order. The flat table must match it
    /// decision for decision.
    struct Oracle {
        capacity: usize,
        misses: BTreeMap<u64, u64>,
        total_misses: u64,
    }

    impl Oracle {
        fn new(capacity: usize) -> Self {
            Oracle { capacity, misses: BTreeMap::new(), total_misses: 0 }
        }

        fn record_miss(&mut self, class: u64) {
            self.total_misses += 1;
            if let Some(c) = self.misses.get_mut(&class) {
                *c += 1;
                return;
            }
            if self.misses.len() >= self.capacity {
                let victim = self
                    .misses
                    .iter()
                    .min_by_key(|&(_, c)| *c)
                    .map(|(p, _)| *p)
                    .expect("non-empty map at capacity");
                self.misses.remove(&victim);
            }
            self.misses.insert(class, 1);
        }

        fn top_k(&self, k: usize) -> Vec<(InsertionClass, u64)> {
            let mut v: Vec<(InsertionClass, u64)> =
                self.misses.iter().map(|(&p, &c)| (class(p), c)).collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v.truncate(k);
            v
        }

        fn decay(&mut self) {
            self.misses.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            self.total_misses /= 2;
        }

        fn clear(&mut self) {
            self.misses.clear();
            self.total_misses = 0;
        }
    }

    fn assert_same(t: &DelinquentTracker<InsertionClass>, o: &Oracle, capacity: usize) {
        assert_eq!(t.len(), o.misses.len());
        assert_eq!(t.total_misses(), o.total_misses);
        assert_eq!(t.top_k(t.len()), o.top_k(o.misses.len()));
        for raw in 0..4 * capacity as u64 {
            assert_eq!(t.misses_of(class(raw)), o.misses.get(&raw).copied().unwrap_or(0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// The flat table reclaims the same victim as the `BTreeMap`
        /// oracle on every step, over streams of up to 4× capacity
        /// classes with decay, top-k and clear interleaved.
        #[test]
        fn flat_table_matches_btree_oracle(
            capacity in 1usize..24,
            script in prop::collection::vec((0u64..1000, 0u64..96), 1..400),
        ) {
            let mut t = DelinquentTracker::new(capacity);
            let mut o = Oracle::new(capacity);
            let classes = 4 * capacity as u64;
            for &(roll, raw) in &script {
                // Mostly misses, with the epoch operations interleaved.
                match roll {
                    0..=11 => {
                        t.decay();
                        o.decay();
                    }
                    12..=19 => {
                        let k = raw as usize % (capacity + 2);
                        prop_assert_eq!(t.top_k(k), o.top_k(k));
                    }
                    20..=21 => {
                        t.clear();
                        o.clear();
                    }
                    _ => {
                        t.record_miss(class(raw % classes));
                        o.record_miss(raw % classes);
                    }
                }
                assert_same(&t, &o, capacity);
            }
        }
    }

    #[test]
    fn tie_at_the_minimum_reclaims_the_lowest_class() {
        // Classes 5 and 9 tie at one miss each, 7 has two: a newcomer
        // must reclaim 5 (first minimum in class order), not 9.
        let mut t = DelinquentTracker::new(3);
        for raw in [9, 7, 7, 5] {
            t.record_miss(class(raw));
        }
        t.record_miss(class(8));
        assert_eq!(t.misses_of(class(5)), 0, "the lowest tied class is reclaimed");
        assert_eq!(t.misses_of(class(9)), 1);
        assert_eq!(t.top_k(3), vec![(class(7), 2), (class(8), 1), (class(9), 1)]);
        // Same tie above the floor count: 2 and 6 both at two misses.
        let mut t = DelinquentTracker::new(3);
        for raw in [6, 6, 2, 2, 4, 4, 4] {
            t.record_miss(class(raw));
        }
        t.record_miss(class(1));
        assert_eq!(t.top_k(3), vec![(class(4), 3), (class(6), 2), (class(1), 1)]);
    }

    #[test]
    fn clone_keeps_the_reservation() {
        let mut t = DelinquentTracker::new(16);
        t.record_miss(class(1));
        let c = t.clone();
        assert_eq!(c.entries.capacity(), 16);
        assert_eq!(c.top_k(1), t.top_k(1));
    }

    #[test]
    fn counts_and_orders() {
        let mut t = DelinquentTracker::new(16);
        for _ in 0..5 {
            t.record_miss(class(1));
        }
        for _ in 0..3 {
            t.record_miss(class(2));
        }
        t.record_miss(class(3));
        let top = t.top_k(2);
        assert_eq!(top, vec![(class(1), 5), (class(2), 3)]);
        assert_eq!(t.total_misses(), 9);
        assert_eq!(t.misses_of(class(3)), 1);
        assert_eq!(t.misses_of(class(99)), 0);
    }

    #[test]
    fn capacity_evicts_weakest() {
        let mut t = DelinquentTracker::new(2);
        for _ in 0..10 {
            t.record_miss(class(1));
        }
        t.record_miss(class(2));
        t.record_miss(class(3)); // evicts class 2 (weakest)
        assert_eq!(t.len(), 2);
        assert_eq!(t.misses_of(class(2)), 0);
        assert_eq!(t.misses_of(class(1)), 10);
        assert_eq!(t.misses_of(class(3)), 1);
    }

    #[test]
    fn coverage_concentrates() {
        let mut t = DelinquentTracker::new(64);
        for _ in 0..90 {
            t.record_miss(class(7));
        }
        for p in 0..10 {
            t.record_miss(class(100 + p));
        }
        assert!(t.top_k_coverage(1) > 0.89);
        assert!((t.top_k_coverage(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decay_halves_and_prunes() {
        let mut t = DelinquentTracker::new(8);
        t.record_miss(class(1));
        for _ in 0..4 {
            t.record_miss(class(2));
        }
        t.decay();
        assert_eq!(t.misses_of(class(1)), 0, "count 1 decays to 0 and is pruned");
        assert_eq!(t.misses_of(class(2)), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_edge_cases() {
        let t: DelinquentTracker<InsertionClass> = DelinquentTracker::new(4);
        assert!(t.is_empty());
        assert_eq!(t.top_k(3), vec![]);
        assert_eq!(t.top_k_coverage(3), 0.0);
    }
}
