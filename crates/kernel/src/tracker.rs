//! Delinquency accounting: which insertion classes cause the misses.
//!
//! The DelinquentPC observation underpinning NUcache is that a handful of
//! sources produce most misses. This tracker maintains per-class miss
//! counters over a window, with exponential decay at epoch boundaries
//! and a hard cap on tracked classes so the structure stays bounded:
//! when full, the weakest entry is reclaimed for a newly hot class (a
//! standard victim-replacement counter table).
//!
//! Each tracked class owns one slot of a flat `(class, misses)` array
//! allocated at its full capacity in [`DelinquentTracker::new`], so it
//! never grows afterwards. An open-addressing index finds a class's slot
//! in constant expected time, and a lazy min-heap finds the weakest slot
//! to reclaim when the table is full.

use crate::index::{ClassIndex, MAX_SLOTS};
use alloc::vec::Vec;
use core::fmt::Debug;
use core::hash::Hash;

/// The seed of a tracker built by [`DelinquentTracker::new`]; the
/// kernel seeds its own from [`KernelConfig::seed`](crate::KernelConfig::seed).
const DEFAULT_SEED: u64 = 0x6e75_6361_6368_6521;

/// One min-heap node: a slot and the `(misses, class)` it held when the
/// node was last keyed.
#[derive(Debug, Clone, Copy)]
struct Node<C> {
    misses: u64,
    class: C,
    slot: usize,
}

impl<C: Ord> Node<C> {
    fn precedes(&self, other: &Self) -> bool {
        (self.misses, &self.class) < (other.misses, &other.class)
    }
}

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
    /// `(class, misses)` per slot, in no particular order. Every count is
    /// at least 1: entries start at 1 and decay drops the ones that
    /// reach 0.
    slots: Vec<(C, u64)>,
    /// Class → slot.
    index: ClassIndex,
    /// Min-heap on `(misses, class)`, one node per slot. A node's count
    /// is the slot's count when the node was last keyed; counts only
    /// grow between rebuilds, so every key is a lower bound of its
    /// slot's current `(misses, class)`.
    heap: Vec<Node<C>>,
    total_misses: u64,
}

/// Clones keep the full-capacity reservations, so a cloned tracker does
/// not allocate on `record_miss` either.
impl<C: Copy> Clone for DelinquentTracker<C> {
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.capacity);
        slots.extend_from_slice(&self.slots);
        let mut heap = Vec::with_capacity(self.capacity);
        heap.extend_from_slice(&self.heap);
        DelinquentTracker {
            capacity: self.capacity,
            slots,
            index: self.index.clone(),
            heap,
            total_misses: self.total_misses,
        }
    }
}

impl<C: Copy + Ord + Hash + Debug> DelinquentTracker<C> {
    /// Creates a tracker holding at most `capacity` classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above 2^31.
    pub fn new(capacity: usize) -> Self {
        Self::with_seed(capacity, DEFAULT_SEED)
    }

    /// [`new`](Self::new) with the class index hashed under `seed`.
    pub(crate) fn with_seed(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "zero capacity");
        assert!(capacity <= MAX_SLOTS, "capacity above the index's slot ids");
        DelinquentTracker {
            capacity,
            slots: Vec::with_capacity(capacity),
            index: ClassIndex::new(capacity, seed),
            heap: Vec::with_capacity(capacity),
            total_misses: 0,
        }
    }

    /// The slot tracking `class`, if any.
    #[inline]
    fn slot_of(&self, class: C, hash: u64) -> Option<usize> {
        self.index.lookup(hash, |s| self.slots[s].0 == class)
    }

    /// Records one miss caused by `class`.
    #[inline]
    pub fn record_miss(&mut self, class: C) {
        self.total_misses += 1;
        let hash = self.index.hash(&class);
        if let Some(slot) = self.slot_of(class, hash) {
            self.slots[slot].1 += 1;
            return;
        }
        self.admit(class, hash);
    }

    /// Starts tracking `class`, filed under `hash`, at one miss. Kept out
    /// of line: most misses come from a tracked class.
    #[inline(never)]
    fn admit(&mut self, class: C, hash: u64) {
        if self.slots.len() < self.capacity {
            let slot = self.slots.len();
            // audit:allow-alloc(tracker table preallocated at capacity in new; push only fills it)
            self.slots.push((class, 1));
            self.index.link(hash, slot);
            // audit:allow-alloc(tracker heap preallocated at capacity in new; push only fills it)
            self.heap.push(Node { misses: 1, class, slot });
            self.sift_up(self.heap.len() - 1);
            return;
        }
        // Full: reclaim the least `(misses, class)` slot, the first
        // minimum count in class order, for the newcomer.
        let victim = self.weakest();
        let old = self.slots[victim].0;
        self.index.unlink(self.index.hash(&old), victim);
        self.slots[victim] = (class, 1);
        self.index.link(hash, victim);
        self.heap[0] = Node { misses: 1, class, slot: victim };
        self.sift_down(0);
    }

    /// The slot with the least `(misses, class)`, left at the heap top:
    /// re-keys the top until its count is current. Each key is a lower
    /// bound, so a current top is the true minimum.
    /// Called only on a full table, so the heap holds `capacity` nodes.
    fn weakest(&mut self) -> usize {
        loop {
            let top = self.heap[0];
            let misses = self.slots[top.slot].1;
            if misses == top.misses {
                return top.slot;
            }
            self.heap[0].misses = misses;
            self.sift_down(0);
        }
    }

    /// Moves the node at `at` up to its place.
    fn sift_up(&mut self, mut at: usize) {
        let node = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if !node.precedes(&self.heap[parent]) {
                break;
            }
            self.heap[at] = self.heap[parent];
            at = parent;
        }
        self.heap[at] = node;
    }

    /// Moves the node at `at` down to its place.
    fn sift_down(&mut self, mut at: usize) {
        let node = self.heap[at];
        let len = self.heap.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].precedes(&self.heap[child]) {
                child += 1;
            }
            if !self.heap[child].precedes(&node) {
                break;
            }
            self.heap[at] = self.heap[child];
            at = child;
        }
        self.heap[at] = node;
    }

    /// Re-files every slot in the index and rebuilds the heap from the
    /// current counts (after the slots were compacted or cleared).
    fn rebuild(&mut self) {
        self.index.clear();
        self.heap.clear();
        for (slot, &(class, misses)) in self.slots.iter().enumerate() {
            self.index.link(self.index.hash(&class), slot);
            // audit:allow-alloc(tracker heap preallocated at capacity in new; push only fills it)
            self.heap.push(Node { misses, class, slot });
        }
        for at in (0..self.heap.len() / 2).rev() {
            self.sift_down(at);
        }
    }

    /// Misses recorded for `class` in the current window.
    pub fn misses_of(&self, class: C) -> u64 {
        self.slot_of(class, self.index.hash(&class)).map_or(0, |s| self.slots[s].1)
    }

    /// Total misses observed (including those from untracked classes).
    pub const fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// Number of classes currently tracked.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no class has missed yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `k` classes with the most misses, descending (ties broken by
    /// class for determinism).
    pub fn top_k(&self, k: usize) -> Vec<(C, u64)> {
        let mut v = self.slots.to_vec();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Fraction of tracked misses covered by the top `k` classes (the
    /// DelinquentPC concentration statistic of the paper's Fig. 1).
    pub fn top_k_coverage(&self, k: usize) -> f64 {
        let tracked: u64 = self.slots.iter().map(|&(_, c)| c).sum();
        if tracked == 0 {
            return 0.0;
        }
        let top: u64 = self.top_k(k).iter().map(|&(_, c)| c).sum();
        top as f64 / tracked as f64
    }

    /// Halves every counter and drops emptied entries (epoch decay).
    pub fn decay(&mut self) {
        for e in &mut self.slots {
            e.1 /= 2;
        }
        self.slots.retain(|e| e.1 > 0);
        self.rebuild();
        self.total_misses /= 2;
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.rebuild();
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
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "reduced modulo a small capacity right after"
                        )]
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

    /// Replays `script` against both sides, as the flat-table test does,
    /// drawing classes below `classes`.
    fn replay(capacity: usize, classes: u64, script: &[(u64, u64)]) {
        let mut t = DelinquentTracker::new(capacity);
        let mut o = Oracle::new(capacity);
        for (i, &(roll, raw)) in script.iter().enumerate() {
            match roll {
                0..=1 => {
                    t.decay();
                    o.decay();
                }
                2 => {
                    t.clear();
                    o.clear();
                }
                _ => {
                    t.record_miss(class(raw % classes));
                    o.record_miss(raw % classes);
                }
            }
            if i % 64 == 0 {
                assert_same(&t, &o, capacity);
            }
        }
        assert_same(&t, &o, capacity);
    }

    /// Runs of misses per case: the index's wrap-around and deletion
    /// paths at the kernel's default size.
    const LONG_SCRIPT: usize = if cfg!(miri) { 200 } else { 6_000 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 16 }))]

        /// The kernel's default tracker size under up to 4x as many
        /// classes, with rare decays and clears: most misses land on a
        /// full table and reclaim a slot.
        #[test]
        fn default_size_matches_btree_oracle(
            classes in 257u64..1_025,
            script in prop::collection::vec((0u64..1000, 0u64..1_024), LONG_SCRIPT),
        ) {
            replay(256, classes, &script);
        }

        /// Capacities up to 300, including the non-power-of-two sizes
        /// whose index tables are least full.
        #[test]
        fn capacities_up_to_300_match_btree_oracle(
            capacity in 24usize..301,
            script in prop::collection::vec((0u64..1000, 0u64..1_200), LONG_SCRIPT / 2),
        ) {
            replay(capacity, 4 * capacity as u64, &script);
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
        assert_eq!((c.slots.capacity(), c.heap.capacity()), (16, 16));
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
