//! The Next-Use monitor.
//!
//! The Next-Use distance of an entry is the number of accesses to its set
//! between its eviction from the MainWays and the next request for it.
//! This is exactly the quantity DeliWays retention can convert into a
//! hit: an entry whose Next-Use distance is within the extra lifetime the
//! DeliWays provide would have hit had its insertion class been chosen.
//!
//! Measuring Next-Use for every entry would be prohibitively expensive
//! (the hardware design set-samples for the same reason), so the monitor
//! observes one set in `2^sample_shift`: MainWays evictions there are
//! recorded into a small circular buffer of `(tag, class,
//! eviction-time)` entries; when a later request in the same set matches
//! a buffered tag, the elapsed set-access count is recorded into the
//! evicting class's log2 histogram.

use alloc::collections::BTreeMap;
use alloc::vec;
use alloc::vec::Vec;
use core::fmt::Debug;
use nucache_common::Log2Histogram;

/// One buffered eviction awaiting its next use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending<C> {
    tag: u64,
    class: C,
    evicted_at: u64,
}

/// Per-sampled-set state: a circular eviction buffer and an access clock.
#[derive(Debug, Clone)]
struct SetMonitor<C> {
    buffer: Vec<Option<Pending<C>>>,
    next_slot: usize,
    clock: u64,
}

impl<C: Copy> SetMonitor<C> {
    fn new(depth: usize) -> Self {
        SetMonitor { buffer: vec![None; depth], next_slot: 0, clock: 0 }
    }
}

/// Sampled Next-Use monitoring across the cache, generic over the
/// insertion-class type `C` (the simulator instantiates it with a
/// program counter, a library embedder with
/// [`InsertionClass`](crate::InsertionClass)).
///
/// Keys are the same raw `u64` keys the kernel is addressed with; the
/// monitor splits them into set index (low `set_bits` bits) and tag.
///
/// # Examples
///
/// ```
/// use nucache_kernel::monitor::NextUseMonitor;
/// use nucache_kernel::InsertionClass;
///
/// // 16 sets (set_bits = 4), sample every set, 4-deep buffers.
/// let mut m: NextUseMonitor<InsertionClass> = NextUseMonitor::new(4, 0, 4, 16);
/// let key = 0x30;
/// m.on_set_access(key);
/// m.on_evict(key, InsertionClass::new(7));
/// m.on_set_access(key);
/// m.on_set_access(key);
/// assert_eq!(m.on_next_use(key), Some((InsertionClass::new(7), 2)));
/// ```
#[derive(Debug)]
pub struct NextUseMonitor<C> {
    set_bits: u32,
    sample_shift: u32,
    depth: usize,
    buckets: usize,
    sets: Vec<SetMonitor<C>>,
    /// Per-class histograms in a `BTreeMap`: consumers iterate these when
    /// building selection candidates, and class-ordered traversal keeps
    /// the whole selection pipeline independent of hasher state.
    histograms: BTreeMap<C, Log2Histogram>,
    /// Total accesses observed in sampled sets (rate denominators).
    sampled_accesses: u64,
    /// Evictions recorded / matched (monitor effectiveness stats).
    recorded: u64,
    matched: u64,
}

impl<C: Copy + Ord + Debug> NextUseMonitor<C> {
    /// Creates a monitor over a cache with `2^set_bits` sets, sampling
    /// one set in `2^sample_shift`, with per-set buffers of `depth`
    /// entries and `buckets`-bucket histograms.
    ///
    /// # Panics
    ///
    /// Panics if the sampling leaves no sets, or `depth` is zero.
    pub fn new(set_bits: u32, sample_shift: u32, depth: usize, buckets: usize) -> Self {
        let num_sets = 1usize << set_bits;
        let sampled = num_sets >> sample_shift;
        assert!(sampled > 0, "sampling eliminates every set");
        assert!(depth > 0, "zero buffer depth");
        NextUseMonitor {
            set_bits,
            sample_shift,
            depth,
            buckets,
            sets: (0..sampled).map(|_| SetMonitor::new(depth)).collect(),
            histograms: BTreeMap::new(),
            sampled_accesses: 0,
            recorded: 0,
            matched: 0,
        }
    }

    fn sampled_index(&self, key: u64) -> Option<usize> {
        #[expect(clippy::cast_possible_truncation, reason = "masked below the set count")]
        let set = (key & ((1u64 << self.set_bits) - 1)) as usize;
        if set & ((1usize << self.sample_shift) - 1) != 0 {
            None
        } else {
            Some(set >> self.sample_shift)
        }
    }

    /// Advances the sampled set's access clock (call on *every* access to
    /// the cache; unsampled sets are ignored cheaply).
    pub fn on_set_access(&mut self, key: u64) {
        if let Some(i) = self.sampled_index(key) {
            self.sets[i].clock += 1;
            self.sampled_accesses += 1;
        }
    }

    /// Records a MainWays eviction of `key`, inserted by `class`.
    pub fn on_evict(&mut self, key: u64, class: C) {
        let Some(i) = self.sampled_index(key) else { return };
        let tag = key >> self.set_bits;
        let sm = &mut self.sets[i];
        let entry = Pending { tag, class, evicted_at: sm.clock };
        sm.buffer[sm.next_slot] = Some(entry);
        sm.next_slot = (sm.next_slot + 1) % self.depth;
        self.recorded += 1;
    }

    /// Reports that `key` was requested again after a MainWays eviction —
    /// on a miss, *or* on a DeliWays hit (a salvaged next use is still a
    /// next use; without this, a chosen class's evidence would disappear
    /// the moment choosing it starts working, and selection would
    /// oscillate). If the key's eviction is buffered, its Next-Use
    /// distance is recorded and `(class, distance)` returned.
    pub fn on_next_use(&mut self, key: u64) -> Option<(C, u64)> {
        let i = self.sampled_index(key)?;
        let tag = key >> self.set_bits;
        let sm = &mut self.sets[i];
        let slot = sm.buffer.iter().position(|e| matches!(e, Some(p) if p.tag == tag))?;
        #[expect(clippy::expect_used, reason = "the slot just matched a pending eviction")]
        let pending = sm.buffer[slot].take().expect("slot just matched");
        let distance = sm.clock - pending.evicted_at;
        self.matched += 1;
        let buckets = self.buckets;
        self.histograms
            .entry(pending.class)
            // audit:allow-alloc(lazy per-class histogram, bounded by live classes)
            .or_insert_with(|| Log2Histogram::new(buckets))
            .record(distance);
        Some((pending.class, distance))
    }

    /// The Next-Use histogram of `class`, if any distance has been
    /// recorded.
    pub fn histogram(&self, class: C) -> Option<&Log2Histogram> {
        self.histograms.get(&class)
    }

    /// All per-class histograms, in class order.
    pub fn histograms(&self) -> &BTreeMap<C, Log2Histogram> {
        &self.histograms
    }

    /// Accesses observed in sampled sets.
    pub const fn sampled_accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// Evictions recorded into buffers.
    pub const fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Buffered evictions later matched by a request.
    pub const fn matched(&self) -> u64 {
        self.matched
    }

    /// Number of sets being sampled.
    pub fn sampled_sets(&self) -> usize {
        self.sets.len()
    }

    /// Epoch decay: halves histogram mass and the rate denominators, and
    /// drops empty histograms.
    pub fn decay(&mut self) {
        self.histograms.retain(|_, h| {
            h.decay();
            h.total() > 0
        });
        self.sampled_accesses /= 2;
        self.recorded /= 2;
        self.matched /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionClass;

    fn key_in_set(set: u64, tag: u64, set_bits: u32) -> u64 {
        (tag << set_bits) | set
    }

    fn class(raw: u64) -> InsertionClass {
        InsertionClass::new(raw)
    }

    #[test]
    fn distance_counts_set_accesses_only() {
        let mut m = NextUseMonitor::new(4, 0, 4, 16);
        let target = key_in_set(2, 7, 4);
        let other_set = key_in_set(3, 1, 4);
        m.on_set_access(target);
        m.on_evict(target, class(0x10));
        // Accesses to a different set must not advance this set's clock.
        for _ in 0..10 {
            m.on_set_access(other_set);
        }
        m.on_set_access(target);
        m.on_set_access(target);
        m.on_set_access(target);
        assert_eq!(m.on_next_use(target), Some((class(0x10), 3)));
    }

    #[test]
    fn unmatched_request_returns_none() {
        let mut m: NextUseMonitor<InsertionClass> = NextUseMonitor::new(4, 0, 4, 16);
        assert_eq!(m.on_next_use(key_in_set(0, 9, 4)), None);
    }

    #[test]
    fn entry_consumed_after_match() {
        let mut m = NextUseMonitor::new(4, 0, 4, 16);
        let k = key_in_set(0, 9, 4);
        m.on_evict(k, class(1));
        assert!(m.on_next_use(k).is_some());
        assert!(m.on_next_use(k).is_none(), "matched entries must be consumed");
    }

    #[test]
    fn circular_buffer_overwrites_oldest() {
        let mut m = NextUseMonitor::new(4, 0, 2, 16);
        let k1 = key_in_set(0, 1, 4);
        let k2 = key_in_set(0, 2, 4);
        let k3 = key_in_set(0, 3, 4);
        m.on_evict(k1, class(1));
        m.on_evict(k2, class(2));
        m.on_evict(k3, class(3)); // overwrites k1
        assert!(m.on_next_use(k1).is_none());
        assert!(m.on_next_use(k2).is_some());
        assert!(m.on_next_use(k3).is_some());
    }

    #[test]
    fn sampling_skips_unsampled_sets() {
        let mut m = NextUseMonitor::new(4, 2, 4, 16); // sets 0,4,8,12 sampled
        let sampled = key_in_set(4, 1, 4);
        let unsampled = key_in_set(5, 1, 4);
        m.on_set_access(sampled);
        m.on_set_access(unsampled);
        assert_eq!(m.sampled_accesses(), 1);
        m.on_evict(unsampled, class(1));
        assert_eq!(m.recorded(), 0);
        assert_eq!(m.sampled_sets(), 4);
    }

    #[test]
    fn histograms_accumulate_per_class() {
        let mut m = NextUseMonitor::new(4, 0, 8, 16);
        let c = class(0x40);
        for tag in 0..5u64 {
            let k = key_in_set(0, 10 + tag, 4);
            m.on_evict(k, c);
            m.on_set_access(k);
            m.on_set_access(k);
            assert!(m.on_next_use(k).is_some());
        }
        let h = m.histogram(c).expect("histogram exists");
        assert_eq!(h.total(), 5);
        assert_eq!(m.matched(), 5);
    }

    #[test]
    fn decay_prunes_empty_histograms() {
        let mut m = NextUseMonitor::new(4, 0, 4, 16);
        let k = key_in_set(0, 1, 4);
        m.on_evict(k, class(7));
        m.on_set_access(k);
        m.on_next_use(k);
        assert_eq!(m.histogram(class(7)).unwrap().total(), 1);
        m.decay();
        assert!(m.histogram(class(7)).is_none(), "single-sample histogram decays away");
    }
}
