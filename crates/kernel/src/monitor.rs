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
//! recorded into a circular buffer of [`MONITOR_DEPTH`] `(tag, class,
//! eviction-time)` entries; when a later request in the same set matches
//! a buffered tag, the elapsed set-access count is recorded into the
//! evicting class's log2 histogram.

use crate::config::{HISTOGRAM_BUCKETS, MONITOR_DEPTH};
use alloc::collections::BTreeMap;
use alloc::vec;
use alloc::vec::Vec;
use core::fmt::Debug;
use nucache_common::tags::eq_mask;
use nucache_common::Log2Histogram;

/// Per-sampled-set position: the next buffer slot to overwrite and the
/// set's access clock.
#[derive(Debug, Clone, Copy, Default)]
struct SetClock {
    next_slot: usize,
    clock: u64,
}

/// Sampled Next-Use monitoring across the cache, generic over the
/// insertion-class type `C` (the simulator instantiates it with a
/// program counter, a library embedder with
/// [`InsertionClass`](crate::InsertionClass)).
///
/// Keys are the same raw `u64` keys the kernel is addressed with; the
/// monitor splits them into set index (low `set_bits` bits) and tag.
///
/// Each sampled set's buffer is a row of [`MONITOR_DEPTH`] tags with a
/// 64-bit occupancy mask beside its pending `(class, evicted_at)`
/// entries, so finding a buffered eviction is one [`eq_mask`].
///
/// # Examples
///
/// ```
/// use nucache_kernel::monitor::NextUseMonitor;
/// use nucache_kernel::InsertionClass;
///
/// // 16 sets (set_bits = 4), sample every set.
/// let mut m: NextUseMonitor<InsertionClass> = NextUseMonitor::new(4, 0);
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
    clocks: Vec<SetClock>,
    /// [`MONITOR_DEPTH`] buffered tags per sampled set; a slot's tag
    /// counts only while its occupancy bit is set.
    tags: Vec<u64>,
    /// Occupancy mask per sampled set, bit `i` for slot `i`.
    occupied: Vec<u64>,
    /// [`MONITOR_DEPTH`] `(class, evicted_at)` entries per sampled set;
    /// `Some` exactly where the occupancy bit is set.
    pending: Vec<Option<(C, u64)>>,
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
    /// one set in `2^sample_shift`.
    ///
    /// # Panics
    ///
    /// Panics if the sampling leaves no sets.
    pub fn new(set_bits: u32, sample_shift: u32) -> Self {
        let num_sets = 1usize << set_bits;
        let sampled = num_sets >> sample_shift;
        assert!(sampled > 0, "sampling eliminates every set");
        NextUseMonitor {
            set_bits,
            sample_shift,
            clocks: vec![SetClock::default(); sampled],
            tags: vec![0; sampled * MONITOR_DEPTH],
            occupied: vec![0; sampled],
            pending: vec![None; sampled * MONITOR_DEPTH],
            histograms: BTreeMap::new(),
            sampled_accesses: 0,
            recorded: 0,
            matched: 0,
        }
    }

    #[inline]
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
    #[inline]
    pub fn on_set_access(&mut self, key: u64) {
        if let Some(i) = self.sampled_index(key) {
            self.clocks[i].clock += 1;
            self.sampled_accesses += 1;
        }
    }

    /// Records a MainWays eviction of `key`, inserted by `class`.
    #[inline]
    pub fn on_evict(&mut self, key: u64, class: C) {
        if let Some(i) = self.sampled_index(key) {
            self.buffer(i, key, class);
        }
    }

    /// Buffers an eviction of `key` in sampled set `i`. Kept out of line,
    /// like [`next_use`](Self::next_use): callers inline only the
    /// sampled-set test, which is all most calls do.
    #[inline(never)]
    fn buffer(&mut self, i: usize, key: u64, class: C) {
        let at = self.clocks[i];
        let slot = i * MONITOR_DEPTH + at.next_slot;
        self.tags[slot] = key >> self.set_bits;
        self.pending[slot] = Some((class, at.clock));
        self.occupied[i] |= 1 << at.next_slot;
        self.clocks[i].next_slot = (at.next_slot + 1) % MONITOR_DEPTH;
        self.recorded += 1;
    }

    /// The first occupied slot of sampled set `i` holding `tag`: one
    /// compare over the set's tag row.
    fn buffered(&self, i: usize, tag: u64) -> Option<usize> {
        let row = &self.tags[i * MONITOR_DEPTH..(i + 1) * MONITOR_DEPTH];
        let hits = eq_mask(row, tag) & self.occupied[i];
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Reports that `key` was requested again after a MainWays eviction —
    /// on a miss, *or* on a DeliWays hit (a salvaged next use is still a
    /// next use; without this, a chosen class's evidence would disappear
    /// the moment choosing it starts working, and selection would
    /// oscillate). If the key's eviction is buffered, its Next-Use
    /// distance is recorded and `(class, distance)` returned.
    #[inline]
    pub fn on_next_use(&mut self, key: u64) -> Option<(C, u64)> {
        let i = self.sampled_index(key)?;
        self.next_use(i, key)
    }

    /// [`on_next_use`](Self::on_next_use) in sampled set `i`.
    #[inline(never)]
    fn next_use(&mut self, i: usize, key: u64) -> Option<(C, u64)> {
        let slot = self.buffered(i, key >> self.set_bits)?;
        self.occupied[i] &= !(1 << slot);
        let (class, evicted_at) = self.pending[i * MONITOR_DEPTH + slot].take()?;
        let distance = self.clocks[i].clock - evicted_at;
        self.matched += 1;
        self.histograms
            .entry(class)
            // audit:allow-alloc(lazy per-class histogram, bounded by live classes)
            .or_insert_with(|| Log2Histogram::new(HISTOGRAM_BUCKETS))
            .record(distance);
        Some((class, distance))
    }

    /// The Next-Use histogram of `class`, if any distance has been
    /// recorded.
    pub fn histogram(&self, class: C) -> Option<&Log2Histogram> {
        self.histograms.get(&class)
    }

    /// All per-class histograms, in class order.
    pub(crate) fn histograms(&self) -> &BTreeMap<C, Log2Histogram> {
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
        self.clocks.len()
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
        let mut m = NextUseMonitor::new(4, 0);
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
        let mut m: NextUseMonitor<InsertionClass> = NextUseMonitor::new(4, 0);
        assert_eq!(m.on_next_use(key_in_set(0, 9, 4)), None);
    }

    #[test]
    fn entry_consumed_after_match() {
        let mut m = NextUseMonitor::new(4, 0);
        let k = key_in_set(0, 9, 4);
        m.on_evict(k, class(1));
        assert!(m.on_next_use(k).is_some());
        assert!(m.on_next_use(k).is_none(), "matched entries must be consumed");
    }

    #[test]
    fn circular_buffer_overwrites_oldest() {
        let mut m = NextUseMonitor::new(4, 0);
        let k1 = key_in_set(0, 1, 4);
        let k2 = key_in_set(0, 2, 4);
        let k3 = key_in_set(0, 3, 4);
        m.on_evict(k1, class(1));
        m.on_evict(k2, class(2));
        // Fill the rest of the buffer, so the next eviction wraps.
        for tag in 100..100 + MONITOR_DEPTH as u64 - 2 {
            m.on_evict(key_in_set(0, tag, 4), class(4));
        }
        m.on_evict(k3, class(3)); // overwrites k1
        assert!(m.on_next_use(k1).is_none());
        assert!(m.on_next_use(k2).is_some());
        assert!(m.on_next_use(k3).is_some());
    }

    /// A full buffer finds a match in any slot, the last one included; a
    /// duplicate tag matches its lower slot first, and a wrapped buffer
    /// forgets the slot it overwrote.
    #[test]
    fn every_slot_of_a_full_buffer_matches() {
        let mut m = NextUseMonitor::new(4, 0);
        let depth = MONITOR_DEPTH as u64;
        for tag in 0..depth {
            m.on_evict(key_in_set(1, tag, 4), class(tag));
        }
        let last = depth - 1;
        assert_eq!(m.on_next_use(key_in_set(1, last, 4)), Some((class(last), 0)));
        assert_eq!(m.on_next_use(key_in_set(1, last, 4)), None, "consumed");
        assert_eq!(m.on_next_use(key_in_set(1, 3, 4)), Some((class(3), 0)));
        // Slot 0 is overwritten by tag 40, which is still buffered in slot 40.
        m.on_evict(key_in_set(1, 40, 4), class(1000));
        assert_eq!(m.on_next_use(key_in_set(1, 0, 4)), None, "overwritten");
        assert_eq!(m.on_next_use(key_in_set(1, 40, 4)), Some((class(1000), 0)));
        assert_eq!(m.on_next_use(key_in_set(1, 40, 4)), Some((class(40), 0)));
        assert_eq!(m.on_next_use(key_in_set(2, 5, 4)), None, "another set's buffer");
    }

    #[test]
    fn sampling_skips_unsampled_sets() {
        let mut m = NextUseMonitor::new(4, 2); // sets 0,4,8,12 sampled
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
        let mut m = NextUseMonitor::new(4, 0);
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
        let mut m = NextUseMonitor::new(4, 0);
        let k = key_in_set(0, 1, 4);
        m.on_evict(k, class(7));
        m.on_set_access(k);
        m.on_next_use(k);
        assert_eq!(m.histogram(class(7)).unwrap().total(), 1);
        m.decay();
        assert!(m.histogram(class(7)).is_none(), "single-sample histogram decays away");
    }
}
