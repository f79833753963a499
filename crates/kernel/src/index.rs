//! An open-addressing index from insertion classes to slot ids, the
//! constant-time lookup behind the delinquency tracker and the chosen
//! class set.
//!
//! The index stores slot ids, not classes: the caller keeps the classes
//! in its own slots and confirms a candidate slot with a closure. Each entry
//! packs the low 32 bits of the class's hash beside the slot id, so a
//! probe rejects most foreign entries without touching the caller's
//! slots, and a deletion can recompute every entry's home bucket.
//!
//! The table has a fixed power-of-two size, at least twice the number of
//! slots it indexes, so it is at most half full and every probe ends at
//! a vacant entry. Linear probing keeps a probe sequence in consecutive
//! entries; deletion shifts the rest of the run back (no tombstones).
//! The hash is `C: Hash` fed through [`mix64`], seeded, so a class set
//! that collides under one seed need not collide under another; even a
//! fully colliding set costs at most one pass over the table per probe.

use alloc::vec;
use alloc::vec::Vec;
use core::hash::{Hash, Hasher};
use nucache_common::mix64;

/// A vacant entry. Slot ids stay below [`MAX_SLOTS`], so no occupied
/// entry has all of its low 32 bits set.
const VACANT: u64 = u64::MAX;

/// Most slots an index can hold: slot ids fit 31 bits, so the table,
/// twice as large, has at most `2^32` entries and a bucket fits the 32
/// hash bits each entry keeps.
pub(crate) const MAX_SLOTS: usize = 1 << 31;

/// Table entries for an index of `slots` slots: the smallest power of
/// two that is at least twice `slots` (and at least 2). `None` past
/// [`MAX_SLOTS`].
pub(crate) fn table_len(slots: usize) -> Option<usize> {
    if slots > MAX_SLOTS {
        return None;
    }
    slots.checked_mul(2)?.max(2).checked_next_power_of_two()
}

/// Feeds a class's `Hash` output through [`mix64`].
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Class → slot id, by linear probing over a fixed table.
#[derive(Debug, Clone)]
pub(crate) struct ClassIndex {
    /// `hash << 32 | slot` per occupied entry, [`VACANT`] otherwise.
    table: Vec<u64>,
    /// `table.len() - 1`.
    mask: usize,
    seed: u64,
}

impl ClassIndex {
    /// An empty index with room for `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` exceeds [`MAX_SLOTS`]; the kernel's
    /// configuration check rejects such sizes before any index is built.
    pub(crate) fn new(slots: usize, seed: u64) -> Self {
        #[expect(clippy::expect_used, reason = "constructor contract, checked by validate")]
        let len = table_len(slots).expect("slot count within MAX_SLOTS");
        ClassIndex { table: vec![VACANT; len], mask: len - 1, seed }
    }

    /// The seeded hash of `class`: every word it feeds the hasher is
    /// XORed in and avalanched with [`mix64`].
    #[inline]
    pub(crate) fn hash<C: Hash>(&self, class: &C) -> u64 {
        let mut h = MixHasher(self.seed);
        class.hash(&mut h);
        h.0
    }

    /// The bucket a hash starts probing at, and the entry's hash half.
    #[inline]
    fn home(&self, hash: u64) -> (usize, u64) {
        let low = hash & 0xffff_ffff;
        let bucket = low as usize & self.mask;
        (bucket, low << 32)
    }

    /// The slot holding the class of `hash`: the first entry on its
    /// probe run whose hash half matches and for which `is(slot)` holds.
    #[inline]
    pub(crate) fn lookup(&self, hash: u64, mut is: impl FnMut(usize) -> bool) -> Option<usize> {
        let (mut at, tag) = self.home(hash);
        for _ in 0..self.table.len() {
            let entry = self.table[at];
            if entry == VACANT {
                return None;
            }
            if entry & !0xffff_ffff == tag {
                let slot = (entry & 0xffff_ffff) as usize;
                if is(slot) {
                    return Some(slot);
                }
            }
            at = (at + 1) & self.mask;
        }
        None
    }

    /// Adds `slot` under `hash`. The caller keeps the index at most half
    /// full, so a vacant entry is always found.
    #[inline]
    pub(crate) fn link(&mut self, hash: u64, slot: usize) {
        let (mut at, tag) = self.home(hash);
        for _ in 0..self.table.len() {
            if self.table[at] == VACANT {
                self.table[at] = tag | slot as u64;
                return;
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Deletes `slot`, filed under `hash`, and shifts the rest of its
    /// probe run back so no later entry is cut off from its home.
    pub(crate) fn unlink(&mut self, hash: u64, slot: usize) {
        let (mut at, tag) = self.home(hash);
        let target = tag | slot as u64;
        let mut found = None;
        for _ in 0..self.table.len() {
            match self.table[at] {
                entry if entry == target => {
                    found = Some(at);
                    break;
                }
                VACANT => break,
                _ => at = (at + 1) & self.mask,
            }
        }
        let Some(mut hole) = found else { return };
        for _ in 0..self.table.len() {
            at = (at + 1) & self.mask;
            let entry = self.table[at];
            if entry == VACANT {
                break;
            }
            let (home, _) = self.home(entry >> 32);
            // The entry may fill the hole unless its home lies cyclically
            // after the hole, up to its own position.
            if at.wrapping_sub(home) & self.mask >= at.wrapping_sub(hole) & self.mask {
                self.table[hole] = entry;
                hole = at;
            }
        }
        self.table[hole] = VACANT;
    }

    /// Empties the index, keeping its table.
    pub(crate) fn clear(&mut self) {
        self.table.fill(VACANT);
    }

    /// Rebuilds the index over `classes`, slot `i` holding
    /// `classes[i]`, growing the table first if it is too small.
    pub(crate) fn reindex<C: Hash>(&mut self, classes: &[C]) {
        match table_len(classes.len()) {
            Some(len) if len > self.table.len() => {
                self.table = vec![VACANT; len];
                self.mask = len - 1;
            }
            _ => self.clear(),
        }
        for (slot, class) in classes.iter().enumerate() {
            self.link(self.hash(class), slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::collections::BTreeMap;
    use proptest::prelude::*;

    #[test]
    fn sizes_stay_at_most_half_full() {
        assert_eq!(table_len(0), Some(2));
        assert_eq!(table_len(1), Some(2));
        assert_eq!(table_len(256), Some(512));
        assert_eq!(table_len(300), Some(1024));
        assert_eq!(table_len(MAX_SLOTS), Some(2 * MAX_SLOTS));
        assert_eq!(table_len(MAX_SLOTS + 1), None);
    }

    /// Keys whose hashes all share one home bucket: every probe walks
    /// the whole run, wraps past the table's end, and deletion must
    /// shift the run back.
    #[test]
    fn colliding_run_wraps_and_shifts_back() {
        let mut index = ClassIndex::new(4, 0);
        let last = index.mask as u64;
        let hashes = [last, last | 1 << 40, last | 2 << 40, last | 3 << 40];
        for (slot, &h) in hashes.iter().enumerate() {
            index.link(h, slot);
        }
        for (slot, &h) in hashes.iter().enumerate() {
            assert_eq!(index.lookup(h, |s| s == slot), Some(slot));
        }
        index.unlink(hashes[0], 0);
        assert_eq!(index.lookup(hashes[0], |s| s == 0), None);
        for (slot, &h) in hashes.iter().enumerate().skip(1) {
            assert_eq!(index.lookup(h, |s| s == slot), Some(slot), "slot {slot} after removal");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// Inserts and removes against a `BTreeMap`: every key maps to
        /// its slot while present and to nothing once removed, with
        /// hashes drawn from a few buckets so runs collide and wrap.
        #[test]
        fn index_matches_a_map(
            slots in 1usize..40,
            script in prop::collection::vec((any::<bool>(), 0u64..64), 1..if cfg!(miri) { 40 } else { 300 }),
        ) {
            let mut index = ClassIndex::new(slots, 7);
            let mut map: BTreeMap<u64, usize> = BTreeMap::new();
            let mut owner: Vec<Option<u64>> = vec![None; slots];
            let mut free: Vec<usize> = (0..slots).rev().collect();
            // Few distinct home buckets, distinct hashes per key.
            let hash = |key: u64| (key % 3) | key << 40;
            for &(insert, key) in &script {
                if insert && !map.contains_key(&key) {
                    let Some(slot) = free.pop() else { continue };
                    index.link(hash(key), slot);
                    map.insert(key, slot);
                    owner[slot] = Some(key);
                } else if let Some(slot) = map.remove(&key) {
                    index.unlink(hash(key), slot);
                    owner[slot] = None;
                    free.push(slot);
                }
                for key in 0..64u64 {
                    let found = index.lookup(hash(key), |s| owner[s] == Some(key));
                    prop_assert_eq!(found, map.get(&key).copied());
                }
            }
        }
    }
}
