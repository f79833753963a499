//! A textbook model of the kernel's replacement: the oracle
//! [`enable_audit`](crate::NucacheKernel::enable_audit) replays every
//! `get`, `put` and `remove` into.
//!
//! Per set, the model keeps the resident MainWays entries as a list in
//! LRU order and the DeliWays entries as a list in FIFO order, newest
//! first in both, each DeliWays entry marked as a guest or not, and
//! applies the rules the kernel documents:
//!
//! * a `put` of a resident key replaces its class in place and moves
//!   nothing; any other `put` enters at the front of the MainWays;
//! * a MainWays hit moves the entry to the front;
//! * a full MainWays list retires its last entry to the front of the
//!   DeliWays. A chosen entry takes a free DeliWay, else the oldest
//!   guest's, else the FIFO head's. Under [`DeliAdmission::Guests`] an
//!   unchosen entry enters as a guest the same way, except that it
//!   leaves the cache when the set has neither a free DeliWay nor a
//!   guest; under [`DeliAdmission::ChosenOnly`] it always leaves. The
//!   entry it displaces leaves the cache;
//! * a DeliWays hit moves the entry to the front of the MainWays, no
//!   longer a guest, retiring the MainWays' last entry if they are full;
//! * a `remove` takes the entry out of either list.
//!
//! It shares nothing with the kernel's frames, rank rows, guest masks or
//! hashed chosen-set index: admission is a binary search in the model's
//! own sorted copy of the chosen classes.

use crate::config::{DeliAdmission, KernelConfig};
use crate::kernel::Region;
use alloc::vec::Vec;

/// A resident entry: its key and insertion class.
pub(crate) type Entry<C> = (u64, C);

/// A DeliWays entry and whether it is a guest.
pub(crate) type DeliEntry<C> = (Entry<C>, bool);

/// Per-set MainWays and DeliWays lists, newest first.
#[derive(Debug, Clone)]
pub(crate) struct ReplacementModel<C> {
    main_ways: usize,
    deli_ways: usize,
    /// Unchosen evictions enter the DeliWays as guests.
    guests: bool,
    /// MainWays entries per set, most recently used first.
    main: Vec<Vec<Entry<C>>>,
    /// DeliWays entries per set, newest first.
    deli: Vec<Vec<DeliEntry<C>>>,
    /// The chosen classes, sorted and deduplicated.
    chosen: Vec<C>,
}

/// `sets` empty lists of capacity `ways`.
fn lists<T>(sets: usize, ways: usize) -> Vec<Vec<T>> {
    (0..sets).map(|_| Vec::with_capacity(ways)).collect()
}

/// Puts `item` at the front of `list`.
fn push_newest<T>(list: &mut Vec<T>, item: T) {
    // audit:allow-alloc(model list insert; enable_audit preallocates every list at its region's ways)
    list.insert(0, item);
}

/// Position of `key` in the MainWays list `list`.
fn position<C>(list: &[Entry<C>], key: u64) -> Option<usize> {
    list.iter().position(|&(k, _)| k == key)
}

/// Position of `key` in the DeliWays list `list`.
fn deli_position<C>(list: &[DeliEntry<C>], key: u64) -> Option<usize> {
    list.iter().position(|&((k, _), _)| k == key)
}

impl<C: Copy + Ord> ReplacementModel<C> {
    /// An empty model of `config`'s geometry and admission rule, every
    /// list allocated at its region's way count.
    pub(crate) fn new(config: &KernelConfig) -> Self {
        let main_ways = config.ways - config.deli_ways;
        ReplacementModel {
            main_ways,
            deli_ways: config.deli_ways,
            guests: config.deli_admission == DeliAdmission::Guests,
            main: lists(config.sets, main_ways),
            deli: lists(config.sets, config.deli_ways),
            chosen: Vec::new(),
        }
    }

    /// The set `key` maps to: its low bits, as many as index the sets.
    #[expect(clippy::cast_possible_truncation, reason = "below the set count")]
    fn set_of(&self, key: u64) -> usize {
        (key % self.main.len() as u64) as usize
    }

    /// The MainWays entries of `set`, most recently used first, and its
    /// DeliWays entries, newest first.
    pub(crate) fn orders(&self, set: usize) -> (&[Entry<C>], &[DeliEntry<C>]) {
        (&self.main[set], &self.deli[set])
    }

    /// Appends an entry at the old end of `set`'s list for `region`, a
    /// guest if `guest`: how a model of a non-empty kernel is built,
    /// newest entry first.
    pub(crate) fn push_oldest(&mut self, set: usize, region: Region, entry: Entry<C>, guest: bool) {
        match region {
            Region::Main => self.main[set].push(entry),
            Region::Deli => self.deli[set].push((entry, guest)),
        }
    }

    /// Replaces the chosen classes with a sorted, deduplicated copy of
    /// `classes`.
    pub(crate) fn set_chosen(&mut self, classes: &[C]) {
        self.chosen.clear();
        self.chosen.extend_from_slice(classes);
        self.chosen.sort_unstable();
        self.chosen.dedup();
    }

    /// A MainWays entry leaving the MainWays: into the DeliWays if it is
    /// admitted and finds room (a free DeliWay, the oldest guest's or,
    /// for a chosen entry, the FIFO head's), out of the cache otherwise.
    /// Returns the entry that left the cache.
    fn retire(&mut self, set: usize, victim: Entry<C>) -> Option<Entry<C>> {
        let chosen = self.chosen.binary_search(&victim.1).is_ok();
        if self.deli_ways == 0 || !(chosen || self.guests) {
            return Some(victim);
        }
        let deli = &mut self.deli[set];
        let dropped = if deli.len() < self.deli_ways {
            None
        } else if let Some(oldest_guest) = (0..deli.len()).rev().find(|&i| deli[i].1) {
            Some(deli.remove(oldest_guest).0)
        } else if chosen {
            deli.pop().map(|(entry, _)| entry)
        } else {
            return Some(victim);
        };
        push_newest(deli, (victim, !chosen));
        dropped
    }

    /// Makes room at the front of `set`'s MainWays, retiring the last
    /// entry if they are full. Returns the entry that left the cache.
    fn make_room(&mut self, set: usize) -> Option<Entry<C>> {
        if self.main[set].len() < self.main_ways {
            return None;
        }
        let victim = self.main[set].pop()?;
        self.retire(set, victim)
    }

    /// A `get` of `key`. Returns the region it hit in, if any, and the
    /// entry a promotion pushed out of the cache.
    pub(crate) fn on_get(&mut self, key: u64) -> (Option<Region>, Option<Entry<C>>) {
        let set = self.set_of(key);
        if let Some(i) = position(&self.main[set], key) {
            let entry = self.main[set].remove(i);
            push_newest(&mut self.main[set], entry);
            return (Some(Region::Main), None);
        }
        let Some(i) = deli_position(&self.deli[set], key) else { return (None, None) };
        let (entry, _) = self.deli[set].remove(i);
        let left = self.make_room(set);
        push_newest(&mut self.main[set], entry);
        (Some(Region::Deli), left)
    }

    /// A `put` of `key` with `class`. Returns the entry that left the
    /// cache.
    pub(crate) fn on_put(&mut self, key: u64, class: C) -> Option<Entry<C>> {
        let set = self.set_of(key);
        let deli = self.deli[set].iter_mut().map(|(entry, _)| entry);
        if let Some(entry) = self.main[set].iter_mut().chain(deli).find(|e| e.0 == key) {
            entry.1 = class;
            return None;
        }
        let left = self.make_room(set);
        push_newest(&mut self.main[set], (key, class));
        left
    }

    /// A `remove` of `key`. Returns the removed entry.
    pub(crate) fn on_remove(&mut self, key: u64) -> Option<Entry<C>> {
        let set = self.set_of(key);
        if let Some(i) = position(&self.main[set], key) {
            return Some(self.main[set].remove(i));
        }
        deli_position(&self.deli[set], key).map(|i| self.deli[set].remove(i).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One operation on the model.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Put(u64, u8),
        Remove(u64),
        /// Replace the chosen classes.
        Choose(Vec<u8>),
    }

    /// Operations on keys below 16 by classes below 4, one in 16 a new
    /// chosen set.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u64..16, 0u8..4, 0u8..16, prop::collection::vec(0u8..4, 0..3)).prop_map(
            |(key, class, kind, chosen)| match kind {
                0 => Op::Choose(chosen),
                1 => Op::Remove(key),
                2..=7 => Op::Put(key, class),
                _ => Op::Get(key),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        /// Guests always leave first: an entry that entered the
        /// DeliWays as chosen leaves them only when its set holds no
        /// guest, however the chosen set changes.
        #[test]
        fn no_chosen_entry_leaves_the_deliways_while_its_set_holds_a_guest(
            ops in prop::collection::vec(op_strategy(), 1..600),
            deli in 1usize..4,
        ) {
            let mut config = KernelConfig::default().with_sets(2).with_ways(5).with_deli_ways(deli);
            config.deli_admission = DeliAdmission::Guests;
            let mut model = ReplacementModel::new(&config);
            for op in ops {
                let key = match op {
                    Op::Get(key) | Op::Put(key, _) | Op::Remove(key) => key,
                    Op::Choose(classes) => {
                        model.set_chosen(&classes);
                        continue;
                    }
                };
                let before = model.deli[model.set_of(key)].clone();
                let left = match op {
                    Op::Get(_) => model.on_get(key).1,
                    Op::Put(_, class) => model.on_put(key, class),
                    _ => {
                        model.on_remove(key);
                        continue;
                    }
                };
                let Some(left) = left else { continue };
                if before.contains(&(left, false)) {
                    prop_assert!(
                        before.iter().all(|&(_, guest)| !guest),
                        "{op:?} dropped chosen entry {left:?} from DeliWays {before:?}"
                    );
                }
            }
        }
    }
}
