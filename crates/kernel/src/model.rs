//! A textbook model of the kernel's replacement: the oracle
//! [`enable_audit`](crate::NucacheKernel::enable_audit) replays every
//! `get`, `put` and `remove` into.
//!
//! Per set, the model keeps the resident MainWays entries as a list in
//! LRU order and the DeliWays entries as a list in FIFO order, newest
//! first in both, and applies the rules the kernel documents:
//!
//! * a `put` of a resident key replaces its class in place and moves
//!   nothing; any other `put` enters at the front of the MainWays;
//! * a MainWays hit moves the entry to the front;
//! * a full MainWays list retires its last entry: into the front of the
//!   DeliWays if its class is chosen (the full FIFO drops its last entry
//!   out of the cache), out of the cache otherwise;
//! * a DeliWays hit with promotion moves the entry to the front of the
//!   MainWays, retiring the MainWays' last entry if they are full; with
//!   refresh instead, it moves the entry to the front of the DeliWays;
//! * a `remove` takes the entry out of either list.
//!
//! It shares nothing with the kernel's frames, rank rows or hashed
//! chosen-set index: admission is a binary search in the model's own
//! sorted copy of the chosen classes.

use crate::config::KernelConfig;
use crate::kernel::Region;
use alloc::vec::Vec;

/// A resident entry: its key and insertion class.
pub(crate) type Entry<C> = (u64, C);

/// Per-set MainWays and DeliWays lists, newest first.
#[derive(Debug, Clone)]
pub(crate) struct ReplacementModel<C> {
    main_ways: usize,
    deli_ways: usize,
    promote: bool,
    refresh: bool,
    /// MainWays entries per set, most recently used first.
    main: Vec<Vec<Entry<C>>>,
    /// DeliWays entries per set, newest first.
    deli: Vec<Vec<Entry<C>>>,
    /// The chosen classes, sorted and deduplicated.
    chosen: Vec<C>,
}

/// Puts `entry` at the front of `list`.
fn push_newest<C>(list: &mut Vec<Entry<C>>, entry: Entry<C>) {
    // audit:allow-alloc(model list insert; enable_audit preallocates every list at its region's ways)
    list.insert(0, entry);
}

/// Position of `key` in `list`.
fn position<C>(list: &[Entry<C>], key: u64) -> Option<usize> {
    list.iter().position(|&(k, _)| k == key)
}

impl<C: Copy + Ord> ReplacementModel<C> {
    /// An empty model of `config`'s geometry and hit modes, every list
    /// allocated at its region's way count.
    pub(crate) fn new(config: &KernelConfig) -> Self {
        let main_ways = config.ways - config.deli_ways;
        let lists = |ways: usize| (0..config.sets).map(|_| Vec::with_capacity(ways)).collect();
        ReplacementModel {
            main_ways,
            deli_ways: config.deli_ways,
            promote: config.promote_on_deli_hit,
            refresh: config.deli_hit_refresh,
            main: lists(main_ways),
            deli: lists(config.deli_ways),
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
    pub(crate) fn orders(&self, set: usize) -> (&[Entry<C>], &[Entry<C>]) {
        (&self.main[set], &self.deli[set])
    }

    /// Appends an entry at the old end of `set`'s list for `region`:
    /// how a model of a non-empty kernel is built, newest entry first.
    pub(crate) fn push_oldest(&mut self, set: usize, region: Region, entry: Entry<C>) {
        let list = match region {
            Region::Main => &mut self.main[set],
            Region::Deli => &mut self.deli[set],
        };
        list.push(entry);
    }

    /// Replaces the chosen classes with a sorted, deduplicated copy of
    /// `classes`.
    pub(crate) fn set_chosen(&mut self, classes: &[C]) {
        self.chosen.clear();
        self.chosen.extend_from_slice(classes);
        self.chosen.sort_unstable();
        self.chosen.dedup();
    }

    /// A MainWays entry leaving the MainWays: into the DeliWays if its
    /// class is chosen, out of the cache otherwise. Returns the entry
    /// that left the cache.
    fn retire(&mut self, set: usize, victim: Entry<C>) -> Option<Entry<C>> {
        if self.deli_ways == 0 || self.chosen.binary_search(&victim.1).is_err() {
            return Some(victim);
        }
        let deli = &mut self.deli[set];
        let dropped = if deli.len() == self.deli_ways { deli.pop() } else { None };
        push_newest(deli, victim);
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
        let Some(i) = position(&self.deli[set], key) else { return (None, None) };
        if self.promote {
            let entry = self.deli[set].remove(i);
            let left = self.make_room(set);
            push_newest(&mut self.main[set], entry);
            return (Some(Region::Deli), left);
        }
        if self.refresh {
            let entry = self.deli[set].remove(i);
            push_newest(&mut self.deli[set], entry);
        }
        (Some(Region::Deli), None)
    }

    /// A `put` of `key` with `class`. Returns the entry that left the
    /// cache.
    pub(crate) fn on_put(&mut self, key: u64, class: C) -> Option<Entry<C>> {
        let set = self.set_of(key);
        let mut resident = self.main[set].iter_mut().chain(self.deli[set].iter_mut());
        if let Some(entry) = resident.find(|e| e.0 == key) {
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
        position(&self.deli[set], key).map(|i| self.deli[set].remove(i))
    }
}
