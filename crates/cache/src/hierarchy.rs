//! Per-core private cache hierarchy (L1 + L2) in front of the shared LLC.
//!
//! The private levels filter the access stream: only L2 misses (and dirty
//! L2 victims, as write-backs) reach the shared LLC, which is where every
//! scheme under study lives. Both levels are LRU and write-back /
//! write-allocate. The hierarchy is non-inclusive non-exclusive
//! ("mostly-inclusive"), the common design point for this literature:
//! lines are filled into both levels on the way in, but an eviction at an
//! outer level does not back-invalidate inner ones.
//!
//! # Layout
//!
//! Each level stores every set as its LRU stack: a row of `ways` line
//! addresses in recency order, most recent first, plus a fill count and a
//! dirty mask in row order. A probe is one [`eq_mask`] over the row,
//! masked to the filled prefix. A hit rotates the row's prefix so the
//! line comes first; a miss inserts the line at the front, pushing the
//! last line out of a full row. There are no per-line core, PC or rank
//! columns: nothing downstream of a private level reads them.
//!
//! The row is exactly what an LRU [`BasicCache`](crate::BasicCache), with
//! its per-way recency ranks, decides with. The private levels are never invalidated, so a set's
//! contents and every victim depend only on recency order; which way a
//! line occupies cannot be observed through [`PrivateHierarchy`]. A dirty
//! L1 victim re-touches its L2 copy as a write, which refreshes its
//! recency and sets it dirty; if the L2 copy has already left, the
//! write-back is dropped, a modelling simplification every figure
//! depends on. `tests/hierarchy_equivalence.rs` drives this hierarchy and
//! one composed from two `BasicCache<Lru>`s with the same random streams
//! and requires equal outcomes at every step. Under the
//! `debug_invariants` feature each level also runs a `BasicCache<Lru>`
//! shadow and panics at the first outcome or victim that differs.

use crate::config::CacheGeometry;
use nucache_common::tags::eq_mask;
use nucache_common::{AccessKind, CoreId, LineAddr, Pc};

/// Where a private-hierarchy access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivateOutcome {
    /// Hit in the L1.
    L1Hit,
    /// Missed L1, hit L2.
    L2Hit,
    /// Missed both: the access must be sent to the shared LLC. Carries a
    /// dirty L2 victim (a write-back toward the LLC) if the L2 fill
    /// displaced one.
    LlcAccess {
        /// Dirty line displaced from the L2 by this fill, if any.
        writeback: Option<LineAddr>,
    },
}

impl PrivateOutcome {
    /// `true` when the access must continue to the shared LLC.
    pub const fn reaches_llc(&self) -> bool {
        matches!(self, PrivateOutcome::LlcAccess { .. })
    }
}

/// One core's private L1 + L2 stack.
///
/// # Examples
///
/// ```
/// use nucache_cache::hierarchy::PrivateHierarchy;
/// use nucache_cache::CacheGeometry;
/// use nucache_common::{AccessKind, CoreId, LineAddr, Pc};
///
/// let l1 = CacheGeometry::new(32 * 1024, 8, 64);
/// let l2 = CacheGeometry::new(256 * 1024, 8, 64);
/// let mut h = PrivateHierarchy::new(CoreId::new(0), l1, l2);
/// let out = h.access(Pc::new(1), LineAddr::new(10), AccessKind::Read);
/// assert!(out.reaches_llc());
/// assert!(!h.access(Pc::new(1), LineAddr::new(10), AccessKind::Read).reaches_llc());
/// ```
#[derive(Debug)]
pub struct PrivateHierarchy {
    core: CoreId,
    l1: LruLevel,
    l2: LruLevel,
}

impl PrivateHierarchy {
    /// Creates an empty private stack for `core`.
    ///
    /// # Panics
    ///
    /// Panics if either level's associativity exceeds 64 (one mask word
    /// per set).
    pub fn new(core: CoreId, l1_geom: CacheGeometry, l2_geom: CacheGeometry) -> Self {
        PrivateHierarchy { core, l1: LruLevel::new(l1_geom), l2: LruLevel::new(l2_geom) }
    }

    /// The owning core.
    pub const fn core(&self) -> CoreId {
        self.core
    }

    /// Runs one access through L1 then L2. The PC is not read: both
    /// levels are plain LRU.
    #[inline]
    pub fn access(&mut self, _pc: Pc, line: LineAddr, kind: AccessKind) -> PrivateOutcome {
        let write = kind.is_write();
        match self.l1.access(line, write) {
            Lookup::Hit => return PrivateOutcome::L1Hit,
            // A dirty L1 victim is absorbed by its L2 copy, if any.
            Lookup::Miss(Some((victim, true))) => self.l2.absorb_writeback(victim),
            Lookup::Miss(_) => {}
        }
        match self.l2.access(line, write) {
            Lookup::Hit => PrivateOutcome::L2Hit,
            Lookup::Miss(victim) => PrivateOutcome::LlcAccess {
                writeback: victim.and_then(|(v, dirty)| dirty.then_some(v)),
            },
        }
    }
}

/// What one private level did with an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lookup {
    Hit,
    /// Missed and filled at the front of the row; carries the line pushed
    /// off the back of a full row and whether it was dirty.
    Miss(Option<(LineAddr, bool)>),
}

/// Per-set bookkeeping beside a row.
#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// Bit `i` set when the line at row position `i` is dirty.
    dirty: u64,
    /// Lines resident; they occupy the row's first `len` positions.
    len: u32,
}

/// One write-back, write-allocate LRU level that is never invalidated
/// (see the module docs for the layout).
#[derive(Debug)]
struct LruLevel {
    geom: CacheGeometry,
    /// Set `s` owns `rows[s * ways..(s + 1) * ways]`, most recent first.
    /// Entries are whole line addresses, so a victim needs no rebuild.
    rows: Vec<u64>,
    state: Vec<RowState>,
    /// The rank-LRU cache this level must agree with, step for step.
    #[cfg(feature = "debug_invariants")]
    shadow: crate::BasicCache<crate::policy::Lru>,
}

/// Mask of the first `len` row positions.
#[inline(always)]
fn prefix_mask(len: u32) -> u64 {
    u64::MAX.checked_shr(64 - len).unwrap_or(0)
}

impl LruLevel {
    fn new(geom: CacheGeometry) -> Self {
        assert!((1..=64).contains(&geom.associativity()), "associativity above 64 unsupported");
        LruLevel {
            geom,
            rows: vec![0; geom.num_lines()],
            state: vec![RowState::default(); geom.num_sets()],
            #[cfg(feature = "debug_invariants")]
            shadow: crate::BasicCache::new(geom, crate::policy::Lru::new(&geom)),
        }
    }

    /// The row and state of `line`'s set, and the row position holding
    /// `line` if it is resident.
    #[inline(always)]
    fn probe(&mut self, line: LineAddr) -> (&mut [u64], &mut RowState, Option<usize>) {
        let set = self.geom.set_of(line);
        let ways = self.geom.associativity();
        let row = &mut self.rows[set * ways..(set + 1) * ways];
        let st = &mut self.state[set];
        let hits = eq_mask(row, line.0) & prefix_mask(st.len);
        let pos = (hits != 0).then(|| hits.trailing_zeros() as usize);
        (row, st, pos)
    }

    /// One demand access: a hit moves the line to the front, a miss
    /// inserts it there.
    #[inline]
    fn access(&mut self, line: LineAddr, write: bool) -> Lookup {
        let (row, st, pos) = self.probe(line);
        let out = match pos {
            Some(pos) => {
                promote(row, st, pos, write);
                Lookup::Hit
            }
            None => {
                let ways = row.len();
                let victim = if st.len as usize == ways {
                    Some((LineAddr(row[ways - 1]), (st.dirty >> (ways - 1)) & 1 != 0))
                } else {
                    st.len += 1;
                    None
                };
                let len = st.len;
                push_front(row, len as usize, line.0);
                st.dirty = ((st.dirty << 1) | u64::from(write)) & prefix_mask(len);
                Lookup::Miss(victim)
            }
        };
        #[cfg(feature = "debug_invariants")]
        self.check_access(line, write, out);
        out
    }

    /// Absorbs a write-back from the level above: a resident copy is
    /// re-touched as a write hit; a missing one is dropped.
    #[inline]
    fn absorb_writeback(&mut self, line: LineAddr) {
        let (row, st, pos) = self.probe(line);
        if let Some(pos) = pos {
            promote(row, st, pos, true);
        }
        #[cfg(feature = "debug_invariants")]
        self.check_writeback(line, pos.is_some());
    }

    #[cfg(feature = "debug_invariants")]
    fn check_access(&mut self, line: LineAddr, write: bool, got: Lookup) {
        use crate::meta::AccessOutcome;
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let want = match self.shadow.access(line, kind, CoreId::new(0), Pc::new(0)) {
            AccessOutcome::Hit => Lookup::Hit,
            AccessOutcome::Miss { evicted } => Lookup::Miss(evicted.map(|ev| (ev.line, ev.dirty))),
        };
        assert_eq!(
            got, want,
            "private LRU level diverged from its BasicCache<Lru> shadow at {line}"
        );
    }

    #[cfg(feature = "debug_invariants")]
    fn check_writeback(&mut self, line: LineAddr, absorbed: bool) {
        let resident = self.shadow.probe(line);
        if resident {
            self.shadow.access(line, AccessKind::Write, CoreId::new(0), Pc::new(0));
        }
        assert_eq!(
            absorbed, resident,
            "private LRU level diverged from its BasicCache<Lru> shadow on the write-back of {line}"
        );
    }
}

/// Moves `row[..n - 1]` one position back and writes `line` at the front.
#[inline(always)]
fn push_front(row: &mut [u64], n: usize, line: u64) {
    let row = &mut row[..n];
    for i in (1..row.len()).rev() {
        row[i] = row[i - 1];
    }
    row[0] = line;
}

/// Moves row position `pos` to the front, carrying its dirty bit, and
/// marks it dirty on a write.
#[inline(always)]
fn promote(row: &mut [u64], st: &mut RowState, pos: usize, write: bool) {
    push_front(row, pos + 1, row[pos]);
    let below = (1u64 << pos) - 1;
    let moved = (st.dirty >> pos) & 1;
    let above = st.dirty & !(below | (1 << pos));
    st.dirty = above | ((st.dirty & below) << 1) | moved | u64::from(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PrivateHierarchy {
        // L1: 1 set x 2 ways; L2: 2 sets x 2 ways.
        PrivateHierarchy::new(
            CoreId::new(0),
            CacheGeometry::new(64 * 2, 2, 64),
            CacheGeometry::new(64 * 4, 2, 64),
        )
    }

    fn read(h: &mut PrivateHierarchy, n: u64) -> PrivateOutcome {
        h.access(Pc::new(1), LineAddr::new(n), AccessKind::Read)
    }

    #[test]
    fn levels_filter_in_order() {
        let mut h = tiny();
        assert!(read(&mut h, 0).reaches_llc());
        assert_eq!(read(&mut h, 0), PrivateOutcome::L1Hit);
        // Push 0 out of the single-set L1 with lines 2 and 3; in the
        // 2-set L2, line 3 maps to the other set, so 0 stays resident.
        read(&mut h, 2);
        read(&mut h, 3);
        assert_eq!(read(&mut h, 0), PrivateOutcome::L2Hit);
    }

    #[test]
    fn l2_victims_surface_as_writebacks_only_when_dirty() {
        let mut h = tiny();
        // Dirty line 0 in both levels.
        h.access(Pc::new(1), LineAddr::new(0), AccessKind::Write);
        // L1 evicts 0 (dirty) while L2 still holds it -> absorbed.
        h.access(Pc::new(1), LineAddr::new(2), AccessKind::Read);
        h.access(Pc::new(1), LineAddr::new(4), AccessKind::Read);
        // Now force L2 set 0 (lines 0,2,4 map there: set = line & 1...).
        // Lines 0,2,4 are all even => L2 set 0. Line 4's fill already
        // displaced one of {0,2}; keep pushing until the dirty 0 leaves.
        let mut saw_dirty_wb = false;
        for n in [6u64, 8, 10] {
            if let PrivateOutcome::LlcAccess { writeback: Some(wb) } = read(&mut h, n) {
                if wb == LineAddr::new(0) {
                    saw_dirty_wb = true;
                }
            }
        }
        assert!(saw_dirty_wb, "dirty L2 victim must surface as a write-back");
    }

    #[test]
    fn clean_victims_produce_no_writebacks() {
        let mut h = tiny();
        for n in (0..20).map(|k| k * 2) {
            if let PrivateOutcome::LlcAccess { writeback } = read(&mut h, n) {
                assert_eq!(writeback, None, "all lines are clean");
            }
        }
    }
}
