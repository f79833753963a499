//! Raw tag storage: the `SetArray` every cache organization builds on.

use crate::audit::ReferenceArray;
use crate::config::CacheGeometry;
use crate::meta::{EvictedLine, LineMeta};
use nucache_common::tags::eq_mask;
use nucache_common::{CoreId, LineAddr, Pc};
use std::cell::Cell;

/// Tag/metadata storage for a set-associative structure, with no
/// replacement policy of its own.
///
/// Organizations (classic caches, UCP/PIPP variants, NUcache's
/// MainWays/DeliWays) keep their ordering state elsewhere and use this
/// array for the mechanical parts: tag match, fill into a way, invalidate,
/// dirty-bit maintenance.
///
/// # Layout
///
/// Storage is struct-of-arrays rather than `Vec<Option<LineMeta>>`: tags
/// live in one packed `Vec<u64>` (indexed `set * assoc + way`), validity
/// and dirty state are one `u64` bitmask per set, and the rarely-read
/// core/PC attribution sits in side arrays. The hot probes — [`find`],
/// [`invalid_way`], [`occupancy`] — reduce to a branchless compare loop
/// plus bit tricks over the masks instead of chasing `Option` discriminants
/// through interleaved metadata.
///
/// [`find`]: SetArray::find
/// [`invalid_way`]: SetArray::invalid_way
/// [`occupancy`]: SetArray::occupancy
///
/// # Examples
///
/// ```
/// use nucache_cache::{CacheGeometry, SetArray};
/// use nucache_cache::meta::LineMeta;
/// use nucache_common::{CoreId, LineAddr, Pc};
///
/// let geom = CacheGeometry::new(8 * 1024, 4, 64);
/// let mut arr = SetArray::new(geom);
/// let line = LineAddr::new(0x10);
/// let (set, tag) = (geom.set_of(line), geom.tag_of(line));
/// assert!(arr.find(set, tag).is_none());
/// arr.fill(set, 0, LineMeta::new(tag, CoreId::new(0), Pc::new(0), false));
/// assert_eq!(arr.find(set, tag), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct SetArray {
    geom: CacheGeometry,
    // All per-frame vectors are indexed `set * assoc + way`.
    tags: Vec<u64>,
    cores: Vec<CoreId>,
    pcs: Vec<Pc>,
    // Per-set bitmasks, bit `way` of `valid[set]` / `dirty[set]`.
    valid: Vec<u64>,
    dirty: Vec<u64>,
    /// Differential oracle: when present, every operation is replayed on
    /// this naive model and the answers compared (see [`crate::audit`]).
    mirror: Option<Box<ReferenceArray>>,
    /// Operations mirrored and checked so far. A `Cell` because the hot
    /// probes (`find`, `get`, ...) take `&self`.
    audit_ops: Cell<u64>,
}

impl SetArray {
    /// Creates an empty array for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (one mask word per set).
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(geom.associativity() <= 64, "associativity above 64 unsupported");
        #[allow(unused_mut)] // mut only needed under debug_invariants
        let mut arr = SetArray {
            geom,
            tags: vec![0; geom.num_lines()],
            cores: vec![CoreId::new(0); geom.num_lines()],
            pcs: vec![Pc::new(0); geom.num_lines()],
            valid: vec![0; geom.num_sets()],
            dirty: vec![0; geom.num_sets()],
            mirror: None,
            audit_ops: Cell::new(0),
        };
        #[cfg(feature = "debug_invariants")]
        arr.enable_audit();
        arr
    }

    /// Enables differential auditing: a [`ReferenceArray`] is seeded from
    /// the current contents and every subsequent operation is replayed on
    /// it and cross-checked. Divergences panic at the faulting operation.
    pub fn enable_audit(&mut self) {
        let mut reference = Box::new(ReferenceArray::new(self.geom));
        for set in 0..self.geom.num_sets() {
            for way in 0..self.geom.associativity() {
                if let Some(m) = self.get(set, way) {
                    reference.fill(set, way, m);
                }
            }
        }
        self.mirror = Some(reference);
    }

    /// Drops the audit mirror; operations stop being checked. The
    /// [`SetArray::audit_ops`] counter is retained.
    pub fn disable_audit(&mut self) {
        self.mirror = None;
    }

    /// Whether the audit mirror is active.
    pub fn audit_enabled(&self) -> bool {
        self.mirror.is_some()
    }

    /// Operations mirrored into the reference model and compared so far.
    pub fn audit_ops(&self) -> u64 {
        self.audit_ops.get()
    }

    #[cold]
    #[inline(never)]
    fn audit_read<T: PartialEq + std::fmt::Debug>(&self, op: &str, fast: &T, slow: &T) {
        self.audit_ops.set(self.audit_ops.get() + 1);
        assert!(
            fast == slow,
            "audit divergence in SetArray::{op}: soa={fast:?}, reference={slow:?}"
        );
    }

    /// The geometry this array was built for.
    pub const fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        debug_assert!(set < self.geom.num_sets(), "set index out of range");
        set * self.geom.associativity()
    }

    /// Bitmask with one bit per way.
    #[inline]
    fn full_mask(&self) -> u64 {
        let assoc = self.geom.associativity();
        if assoc == 64 {
            u64::MAX
        } else {
            (1u64 << assoc) - 1
        }
    }

    #[inline]
    fn way_bit(&self, set: usize, way: usize) -> u64 {
        debug_assert!(way < self.geom.associativity(), "way index out of range");
        debug_assert!(set < self.geom.num_sets(), "set index out of range");
        1u64 << way
    }

    /// Way holding `tag` in `set`, if resident.
    ///
    /// The compare ([`eq_mask`]) runs u64x4-wide over the packed tag
    /// row: the row is sliced once (one bounds check) and compared with
    /// a compile-time trip count for the common associativities, so the
    /// compiler fully unrolls each row into SIMD compare + movemask
    /// steps instead of a scalar compare-per-way loop it cannot unroll.
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = self.base(set);
        let assoc = self.geom.associativity();
        let hits = eq_mask(&self.tags[base..base + assoc], tag) & self.valid[set];
        let found = if hits == 0 { None } else { Some(hits.trailing_zeros() as usize) };
        if let Some(m) = &self.mirror {
            self.audit_read("find", &found, &m.find(set, tag));
        }
        found
    }

    /// First invalid way in `set`, if any.
    #[inline]
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & self.full_mask();
        let way = if free == 0 { None } else { Some(free.trailing_zeros() as usize) };
        if let Some(m) = &self.mirror {
            self.audit_read("invalid_way", &way, &m.invalid_way(set));
        }
        way
    }

    /// Number of valid lines in `set`.
    #[inline]
    pub fn occupancy(&self, set: usize) -> usize {
        let n = self.valid[set].count_ones() as usize;
        if let Some(m) = &self.mirror {
            self.audit_read("occupancy", &n, &m.occupancy(set));
        }
        n
    }

    /// Metadata at `(set, way)`, reassembled from the packed columns.
    #[inline]
    pub fn get(&self, set: usize, way: usize) -> Option<LineMeta> {
        let bit = self.way_bit(set, way);
        if self.valid[set] & bit == 0 {
            if let Some(m) = &self.mirror {
                self.audit_read("get", &None, &m.get(set, way));
            }
            return None;
        }
        let i = self.base(set) + way;
        let meta = LineMeta {
            tag: self.tags[i],
            dirty: self.dirty[set] & bit != 0,
            core: self.cores[i],
            pc: self.pcs[i],
        };
        if let Some(m) = &self.mirror {
            self.audit_read("get", &Some(meta), &m.get(set, way));
        }
        Some(meta)
    }

    /// The displaced-line view of `(set, way)`, read straight from the
    /// packed columns (no `LineMeta` reassembly round-trip). Forced
    /// inline: it sits on the fill/evict hot path and the compiler
    /// otherwise outlines it once `fill` is itself inlined into a large
    /// caller.
    #[inline(always)]
    fn read_evicted(&self, set: usize, bit: u64, i: usize) -> Option<EvictedLine> {
        if self.valid[set] & bit == 0 {
            return None;
        }
        Some(EvictedLine {
            line: self.geom.line_of(self.tags[i], set),
            dirty: self.dirty[set] & bit != 0,
            core: self.cores[i],
            pc: self.pcs[i],
        })
    }

    /// Writes `meta` into `(set, way)`, returning the displaced line (as an
    /// [`EvictedLine`] with its full address reconstructed) if the frame
    /// was valid.
    #[inline]
    pub fn fill(&mut self, set: usize, way: usize, meta: LineMeta) -> Option<EvictedLine> {
        let bit = self.way_bit(set, way);
        let i = self.base(set) + way;
        let old = self.read_evicted(set, bit, i);
        self.tags[i] = meta.tag;
        self.cores[i] = meta.core;
        self.pcs[i] = meta.pc;
        self.valid[set] |= bit;
        if meta.dirty {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        if let Some(m) = &mut self.mirror {
            let slow = m.fill(set, way, meta);
            self.audit_read("fill", &old, &slow);
        }
        old
    }

    /// Invalidates `(set, way)`, returning the line that was there.
    #[inline]
    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let bit = self.way_bit(set, way);
        let old = self.read_evicted(set, bit, self.base(set) + way);
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        if let Some(m) = &mut self.mirror {
            let slow = m.invalidate(set, way);
            self.audit_read("invalidate", &old, &slow);
        }
        old
    }

    /// Marks `(set, way)` dirty.
    ///
    /// # Panics
    ///
    /// Panics if the frame is invalid — callers only mark lines they just
    /// hit or filled.
    #[inline]
    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        let bit = self.way_bit(set, way);
        assert!(self.valid[set] & bit != 0, "marking an invalid frame dirty");
        self.dirty[set] |= bit;
        if let Some(m) = &mut self.mirror {
            let slow_valid = m.get(set, way).is_some();
            if slow_valid {
                m.mark_dirty(set, way);
            }
            // The SoA assert above passed, so the reference must agree the
            // frame is valid.
            self.audit_read("mark_dirty", &true, &slow_valid);
        }
    }

    /// Reconstructs the full line address of the line at `(set, way)`.
    pub fn line_addr(&self, set: usize, way: usize) -> Option<LineAddr> {
        let bit = self.way_bit(set, way);
        let addr = if self.valid[set] & bit == 0 {
            None
        } else {
            Some(self.geom.line_of(self.tags[self.base(set) + way], set))
        };
        if let Some(m) = &self.mirror {
            self.audit_read("line_addr", &addr, &m.line_addr(set, way));
        }
        addr
    }

    /// Total valid lines across all sets.
    pub fn total_occupancy(&self) -> usize {
        let n = self.valid.iter().map(|v| v.count_ones() as usize).sum();
        if let Some(m) = &self.mirror {
            self.audit_read("total_occupancy", &n, &m.total_occupancy());
        }
        n
    }

    /// Test hook: writes a tag word directly, bypassing the audit mirror,
    /// to prove the oracle catches a corrupted substrate.
    #[cfg(test)]
    pub(crate) fn corrupt_tag_for_test(&mut self, set: usize, way: usize, tag: u64) {
        let i = self.base(set) + way;
        self.tags[i] = tag;
    }

    /// Valid-way bitmask for `set` (bit `way` set when the frame holds a
    /// line). Lets organizations walk only the occupied ways of a set
    /// (`mask.trailing_zeros()` chains) instead of probing every frame
    /// through [`SetArray::get`].
    #[inline]
    pub fn valid_mask(&self, set: usize) -> u64 {
        debug_assert!(set < self.geom.num_sets(), "set index out of range");
        self.valid[set]
    }

    /// Owner-core column for `set`: one entry per way, in way order.
    /// Entries for invalid ways are stale — combine with
    /// [`SetArray::valid_mask`] to walk only live lines. This is the
    /// cheap path for quota/occupancy scans that would otherwise
    /// reassemble a full [`LineMeta`] per way through [`SetArray::get`].
    #[inline]
    pub fn core_column(&self, set: usize) -> &[CoreId] {
        let base = self.base(set);
        &self.cores[base..base + self.geom.associativity()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::{CoreId, Pc};

    fn small() -> (CacheGeometry, SetArray) {
        let g = CacheGeometry::new(1024, 4, 64); // 4 sets x 4 ways
        (g, SetArray::new(g))
    }

    fn meta(tag: u64) -> LineMeta {
        LineMeta::new(tag, CoreId::new(0), Pc::new(0), false)
    }

    #[test]
    fn fill_find_invalidate_cycle() {
        let (_, mut arr) = small();
        assert_eq!(arr.find(0, 7), None);
        assert_eq!(arr.fill(0, 2, meta(7)), None);
        assert_eq!(arr.find(0, 7), Some(2));
        assert_eq!(arr.occupancy(0), 1);
        let ev = arr.invalidate(0, 2).unwrap();
        assert!(!ev.dirty);
        assert_eq!(arr.find(0, 7), None);
    }

    #[test]
    fn fill_reports_displaced_line() {
        let (g, mut arr) = small();
        arr.fill(1, 0, meta(5));
        arr.mark_dirty(1, 0);
        let ev = arr.fill(1, 0, meta(9)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.line, g.line_of(5, 1));
    }

    #[test]
    fn fill_clears_stale_dirty_bit() {
        let (_, mut arr) = small();
        arr.fill(2, 1, meta(5));
        arr.mark_dirty(2, 1);
        arr.fill(2, 1, meta(9)); // clean fill over a dirty line
        let ev = arr.invalidate(2, 1).unwrap();
        assert!(!ev.dirty);
    }

    #[test]
    fn invalid_way_scans_in_order() {
        let (_, mut arr) = small();
        arr.fill(3, 0, meta(1));
        arr.fill(3, 1, meta(2));
        assert_eq!(arr.invalid_way(3), Some(2));
        arr.fill(3, 2, meta(3));
        arr.fill(3, 3, meta(4));
        assert_eq!(arr.invalid_way(3), None);
    }

    #[test]
    fn stale_tag_without_valid_bit_misses() {
        let (_, mut arr) = small();
        arr.fill(0, 1, meta(7));
        arr.invalidate(0, 1);
        // The tag word still holds 7; the cleared valid bit must win.
        assert_eq!(arr.find(0, 7), None);
        assert_eq!(arr.get(0, 1), None);
    }

    #[test]
    fn line_addr_reconstruction() {
        let (g, mut arr) = small();
        let line = LineAddr::new(0x1234);
        let (set, tag) = (g.set_of(line), g.tag_of(line));
        arr.fill(set, 1, meta(tag));
        assert_eq!(arr.line_addr(set, 1), Some(line));
        assert_eq!(arr.line_addr(set, 0), None);
    }

    #[test]
    fn total_occupancy_counts_everything() {
        let (_, mut arr) = small();
        arr.fill(0, 0, meta(1));
        arr.fill(1, 1, meta(2));
        arr.fill(2, 2, meta(3));
        assert_eq!(arr.total_occupancy(), 3);
    }

    #[test]
    fn get_roundtrips_metadata() {
        let (_, mut arr) = small();
        let m = LineMeta::new(11, CoreId::new(3), Pc::new(0x400), true);
        arr.fill(1, 2, m);
        assert_eq!(arr.get(1, 2), Some(m));
    }

    #[test]
    #[should_panic(expected = "invalid frame")]
    fn mark_dirty_requires_valid() {
        let (_, mut arr) = small();
        arr.mark_dirty(0, 0);
    }

    #[test]
    fn audited_array_agrees_with_reference() {
        let (_, mut arr) = small();
        arr.fill(0, 3, meta(7)); // pre-audit state is seeded into the mirror
        arr.enable_audit();
        assert!(arr.audit_enabled());
        assert_eq!(arr.find(0, 7), Some(3));
        arr.fill(1, 0, meta(5));
        arr.mark_dirty(1, 0);
        let ev = arr.invalidate(1, 0).unwrap();
        assert!(ev.dirty);
        assert_eq!(arr.invalid_way(1), Some(0));
        assert_eq!(arr.occupancy(0), 1);
        assert_eq!(arr.total_occupancy(), 1);
        assert!(arr.audit_ops() > 0, "mirror comparisons must have run");
        arr.disable_audit();
        assert!(!arr.audit_enabled());
    }

    #[test]
    #[should_panic(expected = "audit divergence in SetArray::find")]
    fn audit_catches_corrupted_tag() {
        let (_, mut arr) = small();
        arr.enable_audit();
        arr.fill(0, 0, meta(7));
        arr.corrupt_tag_for_test(0, 0, 9); // bypasses the mirror
        let _ = arr.find(0, 9); // SoA says hit, reference says miss
    }
}
