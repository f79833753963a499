//! Raw tag storage: the `SetArray` every cache organization builds on.

use crate::audit::ReferenceArray;
use crate::config::CacheGeometry;
use crate::meta::{EvictedLine, LineMeta};
use nucache_common::tags::eq_mask;
use nucache_common::{CoreId, LineAddr, Pc};
use std::cell::Cell;

/// Bytes in one metadata block: one host cache line.
const BLOCK: usize = 64;

/// Bytes the valid and dirty masks take at the front of a record.
const MASKS: usize = 16;

/// Byte offset of the dirty mask in a record (the valid mask is at 0).
const DIRTY: usize = 8;

/// The little-endian mask word at byte `at` of `bytes`.
#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

#[inline(always)]
fn set_word(bytes: &mut [u8], at: usize, word: u64) {
    bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
}

/// Where the rows of a set's metadata record sit, in bytes from the
/// record's start. The two masks open the record; each byte row follows
/// in the current 64-byte block if it fits there, else at the start of
/// the next, so no row straddles two blocks. A record is a whole number
/// of blocks.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Bytes per record.
    stride: usize,
    /// Offset of the core row.
    cores: usize,
    /// Offset of the policy row.
    policy: usize,
}

impl Layout {
    fn new(ways: usize) -> Self {
        let place = |at: usize| {
            if at % BLOCK + ways <= BLOCK {
                at
            } else {
                at.next_multiple_of(BLOCK)
            }
        };
        let cores = place(MASKS);
        let policy = place(cores + ways);
        Layout { stride: (policy + ways).next_multiple_of(BLOCK), cores, policy }
    }
}

/// Tag/metadata storage for a set-associative structure, with a byte
/// per way of replacement state that the organization on top interprets.
///
/// Organizations (classic caches, UCP/PIPP variants, the UMON shadow
/// directories) use this array for the mechanical parts: tag match, fill
/// into a way, invalidate, dirty-bit maintenance. Their per-way
/// replacement order (LRU ranks, RRPVs, PIPP stack positions) lives in
/// the set's policy row ([`SetArray::policy_row_mut`]); per-cache state
/// (dueling counters, RNGs) stays in the organization.
///
/// # Layout
///
/// Each set is one record in two parts:
///
/// * its tag row, `ways` packed `u64`s in one `Vec`, which [`find`]
///   compares whole. The rows start at a 64-byte boundary, so a row of
///   8, 16, 32 or 64 ways starts a host cache line;
/// * a metadata record of 64-byte, cache-line-aligned blocks: the valid
///   and dirty masks (one little-endian `u64` each), then one core byte
///   and one policy byte per way. Up to 24 ways this is a single block
///   (a 16-way set is a 128-byte tag row plus one 64-byte block); at 64
///   ways it is three.
///
/// A miss thus touches the tag row, one metadata block and the PC word:
/// the allocating PCs sit in a per-frame side column, written on fill
/// and read only to report an [`EvictedLine`] or a [`LineMeta`]. The
/// hot probes — [`find`], [`invalid_way`], [`occupancy`] — reduce to a
/// whole-row compare plus bit tricks over the masks.
///
/// Policy rows start as the identity permutation (way `w` at rank `w`),
/// the state every rank-based policy expects of an empty set.
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
/// assert_eq!(arr.policy_row(set), &[0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SetArray {
    geom: CacheGeometry,
    /// Tag rows, indexed `tag_at + set * assoc + way`.
    tags: Vec<u64>,
    /// Offset of the first 64-byte boundary in `tags`, so rows of 8, 16,
    /// 32 or 64 ways each start a host cache line: a 16-way row is two
    /// lines, not three. A clone keeps the offset; it stays correct and
    /// may lose only the alignment.
    tag_at: usize,
    /// Metadata records, `layout.stride` bytes per set from `meta_at`,
    /// a 64-byte boundary, so each record starts a host cache line.
    meta: Vec<u8>,
    meta_at: usize,
    layout: Layout,
    /// Allocating PCs, indexed like `tags`.
    pcs: Vec<Pc>,
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
        let ways = geom.associativity();
        assert!(ways <= 64, "associativity above 64 unsupported");
        let layout = Layout::new(ways);
        let mut meta = vec![0u8; geom.num_sets() * layout.stride + BLOCK - 1];
        let meta_at = meta.as_ptr().align_offset(BLOCK).min(BLOCK - 1);
        for record in meta[meta_at..].chunks_exact_mut(layout.stride) {
            for (rank, r) in (0..=63u8).zip(&mut record[layout.policy..layout.policy + ways]) {
                *r = rank;
            }
        }
        let tags = vec![0; geom.num_lines() + 7];
        let tag_at = tags.as_ptr().align_offset(BLOCK).min(7);
        #[allow(unused_mut)] // mut only needed under debug_invariants
        let mut arr = SetArray {
            geom,
            tags,
            tag_at,
            meta,
            meta_at,
            layout,
            pcs: vec![Pc::new(0); geom.num_lines()],
            mirror: None,
            audit_ops: Cell::new(0),
        };
        #[cfg(feature = "debug_invariants")]
        arr.enable_audit();
        arr
    }

    /// Enables differential auditing: a `ReferenceArray` is seeded from
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
            "audit divergence in SetArray::{op}: packed={fast:?}, reference={slow:?}"
        );
    }

    /// Replays a read on the mirror and compares the answers. Cold and
    /// out of line, so the hot probes stay small enough to inline into
    /// their callers.
    #[cold]
    #[inline(never)]
    fn audit_probe<T: PartialEq + std::fmt::Debug>(
        &self,
        op: &str,
        fast: &T,
        slow: impl FnOnce(&ReferenceArray) -> T,
    ) {
        if let Some(m) = &self.mirror {
            self.audit_read(op, fast, &slow(m));
        }
    }

    /// [`SetArray::audit_probe`] for an operation that updates the
    /// mirror.
    #[cold]
    #[inline(never)]
    fn audit_update<T: PartialEq + std::fmt::Debug>(
        &mut self,
        op: &str,
        fast: &T,
        slow: impl FnOnce(&mut ReferenceArray) -> T,
    ) {
        if let Some(m) = &mut self.mirror {
            let slow = slow(m);
            self.audit_read(op, fast, &slow);
        }
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

    /// Index of `set`'s metadata record in `meta`.
    #[inline(always)]
    fn rec(&self, set: usize) -> usize {
        debug_assert!(set < self.geom.num_sets(), "set index out of range");
        self.meta_at + set * self.layout.stride
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
    #[inline(always)]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let row = self.tag_at + self.base(set);
        let assoc = self.geom.associativity();
        let hits = eq_mask(&self.tags[row..row + assoc], tag) & self.valid_mask(set);
        let found = if hits == 0 { None } else { Some(hits.trailing_zeros() as usize) };
        if self.mirror.is_some() {
            self.audit_probe("find", &found, |m| m.find(set, tag));
        }
        found
    }

    /// First invalid way in `set`, if any.
    #[inline(always)]
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid_mask(set) & self.full_mask();
        let way = if free == 0 { None } else { Some(free.trailing_zeros() as usize) };
        if self.mirror.is_some() {
            self.audit_probe("invalid_way", &way, |m| m.invalid_way(set));
        }
        way
    }

    /// Number of valid lines in `set`.
    #[inline(always)]
    pub fn occupancy(&self, set: usize) -> usize {
        let n = self.valid_mask(set).count_ones() as usize;
        if self.mirror.is_some() {
            self.audit_probe("occupancy", &n, |m| m.occupancy(set));
        }
        n
    }

    /// Metadata at `(set, way)`, reassembled from the record.
    #[inline]
    pub fn get(&self, set: usize, way: usize) -> Option<LineMeta> {
        let bit = self.way_bit(set, way);
        let rec = self.rec(set);
        if word(&self.meta, rec) & bit == 0 {
            if self.mirror.is_some() {
                self.audit_probe("get", &None, |m| m.get(set, way));
            }
            return None;
        }
        let i = self.base(set) + way;
        let meta = LineMeta {
            tag: self.tags[self.tag_at + i],
            dirty: word(&self.meta, rec + DIRTY) & bit != 0,
            core: CoreId::new(self.meta[rec + self.layout.cores + way]),
            pc: self.pcs[i],
        };
        if self.mirror.is_some() {
            self.audit_probe("get", &Some(meta), |m| m.get(set, way));
        }
        Some(meta)
    }

    /// The displaced-line view of `(set, way)`, read straight from the
    /// record (no `LineMeta` reassembly round-trip). Forced inline: it
    /// sits on the fill/evict hot path and the compiler otherwise
    /// outlines it once `fill` is itself inlined into a large caller.
    #[inline(always)]
    fn read_evicted(&self, set: usize, way: usize, bit: u64, i: usize) -> Option<EvictedLine> {
        let rec = self.rec(set);
        if word(&self.meta, rec) & bit == 0 {
            return None;
        }
        Some(EvictedLine {
            line: self.geom.line_of(self.tags[self.tag_at + i], set),
            dirty: word(&self.meta, rec + DIRTY) & bit != 0,
            core: CoreId::new(self.meta[rec + self.layout.cores + way]),
            pc: self.pcs[i],
        })
    }

    /// Writes `meta` into `(set, way)`, returning the displaced line (as an
    /// [`EvictedLine`] with its full address reconstructed) if the frame
    /// was valid. The way's policy byte is left to the organization.
    #[inline(always)]
    pub fn fill(&mut self, set: usize, way: usize, meta: LineMeta) -> Option<EvictedLine> {
        let bit = self.way_bit(set, way);
        let i = self.base(set) + way;
        let old = self.read_evicted(set, way, bit, i);
        self.tags[self.tag_at + i] = meta.tag;
        self.pcs[i] = meta.pc;
        let rec = self.rec(set);
        self.meta[rec + self.layout.cores + way] = meta.core.0;
        let masks = &mut self.meta[rec..rec + MASKS];
        set_word(masks, 0, word(masks, 0) | bit);
        let dirty = word(masks, DIRTY);
        set_word(masks, DIRTY, if meta.dirty { dirty | bit } else { dirty & !bit });
        if self.mirror.is_some() {
            self.audit_update("fill", &old, |m| m.fill(set, way, meta));
        }
        old
    }

    /// Invalidates `(set, way)`, returning the line that was there.
    #[inline]
    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let bit = self.way_bit(set, way);
        let old = self.read_evicted(set, way, bit, self.base(set) + way);
        let rec = self.rec(set);
        let masks = &mut self.meta[rec..rec + MASKS];
        set_word(masks, 0, word(masks, 0) & !bit);
        set_word(masks, DIRTY, word(masks, DIRTY) & !bit);
        if self.mirror.is_some() {
            self.audit_update("invalidate", &old, |m| m.invalidate(set, way));
        }
        old
    }

    /// Marks `(set, way)` dirty.
    ///
    /// # Panics
    ///
    /// Panics if the frame is invalid — callers only mark lines they just
    /// hit or filled.
    #[inline(always)]
    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        let bit = self.way_bit(set, way);
        let rec = self.rec(set);
        let masks = &mut self.meta[rec..rec + MASKS];
        assert!(word(masks, 0) & bit != 0, "marking an invalid frame dirty");
        set_word(masks, DIRTY, word(masks, DIRTY) | bit);
        if self.mirror.is_some() {
            // The packed assert above passed, so the reference must agree
            // the frame is valid.
            self.audit_update("mark_dirty", &true, |m| {
                let valid = m.get(set, way).is_some();
                if valid {
                    m.mark_dirty(set, way);
                }
                valid
            });
        }
    }

    /// Reconstructs the full line address of the line at `(set, way)`.
    pub fn line_addr(&self, set: usize, way: usize) -> Option<LineAddr> {
        let bit = self.way_bit(set, way);
        let addr = if self.valid_mask(set) & bit == 0 {
            None
        } else {
            Some(self.geom.line_of(self.tags[self.tag_at + self.base(set) + way], set))
        };
        if self.mirror.is_some() {
            self.audit_probe("line_addr", &addr, |m| m.line_addr(set, way));
        }
        addr
    }

    /// Total valid lines across all sets.
    pub fn total_occupancy(&self) -> usize {
        let n =
            (0..self.geom.num_sets()).map(|set| self.valid_mask(set).count_ones() as usize).sum();
        if self.mirror.is_some() {
            self.audit_probe("total_occupancy", &n, |m| m.total_occupancy());
        }
        n
    }

    /// Test hook: writes a tag word directly, bypassing the audit mirror,
    /// to prove the oracle catches a corrupted substrate.
    #[cfg(test)]
    pub(crate) fn corrupt_tag_for_test(&mut self, set: usize, way: usize, tag: u64) {
        let i = self.tag_at + self.base(set) + way;
        self.tags[i] = tag;
    }

    /// Valid-way bitmask for `set` (bit `way` set when the frame holds a
    /// line). Lets organizations walk only the occupied ways of a set
    /// (`mask.trailing_zeros()` chains) instead of probing every frame
    /// through [`SetArray::get`].
    #[inline(always)]
    pub fn valid_mask(&self, set: usize) -> u64 {
        word(&self.meta, self.rec(set))
    }

    /// Owner-core row for `set`: each way's core index, in way order.
    /// Entries for invalid ways are stale — combine with
    /// [`SetArray::valid_mask`] to walk only live lines. This is the
    /// cheap path for quota/occupancy scans that would otherwise
    /// reassemble a full [`LineMeta`] per way through [`SetArray::get`].
    #[inline(always)]
    pub fn core_row(&self, set: usize) -> &[u8] {
        let at = self.rec(set) + self.layout.cores;
        &self.meta[at..at + self.geom.associativity()]
    }

    /// `set`'s policy row: one byte of replacement state per way, in way
    /// order, read by the organization that owns the array.
    #[inline(always)]
    pub fn policy_row(&self, set: usize) -> &[u8] {
        let at = self.rec(set) + self.layout.policy;
        &self.meta[at..at + self.geom.associativity()]
    }

    /// `set`'s policy row, for the organization to update. Filling or
    /// invalidating a way leaves its byte unchanged.
    #[inline(always)]
    pub fn policy_row_mut(&mut self, set: usize) -> &mut [u8] {
        let at = self.rec(set) + self.layout.policy;
        let ways = self.geom.associativity();
        &mut self.meta[at..at + ways]
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

    /// Every width from 1 to 64 keeps each set's masks, core row and
    /// policy row apart from each other and from the neighbouring sets'.
    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "way and core numbers stay below 256")]
    fn every_width_keeps_its_rows_apart() {
        for ways in 1..=64usize {
            let g = CacheGeometry::new(64 * 4 * ways as u64, ways, 64); // 4 sets
            let mut arr = SetArray::new(g);
            let identity: Vec<u8> = (0..=63u8).take(ways).collect();
            for set in 0..4 {
                assert_eq!(arr.policy_row(set), identity, "{ways} ways, set {set}");
                for (w, r) in arr.policy_row_mut(set).iter_mut().enumerate() {
                    *r = !(w as u8);
                }
            }
            for set in 0..4 {
                for way in 0..ways {
                    let core = CoreId::new((set * 64 + way) as u8);
                    let m = LineMeta::new(way as u64, core, Pc::new(way as u64), way % 3 == 0);
                    assert_eq!(arr.fill(set, way, m), None);
                }
            }
            for set in 0..4 {
                assert_eq!(arr.occupancy(set), ways);
                for way in 0..ways {
                    let m = arr.get(set, way).expect("filled");
                    assert_eq!(m.core, CoreId::new((set * 64 + way) as u8), "{ways} ways");
                    assert_eq!((m.tag, m.dirty), (way as u64, way % 3 == 0), "{ways} ways");
                    assert_eq!(arr.policy_row(set)[way], !(way as u8), "{ways} ways");
                }
                assert_eq!(arr.core_row(set).len(), ways);
            }
            assert_eq!(arr.total_occupancy(), 4 * ways);
        }
    }

    #[test]
    #[should_panic(expected = "audit divergence in SetArray::find")]
    fn audit_catches_corrupted_tag() {
        let (_, mut arr) = small();
        arr.enable_audit();
        arr.fill(0, 0, meta(7));
        arr.corrupt_tag_for_test(0, 0, 9); // bypasses the mirror
        let _ = arr.find(0, 9); // the packed array hits, the reference misses
    }
}
