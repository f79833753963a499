//! Differential audit oracle for the tag substrate.
//!
//! The packed [`SetArray`](crate::SetArray) is the hot probe
//! path of every simulation; its bitmask tricks are exactly the kind of
//! code where an off-by-one silently corrupts results instead of
//! crashing. This module provides the textbook model to check it
//! against: [`ReferenceArray`] stores one `Option<LineMeta>` per frame
//! and implements the same contract with the most obvious code possible.
//!
//! When auditing is enabled (the `debug_invariants` cargo feature, a
//! scheme's `set_audit(true)`, or `simulate --audit`), every `SetArray`
//! operation is mirrored into a `ReferenceArray` and the results are
//! compared; any disagreement panics immediately with both models'
//! answers. A run that completes therefore completed with *zero
//! divergences* over every array operation it performed.

use crate::config::CacheGeometry;
use crate::meta::{EvictedLine, LineMeta};

/// Work counters reported by an enabled audit oracle.
///
/// A completed run with non-zero counters is the evidence that the
/// differential checks actually executed (divergences never return —
/// they panic at the faulting operation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Operations checked against a reference model: every `SetArray`
    /// operation, or every NUcache kernel `get`, `put` and `remove`.
    pub array_ops: u64,
    /// Epoch-level invariant checks performed (NUcache selection epochs).
    pub epoch_checks: u64,
}

/// The textbook tag array: one `Option<LineMeta>` per frame, linear
/// scans, no bit tricks.
///
/// Deliberately naive — this is the *specification* the optimized
/// [`SetArray`](crate::SetArray) is differentially tested against, so it
/// favours obviousness over speed everywhere.
///
/// # Examples
///
/// ```
/// use nucache_cache::audit::ReferenceArray;
/// use nucache_cache::{CacheGeometry, LineMeta};
/// use nucache_common::{CoreId, Pc};
///
/// let geom = CacheGeometry::new(8 * 1024, 4, 64);
/// let mut arr = ReferenceArray::new(geom);
/// arr.fill(0, 2, LineMeta::new(7, CoreId::new(0), Pc::new(0), false));
/// assert_eq!(arr.find(0, 7), Some(2));
/// assert_eq!(arr.occupancy(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceArray {
    geom: CacheGeometry,
    /// Indexed `set * assoc + way`, exactly one frame per way.
    frames: Vec<Option<LineMeta>>,
}

impl ReferenceArray {
    /// Creates an empty reference array for the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        ReferenceArray { geom, frames: vec![None; geom.num_lines()] }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        assert!(set < self.geom.num_sets(), "set index out of range");
        assert!(way < self.geom.associativity(), "way index out of range");
        set * self.geom.associativity() + way
    }

    /// Way holding `tag` in `set`, if resident (lowest way wins).
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        (0..self.geom.associativity())
            .find(|&way| matches!(self.frames[self.idx(set, way)], Some(m) if m.tag == tag))
    }

    /// First invalid way in `set`, if any.
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        (0..self.geom.associativity()).find(|&way| self.frames[self.idx(set, way)].is_none())
    }

    /// Number of valid lines in `set`.
    pub fn occupancy(&self, set: usize) -> usize {
        (0..self.geom.associativity())
            .filter(|&way| self.frames[self.idx(set, way)].is_some())
            .count()
    }

    /// Metadata at `(set, way)`.
    pub fn get(&self, set: usize, way: usize) -> Option<LineMeta> {
        self.frames[self.idx(set, way)]
    }

    /// Writes `meta` into `(set, way)`, returning the displaced line.
    pub fn fill(&mut self, set: usize, way: usize, meta: LineMeta) -> Option<EvictedLine> {
        let i = self.idx(set, way);
        let old = self.frames[i].map(|m| self.to_evicted(set, m));
        self.frames[i] = Some(meta);
        old
    }

    /// Invalidates `(set, way)`, returning the line that was there.
    pub fn invalidate(&mut self, set: usize, way: usize) -> Option<EvictedLine> {
        let i = self.idx(set, way);
        let old = self.frames[i].map(|m| self.to_evicted(set, m));
        self.frames[i] = None;
        old
    }

    /// Marks `(set, way)` dirty.
    ///
    /// # Panics
    ///
    /// Panics if the frame is invalid.
    pub fn mark_dirty(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        #[expect(clippy::expect_used, reason = "documented precondition: the frame is valid")]
        let m = self.frames[i].as_mut().expect("marking an invalid frame dirty");
        m.dirty = true;
    }

    /// Full line address of the line at `(set, way)`, if valid.
    pub fn line_addr(&self, set: usize, way: usize) -> Option<nucache_common::LineAddr> {
        self.frames[self.idx(set, way)].map(|m| self.geom.line_of(m.tag, set))
    }

    /// Total valid lines across all sets.
    pub fn total_occupancy(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    fn to_evicted(&self, set: usize, m: LineMeta) -> EvictedLine {
        EvictedLine { line: self.geom.line_of(m.tag, set), dirty: m.dirty, core: m.core, pc: m.pc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucache_common::{CoreId, Pc};

    fn meta(tag: u64) -> LineMeta {
        LineMeta::new(tag, CoreId::new(0), Pc::new(0), false)
    }

    #[test]
    fn reference_fill_find_invalidate() {
        let geom = CacheGeometry::new(1024, 4, 64);
        let mut arr = ReferenceArray::new(geom);
        assert_eq!(arr.find(0, 9), None);
        assert_eq!(arr.invalid_way(0), Some(0));
        arr.fill(0, 1, meta(9));
        assert_eq!(arr.find(0, 9), Some(1));
        assert_eq!(arr.invalid_way(0), Some(0));
        assert_eq!(arr.occupancy(0), 1);
        assert_eq!(arr.total_occupancy(), 1);
        arr.mark_dirty(0, 1);
        let ev = arr.invalidate(0, 1).expect("line present");
        assert!(ev.dirty);
        assert_eq!(arr.find(0, 9), None);
    }

    #[test]
    fn reference_fill_reports_displaced() {
        let geom = CacheGeometry::new(1024, 4, 64);
        let mut arr = ReferenceArray::new(geom);
        arr.fill(2, 0, meta(5));
        let ev = arr.fill(2, 0, meta(6)).expect("displaces tag 5");
        assert_eq!(ev.line, geom.line_of(5, 2));
        assert_eq!(arr.line_addr(2, 0), Some(geom.line_of(6, 2)));
    }
}
