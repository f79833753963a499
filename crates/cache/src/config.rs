//! Cache geometry: size, associativity and block-size arithmetic.

use nucache_common::LineAddr;
use std::fmt;

/// The block (line) size used throughout the evaluation, in bytes.
///
/// Every cache level in the baseline system uses this block size;
/// DESIGN.md binds its configuration table to this constant.
pub const DEFAULT_BLOCK_BYTES: u32 = 64;

/// The shape of one cache: capacity, associativity and block size.
///
/// All three are fixed at construction; derived quantities (set count,
/// index bits) are computed once and reused on every access.
///
/// # Examples
///
/// ```
/// use nucache_cache::CacheGeometry;
/// let llc = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
/// assert_eq!(llc.num_sets(), 4096);
/// assert_eq!(llc.num_lines(), 65536);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheGeometry {
    size_bytes: u64,
    associativity: usize,
    block_bytes: u32,
    set_bits: u32,
    block_bits: u32,
}

impl CacheGeometry {
    /// Creates a geometry from total capacity, associativity and block
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, the block size is not a power of
    /// two, or the implied set count is not a power of two (the usual
    /// indexing scheme requires it).
    pub fn new(size_bytes: u64, associativity: usize, block_bytes: u32) -> Self {
        assert!(size_bytes > 0 && associativity > 0 && block_bytes > 0, "zero-sized geometry");
        assert!(block_bytes.is_power_of_two(), "block size must be a power of two");
        let block_bits = block_bytes.trailing_zeros();
        let lines = size_bytes / block_bytes as u64;
        assert!(
            lines.is_multiple_of(associativity as u64),
            "capacity must be a whole number of sets (lines={lines}, assoc={associativity})"
        );
        let sets = lines / associativity as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        CacheGeometry {
            size_bytes,
            associativity,
            block_bytes,
            set_bits: sets.trailing_zeros(),
            block_bits,
        }
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Ways per set.
    pub const fn associativity(&self) -> usize {
        self.associativity
    }

    /// Block (line) size in bytes.
    pub const fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Number of sets.
    pub const fn num_sets(&self) -> usize {
        1 << self.set_bits
    }

    /// Total number of line frames.
    pub const fn num_lines(&self) -> usize {
        self.num_sets() * self.associativity
    }

    /// log2 of the set count.
    pub const fn set_bits(&self) -> u32 {
        self.set_bits
    }

    /// log2 of the block size.
    pub const fn block_bits(&self) -> u32 {
        self.block_bits
    }

    /// Set index for a line address.
    pub const fn set_of(&self, line: LineAddr) -> usize {
        line.set_index(self.set_bits)
    }

    /// Tag for a line address.
    pub const fn tag_of(&self, line: LineAddr) -> u64 {
        line.tag(self.set_bits)
    }

    /// Rebuilds the line address stored as `(tag, set)`.
    pub const fn line_of(&self, tag: u64, set: usize) -> LineAddr {
        LineAddr::from_tag_set(tag, set, self.set_bits)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kb = self.size_bytes / 1024;
        if kb >= 1024 && kb.is_multiple_of(1024) {
            write!(f, "{}MB/{}-way/{}B", kb / 1024, self.associativity, self.block_bytes)
        } else {
            write!(f, "{}KB/{}-way/{}B", kb, self.associativity, self.block_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(g.num_sets(), 2048);
        assert_eq!(g.set_bits(), 11);
        assert_eq!(g.block_bits(), 6);
        assert_eq!(g.num_lines(), 32768);
    }

    #[test]
    fn tag_set_roundtrip() {
        let g = CacheGeometry::new(1024 * 1024, 8, 64);
        let line = LineAddr::new(0xabc_def0);
        assert_eq!(g.line_of(g.tag_of(line), g.set_of(line)), line);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_rejected() {
        let _ = CacheGeometry::new(1024, 2, 48);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn ragged_sets_rejected() {
        let _ = CacheGeometry::new(64 * 3, 2, 64); // 3 lines, 2-way
    }

    #[test]
    fn display_formats() {
        let g = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
        assert_eq!(format!("{g}"), "4MB/16-way/64B");
        let s = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(format!("{s}"), "32KB/8-way/64B");
    }
}
