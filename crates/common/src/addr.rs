//! Strongly-typed addresses, line addresses, program counters and core ids.
//!
//! Newtypes keep byte addresses, cache-line addresses and instruction
//! addresses (PCs) from being confused with one another — all three are
//! `u64` underneath, and mixing them up is the classic cache-simulator bug.

use core::fmt;

/// A byte-granular physical address.
///
/// # Examples
///
/// ```
/// use nucache_common::Addr;
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line(6).0, 0x48); // 64-byte blocks
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the cache-line address for a block of `2^block_bits` bytes.
    pub const fn line(self, block_bits: u32) -> LineAddr {
        LineAddr(self.0 >> block_bits)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line (block) address: a byte address shifted right by the
/// block-size bits.
///
/// The cache substrate indexes sets and matches tags on `LineAddr`s only;
/// byte offsets never reach it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Creates a line address from a raw block number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Set index for a cache with `2^set_bits` sets.
    #[expect(clippy::cast_possible_truncation, reason = "masked below the set count")]
    pub const fn set_index(self, set_bits: u32) -> usize {
        (self.0 & ((1 << set_bits) - 1)) as usize
    }

    /// Tag for a cache with `2^set_bits` sets.
    pub const fn tag(self, set_bits: u32) -> u64 {
        self.0 >> set_bits
    }

    /// Reconstructs the line address from a `(tag, set)` pair produced by
    /// [`LineAddr::tag`] and [`LineAddr::set_index`].
    pub const fn from_tag_set(tag: u64, set: usize, set_bits: u32) -> Self {
        LineAddr((tag << set_bits) | set as u64)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// The address of a static memory instruction (program counter).
///
/// NUcache is a *PC-centric* organization: allocation decisions key on the
/// instruction that caused the miss, not on the data address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// Creates a PC from a raw instruction address.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns a PC made unique across cores by folding the core id into
    /// the high bits. Shared LLC structures index per-(core, PC) so that
    /// identical synthetic PCs from different cores stay distinct.
    pub const fn globalize(self, core: CoreId) -> Pc {
        Pc(self.0 | ((core.0 as u64) << 56))
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc(raw)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

/// Identifier of a core in the simulated multicore (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// Creates a core id.
    pub const fn new(raw: u8) -> Self {
        CoreId(raw)
    }

    /// Returns the id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u8> for CoreId {
    fn from(raw: u8) -> Self {
        CoreId(raw)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_drops_block_bits() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.line(6).0, 0xdead_beef >> 6);
    }

    #[test]
    fn line_tag_set_roundtrip() {
        let line = LineAddr::new(0x1234_5678);
        let set_bits = 10;
        let tag = line.tag(set_bits);
        let set = line.set_index(set_bits);
        assert_eq!(LineAddr::from_tag_set(tag, set, set_bits), line);
    }

    #[test]
    fn set_index_is_bounded() {
        let line = LineAddr::new(u64::MAX);
        assert!(line.set_index(8) < 256);
    }

    #[test]
    fn pc_globalize_distinguishes_cores() {
        let pc = Pc::new(0x400_0000);
        assert_ne!(pc.globalize(CoreId::new(0)), pc.globalize(CoreId::new(3)));
        assert_eq!(pc.globalize(CoreId::new(0)), pc);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", Addr::new(0)).is_empty());
        assert!(!format!("{}", LineAddr::new(0)).is_empty());
        assert!(!format!("{}", Pc::new(0)).is_empty());
        assert!(!format!("{}", CoreId::new(0)).is_empty());
    }

    #[test]
    fn conversions_from_raw() {
        assert_eq!(Addr::from(7u64), Addr::new(7));
        assert_eq!(LineAddr::from(7u64), LineAddr::new(7));
        assert_eq!(Pc::from(7u64), Pc::new(7));
        assert_eq!(CoreId::from(2u8), CoreId::new(2));
    }
}
