//! Whole-row tag compare, shared by the simulator's `SetArray` and the
//! NUcache kernel.
//!
//! A set-associative probe slices the set's packed tag row once and
//! compares every way at the same time, instead of testing one valid way
//! per loop trip. The result is a bitmask (bit `w` set when way `w`
//! holds the tag); callers AND it with their per-set valid mask, so
//! stale tags in invalid ways never match.

/// Tag-equality bitmask over a row of exactly `N` tags: bit `i` is set
/// when `row[i] == tag`. The const trip count lets the compiler unroll
/// and auto-vectorize the compares (u64x4-wide compare + movemask on
/// SSE/AVX targets). Returns 0 when `row.len() != N`; [`eq_mask`]
/// dispatches on the length, so the mismatch arm is unreachable.
#[inline(always)]
fn eq_mask_n<const N: usize>(row: &[u64], tag: u64) -> u64 {
    debug_assert_eq!(row.len(), N, "eq_mask_n dispatched with the wrong width");
    let mut m = 0u64;
    if let Ok(arr) = <&[u64; N]>::try_from(row) {
        for (i, &t) in arr.iter().enumerate() {
            m |= u64::from(t == tag) << i;
        }
    }
    m
}

/// [`eq_mask_n`] for uncommon associativities: the same compare, four
/// ways per step, with a runtime trip count.
#[inline]
fn eq_mask_any(row: &[u64], tag: u64) -> u64 {
    let (quads, tail) = row.split_at(row.len() & !3);
    let mut matches = 0u64;
    for (qi, q) in quads.chunks_exact(4).enumerate() {
        let m = u64::from(q[0] == tag)
            | u64::from(q[1] == tag) << 1
            | u64::from(q[2] == tag) << 2
            | u64::from(q[3] == tag) << 3;
        matches |= m << (4 * qi);
    }
    for (j, &t) in tail.iter().enumerate() {
        matches |= u64::from(t == tag) << (quads.len() + j);
    }
    matches
}

/// Bitmask of the positions in `row` (at most 64 tags) whose tag equals
/// `tag`. Rows of 16, 8 or 4 ways take a fully unrolled compare; any
/// other width takes the four-at-a-time loop.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::eq_mask;
///
/// assert_eq!(eq_mask(&[7, 3, 7, 1, 9], 7), 0b00101);
/// assert_eq!(eq_mask(&[0; 16], 1), 0);
/// ```
#[inline(always)]
pub fn eq_mask(row: &[u64], tag: u64) -> u64 {
    debug_assert!(row.len() <= 64, "a tag row has at most 64 ways");
    match row.len() {
        16 => eq_mask_n::<16>(row, tag),
        8 => eq_mask_n::<8>(row, tag),
        4 => eq_mask_n::<4>(row, tag),
        _ => eq_mask_any(row, tag),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec::Vec;

    /// One way per loop trip: the compare every width must agree with.
    fn naive(row: &[u64], tag: u64) -> u64 {
        row.iter().enumerate().filter(|&(_, &t)| t == tag).fold(0, |m, (i, _)| m | 1 << i)
    }

    #[test]
    fn every_width_matches_the_naive_compare() {
        for ways in 1..=64usize {
            let row: Vec<u64> = (0..ways as u64).map(|w| w % 5).collect();
            for tag in 0..6 {
                assert_eq!(eq_mask(&row, tag), naive(&row, tag), "{ways} ways, tag {tag}");
            }
        }
    }
}
