//! Whole-row tag compare, shared by the simulator's `SetArray` and the
//! NUcache kernel, and the kernel's 8-bit replacement ranks.
//!
//! A set-associative probe slices the set's packed tag row once and
//! compares every way at the same time, instead of testing one valid way
//! per loop trip. The result is a bitmask (bit `w` set when way `w`
//! holds the tag); callers AND it with their per-set valid mask, so
//! stale tags in invalid ways never match.
//!
//! A rank row keeps a region's replacement order in one byte per way:
//! the ways hold a permutation of `0..n`, rank 0 the most recently
//! touched. [`rank_touch`] moves a way to the front and [`rank_oldest`]
//! names the way at the back, so one row serves as an LRU stack (touch
//! on every hit and fill) or a FIFO (touch on fill only).

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
/// `tag`. Rows of 64, 16, 8 or 4 tags take a fully unrolled compare;
/// any other width takes the four-at-a-time loop.
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
        64 => eq_mask_n::<64>(row, tag),
        16 => eq_mask_n::<16>(row, tag),
        8 => eq_mask_n::<8>(row, tag),
        4 => eq_mask_n::<4>(row, tag),
        _ => eq_mask_any(row, tag),
    }
}

/// [`rank_touch`] over a row of exactly `N` ranks, unrolled.
#[inline(always)]
fn rank_touch_n<const N: usize>(ranks: &mut [u8], way: usize) {
    if let Ok(row) = <&mut [u8; N]>::try_from(ranks) {
        let Some(&rank) = row.get(way) else { return };
        for r in row.iter_mut() {
            *r += u8::from(*r < rank);
        }
        if let Some(r) = row.get_mut(way) {
            *r = 0;
        }
    }
}

/// Moves `way` to rank 0 of a rank row (at most 64 ways) and ages by
/// one every way that was ahead of it (held a lower rank). A row holding
/// a permutation of `0..ranks.len()` still holds one afterwards. A `way`
/// past the end leaves the row unchanged. Rows of 16, 8 or 4 ways take
/// a fully unrolled loop.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::{rank_oldest, rank_touch};
///
/// let mut ranks = [0, 1, 2, 3];
/// rank_touch(&mut ranks, 2);
/// assert_eq!(ranks, [1, 2, 0, 3]);
/// assert_eq!(rank_oldest(&ranks), 3);
/// rank_touch(&mut ranks, 3);
/// assert_eq!(rank_oldest(&ranks), 1);
/// ```
#[inline]
pub fn rank_touch(ranks: &mut [u8], way: usize) {
    match ranks.len() {
        16 => rank_touch_n::<16>(ranks, way),
        8 => rank_touch_n::<8>(ranks, way),
        4 => rank_touch_n::<4>(ranks, way),
        _ => {
            let Some(&rank) = ranks.get(way) else { return };
            for r in ranks.iter_mut() {
                *r += u8::from(*r < rank);
            }
            if let Some(r) = ranks.get_mut(way) {
                *r = 0;
            }
        }
    }
}

/// [`rank_oldest`] over a row of exactly `N` ranks, unrolled.
#[inline(always)]
fn rank_oldest_n<const N: usize>(ranks: &[u8]) -> u64 {
    let mut at = 0u64;
    if let Ok(row) = <&[u8; N]>::try_from(ranks) {
        for (i, &r) in row.iter().enumerate() {
            at |= u64::from(usize::from(r) == N - 1) << i;
        }
    }
    at
}

/// The way holding the last rank of a rank row (at most 64 ways): the
/// least recently touched one. Branch-free over the row. If no way holds
/// `ranks.len() - 1` the row is not a permutation, and the last way is
/// returned, so the result is always in bounds of a non-empty row.
#[inline]
pub fn rank_oldest(ranks: &[u8]) -> usize {
    debug_assert!(ranks.len() <= 64, "a rank row has at most 64 ways");
    let last = ranks.len().saturating_sub(1);
    let at = match ranks.len() {
        16 => rank_oldest_n::<16>(ranks),
        8 => rank_oldest_n::<8>(ranks),
        4 => rank_oldest_n::<4>(ranks),
        _ => {
            let mut at = 0u64;
            for (i, &r) in ranks.iter().enumerate() {
                at |= u64::from(usize::from(r) == last) << i;
            }
            at
        }
    };
    (at.trailing_zeros() as usize).min(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
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

    /// Rank rows against a stamp model: each touch stamps its way with a
    /// rising clock, so a way's rank must be the number of ways stamped
    /// after it, and the oldest way the one with the smallest stamp.
    #[test]
    fn ranks_follow_a_stamp_model_at_every_width() {
        let mut rng = DetRng::seed(17);
        for ways in 1..=64usize {
            let mut ranks: Vec<u8> = (0..=63u8).take(ways).collect();
            // The identity permutation: way 0 the most recent.
            let mut stamps: Vec<u64> = (0..ways as u64).map(|w| ways as u64 - w).collect();
            let mut clock = ways as u64;
            for _ in 0..if cfg!(miri) { 20 } else { 400 } {
                #[expect(clippy::cast_possible_truncation, reason = "below a 64-way row")]
                let way = rng.below(ways as u64) as usize;
                rank_touch(&mut ranks, way);
                clock += 1;
                stamps[way] = clock;
                for (w, &rank) in ranks.iter().enumerate() {
                    let newer = stamps.iter().filter(|&&s| s > stamps[w]).count();
                    assert_eq!(usize::from(rank), newer, "{ways} ways, way {w}");
                }
                let oldest = (0..ways).min_by_key(|&w| stamps[w]).unwrap_or(0);
                assert_eq!(rank_oldest(&ranks), oldest, "{ways} ways");
            }
        }
    }

    #[test]
    fn rank_edge_cases() {
        let mut empty: [u8; 0] = [];
        rank_touch(&mut empty, 0);
        assert_eq!(rank_oldest(&empty), 0);
        let mut one = [0u8];
        rank_touch(&mut one, 0);
        assert_eq!((one, rank_oldest(&one)), ([0], 0));
        let mut row = [2u8, 0, 1];
        rank_touch(&mut row, 7);
        assert_eq!(row, [2, 0, 1], "a way past the end changes nothing");
        assert_eq!(rank_oldest(&[0u8, 0, 0]), 2, "not a permutation: the last way");
    }
}
