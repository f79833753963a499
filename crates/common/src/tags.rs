//! Whole-row tag compare and 8-bit replacement ranks, shared by the
//! simulator's `SetArray` and the NUcache kernel.
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
//! names the way at the back ([`rank_way`] the way at any rank), so one
//! row serves as an LRU stack (touch on every hit and fill) or a FIFO
//! (touch on fill only). The other
//! moves serve the simulator's policies: [`rank_to_back`] is an
//! LRU-position insert (DIP, TADIP-F), [`rank_insert`] an insert at a
//! depth from the back and [`rank_promote`] a one-step promotion (PIPP),
//! and [`rank_oldest_in`] picks the oldest of a subset of ways (UCP).
//! Every move shifts the ways it passes by one rank and keeps the
//! relative order of all the others, so a row that holds a permutation
//! still holds one afterwards.

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

/// The ways of a row of exactly `N` ranks that hold `rank`, as a
/// bitmask, unrolled.
#[inline(always)]
fn rank_mask_n<const N: usize>(ranks: &[u8], rank: usize) -> u64 {
    let mut at = 0u64;
    if let Ok(row) = <&[u8; N]>::try_from(ranks) {
        for (i, &r) in row.iter().enumerate() {
            at |= u64::from(usize::from(r) == rank) << i;
        }
    }
    at
}

/// The way holding `rank` in a rank row (at most 64 ways). Branch-free
/// over the row. If no way holds it, the row is not a permutation or
/// `rank` is past its end, and the last way is returned, so the result
/// is always in bounds of a non-empty row.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::rank_way;
///
/// let ranks = [2, 0, 3, 1];
/// assert_eq!(rank_way(&ranks, 0), 1);
/// assert_eq!(rank_way(&ranks, 3), 2);
/// ```
#[inline]
pub fn rank_way(ranks: &[u8], rank: usize) -> usize {
    debug_assert!(ranks.len() <= 64, "a rank row has at most 64 ways");
    let last = ranks.len().saturating_sub(1);
    let at = match ranks.len() {
        16 => rank_mask_n::<16>(ranks, rank),
        8 => rank_mask_n::<8>(ranks, rank),
        4 => rank_mask_n::<4>(ranks, rank),
        _ => {
            let mut at = 0u64;
            for (i, &r) in ranks.iter().enumerate() {
                at |= u64::from(usize::from(r) == rank) << i;
            }
            at
        }
    };
    (at.trailing_zeros() as usize).min(last)
}

/// The way holding the last rank of a rank row (at most 64 ways): the
/// least recently touched one. Branch-free over the row. If no way holds
/// `ranks.len() - 1` the row is not a permutation, and the last way is
/// returned, so the result is always in bounds of a non-empty row.
#[inline]
pub fn rank_oldest(ranks: &[u8]) -> usize {
    rank_way(ranks, ranks.len().saturating_sub(1))
}

/// The rank `r` becomes when the way at rank `from` moves to rank `to`:
/// ranks in `[to, from)` age by one, ranks in `(from, to]` get younger by
/// one, and every other rank stays.
#[inline(always)]
fn shifted(r: u8, from: u8, to: u8) -> u8 {
    r + u8::from(to <= r && r < from) - u8::from(from < r && r <= to)
}

/// [`rank_move`] over a row of exactly `N` ranks, unrolled.
#[inline(always)]
fn rank_move_n<const N: usize>(ranks: &mut [u8], way: usize, to: u8) {
    if let Ok(row) = <&mut [u8; N]>::try_from(ranks) {
        let Some(&from) = row.get(way) else { return };
        for r in row.iter_mut() {
            *r = shifted(*r, from, to);
        }
        if let Some(r) = row.get_mut(way) {
            *r = to;
        }
    }
}

/// Moves `way` to rank `to` (at most the last rank), shifting every way
/// between its old and new rank by one toward the gap it left. A `way`
/// past the end leaves the row unchanged. Rows of 16, 8 or 4 ways take a
/// fully unrolled loop.
#[inline(always)]
fn rank_move(ranks: &mut [u8], way: usize, to: usize) {
    debug_assert!(ranks.len() <= 64, "a rank row has at most 64 ways");
    #[expect(clippy::cast_possible_truncation, reason = "clamped below a 64-way row")]
    let to = to.min(ranks.len().saturating_sub(1)) as u8;
    match ranks.len() {
        16 => rank_move_n::<16>(ranks, way, to),
        8 => rank_move_n::<8>(ranks, way, to),
        4 => rank_move_n::<4>(ranks, way, to),
        _ => {
            let Some(&from) = ranks.get(way) else { return };
            for r in ranks.iter_mut() {
                *r = shifted(*r, from, to);
            }
            if let Some(r) = ranks.get_mut(way) {
                *r = to;
            }
        }
    }
}

/// Moves `way` to the last rank of a rank row (at most 64 ways), behind
/// every other way, and makes every way that was behind it one rank
/// younger: an insert at the LRU position. A `way` past the end leaves
/// the row unchanged.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::{rank_oldest, rank_to_back};
///
/// let mut ranks = [0, 1, 2, 3];
/// rank_to_back(&mut ranks, 1);
/// assert_eq!(ranks, [0, 3, 1, 2]);
/// assert_eq!(rank_oldest(&ranks), 1);
/// ```
#[inline(always)]
pub fn rank_to_back(ranks: &mut [u8], way: usize) {
    rank_move(ranks, way, usize::MAX);
}

/// Moves `way` to `depth` ranks in front of the back of a rank row (at
/// most 64 ways): depth 0 is the last rank, and a depth past the front
/// is the front. The ways it passes shift by one, as in [`rank_touch`]
/// and [`rank_to_back`]. A `way` past the end leaves the row unchanged.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::rank_insert;
///
/// let mut ranks = [0, 1, 2, 3];
/// rank_insert(&mut ranks, 3, 2); // two ranks in front of the back
/// assert_eq!(ranks, [0, 2, 3, 1]);
/// ```
#[inline(always)]
pub fn rank_insert(ranks: &mut [u8], way: usize, depth: usize) {
    rank_move(ranks, way, ranks.len().saturating_sub(1).saturating_sub(depth));
}

/// Moves `way` one rank toward the front of a rank row (at most 64
/// ways), swapping it with the way there. The front way, and a `way`
/// past the end, leave the row unchanged.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::rank_promote;
///
/// let mut ranks = [0, 1, 2, 3];
/// rank_promote(&mut ranks, 2);
/// assert_eq!(ranks, [0, 2, 1, 3]);
/// rank_promote(&mut ranks, 0);
/// assert_eq!(ranks, [0, 2, 1, 3], "the front way stays");
/// ```
#[inline(always)]
pub fn rank_promote(ranks: &mut [u8], way: usize) {
    if let Some(&rank) = ranks.get(way) {
        rank_move(ranks, way, usize::from(rank.saturating_sub(1)));
    }
}

/// The way with the highest rank among the ways whose bits are set in
/// `ways` (bit `w` for way `w`): the least recently touched of them.
/// `None` when no bit names a way of the row.
///
/// # Examples
///
/// ```
/// use nucache_common::tags::rank_oldest_in;
///
/// let ranks = [2, 0, 3, 1];
/// assert_eq!(rank_oldest_in(&ranks, 0b1011), Some(0));
/// assert_eq!(rank_oldest_in(&ranks, 0b0110), Some(2));
/// assert_eq!(rank_oldest_in(&ranks, 0b1_0000), None);
/// ```
#[inline]
pub fn rank_oldest_in(ranks: &[u8], ways: u64) -> Option<usize> {
    let mut best: Option<(u8, usize)> = None;
    let mut m = ways;
    while m != 0 {
        let w = m.trailing_zeros() as usize;
        m &= m - 1;
        if let Some(&r) = ranks.get(w) {
            if best.is_none_or(|(b, _)| r > b) {
                best = Some((r, w));
            }
        }
    }
    best.map(|(_, w)| w)
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

    /// A stamp model of a rank row: a larger stamp is a more recent
    /// way, and a way's rank is the number of ways stamped after it.
    /// Stamps are renumbered to multiples of 4 after every move, so an
    /// insert between two neighbours always finds a free stamp.
    struct Stamps(Vec<i64>);

    impl Stamps {
        /// The identity permutation: way 0 the most recent.
        fn new(ways: usize) -> Self {
            Stamps((0..ways as i64).map(|w| -4 * w).collect())
        }

        fn rank(&self, way: usize) -> usize {
            self.0.iter().filter(|&&s| s > self.0[way]).count()
        }

        /// The ways other than `way`, most recent first.
        fn others(&self, way: usize) -> Vec<usize> {
            let mut o: Vec<usize> = (0..self.0.len()).filter(|&w| w != way).collect();
            o.sort_by_key(|&w| core::cmp::Reverse(self.0[w]));
            o
        }

        /// Stamps `way` so that exactly `to` other ways are more recent.
        fn place(&mut self, way: usize, to: usize) {
            let o = self.others(way);
            let to = to.min(o.len());
            self.0[way] = match (to.checked_sub(1).map(|i| o[i]), o.get(to)) {
                (None, None) => 0,
                (None, Some(&next)) => self.0[next] + 1,
                (Some(prev), None) => self.0[prev] - 1,
                (Some(prev), Some(&next)) => (self.0[prev] + self.0[next]) / 2,
            };
            let mut order: Vec<usize> = (0..self.0.len()).collect();
            order.sort_by_key(|&w| self.0[w]);
            for (i, w) in order.into_iter().enumerate() {
                self.0[w] = 4 * i as i64;
            }
        }

        fn check(&self, ranks: &[u8], what: &str) {
            for (w, &rank) in ranks.iter().enumerate() {
                assert_eq!(usize::from(rank), self.rank(w), "{what}: way {w} of {}", ranks.len());
            }
        }
    }

    /// Runs `step` at every width from 1 to 64 on a random rank row and
    /// its stamp model, touching a random way between steps so the row
    /// leaves the identity order, and requires the two to agree after
    /// every step.
    fn against_stamps(what: &str, mut step: impl FnMut(&mut [u8], &mut Stamps, &mut DetRng)) {
        let mut rng = DetRng::seed(23);
        for ways in 1..=64usize {
            let mut ranks: Vec<u8> = (0..=63u8).take(ways).collect();
            let mut stamps = Stamps::new(ways);
            for _ in 0..if cfg!(miri) { 10 } else { 200 } {
                step(&mut ranks, &mut stamps, &mut rng);
                stamps.check(&ranks, what);
                #[expect(clippy::cast_possible_truncation, reason = "below a 64-way row")]
                let way = rng.below(ways as u64) as usize;
                rank_touch(&mut ranks, way);
                stamps.place(way, 0);
                stamps.check(&ranks, "touch");
            }
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "below a 64-way row")]
    fn any_way(rng: &mut DetRng, ways: usize) -> usize {
        rng.below(ways as u64) as usize
    }

    #[test]
    fn to_back_follows_a_stamp_model_at_every_width() {
        against_stamps("to_back", |ranks, stamps, rng| {
            let way = any_way(rng, ranks.len());
            rank_to_back(ranks, way);
            stamps.place(way, ranks.len() - 1);
            assert_eq!(rank_oldest(ranks), way, "the moved way is the oldest");
        });
    }

    #[test]
    fn insert_follows_a_stamp_model_at_every_width() {
        against_stamps("insert", |ranks, stamps, rng| {
            let way = any_way(rng, ranks.len());
            // Depths past the front clamp to the front.
            let depth = any_way(rng, ranks.len() + 2);
            rank_insert(ranks, way, depth);
            stamps.place(way, (ranks.len() - 1).saturating_sub(depth));
        });
    }

    #[test]
    fn promote_follows_a_stamp_model_at_every_width() {
        against_stamps("promote", |ranks, stamps, rng| {
            let way = any_way(rng, ranks.len());
            let to = stamps.rank(way).saturating_sub(1);
            rank_promote(ranks, way);
            stamps.place(way, to);
        });
    }

    #[test]
    fn oldest_in_follows_a_stamp_model_at_every_width() {
        against_stamps("oldest_in", |ranks, stamps, rng| {
            let mask = rng.next_u64() & (u64::MAX >> (64 - ranks.len()));
            let oldest =
                (0..ranks.len()).filter(|&w| mask >> w & 1 == 1).min_by_key(|&w| stamps.0[w]);
            assert_eq!(rank_oldest_in(ranks, mask), oldest, "{} ways, mask {mask:#x}", ranks.len());
            let all = u64::MAX >> (64 - ranks.len());
            assert_eq!(rank_oldest_in(ranks, all), Some(rank_oldest(ranks)));
        });
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
        rank_to_back(&mut row, 7);
        rank_insert(&mut row, 7, 0);
        rank_promote(&mut row, 7);
        assert_eq!(row, [2, 0, 1], "a way past the end changes nothing");
        rank_to_back(&mut empty, 0);
        rank_insert(&mut empty, 0, 3);
        rank_promote(&mut empty, 0);
        assert_eq!(rank_oldest_in(&empty, u64::MAX), None);
        rank_insert(&mut one, 0, 5);
        rank_promote(&mut one, 0);
        assert_eq!(one, [0]);
        assert_eq!(rank_oldest(&[0u8, 0, 0]), 2, "not a permutation: the last way");
    }
}
