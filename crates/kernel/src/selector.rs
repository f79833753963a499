//! Cost-benefit class selection.
//!
//! Given the epoch's delinquent-class candidates, their measured fill
//! (miss) counts, and their Next-Use histograms, choose the subset of
//! classes whose entries should be admitted into the DeliWays.
//!
//! The trade-off: with `D` DeliWays per set and a chosen set `S` whose
//! members fill at a combined rate of `r(S)` fills per set-access, the
//! FIFO grants each admitted entry an extra lifetime of about `D / r(S)`
//! set-accesses. A class's benefit is its Next-Use histogram mass at or
//! below that lifetime — evictions that would have been re-requested in
//! time. Adding a class adds its benefit but raises `r(S)`, shrinking
//! the lifetime for everyone; the selection maximizes the *total*
//! expected DeliWays hits.

use crate::config::SelectionStrategy;
use alloc::collections::BTreeMap;
use alloc::vec::Vec;
use core::fmt::Debug;
use nucache_common::{DetRng, Log2Histogram};

/// One candidate class presented to the selector.
#[derive(Debug, Clone)]
pub struct Candidate<C> {
    /// The insertion class.
    pub class: C,
    /// Fills (misses) attributed to the class this epoch.
    pub fills: u64,
    /// Next-Use histogram measured for the class (distances in
    /// set-accesses), if the monitor captured any.
    pub histogram: Option<Log2Histogram>,
}

/// Outcome of a selection pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection<C> {
    /// The chosen classes.
    pub chosen: Vec<C>,
    /// Expected DeliWays hits per epoch for the chosen set (the
    /// objective value; 0 for the non-analytic strategies).
    pub expected_hits: u64,
    /// The extra lifetime (set-accesses) the chosen set enjoys.
    pub extra_lifetime: u64,
}

/// Expected extra lifetime for a combined fill count, given the epoch's
/// sampled set-accesses and the DeliWays depth.
///
/// `fills` and `accesses` must be measured over the same window (the
/// monitor's sampled sets); the result is in set-accesses.
fn extra_lifetime(deli_ways: usize, fills: u64, accesses: u64) -> u64 {
    if fills == 0 {
        return u64::MAX;
    }
    // lifetime = D / (fills per set-access) = D * accesses / fills
    (deli_ways as u64).saturating_mul(accesses) / fills
}

/// Objective: expected DeliWays hits for subset `idx` of `candidates`.
fn expected_hits<C>(
    candidates: &[Candidate<C>],
    idx: &[usize],
    deli_ways: usize,
    accesses: u64,
) -> (u64, u64) {
    let fills: u64 = idx.iter().map(|&i| candidates[i].fills).sum();
    let life = extra_lifetime(deli_ways, fills, accesses);
    let hits =
        idx.iter().map(|&i| candidates[i].histogram.as_ref().map_or(0, |h| h.count_le(life))).sum();
    (hits, life)
}

/// Recomputes the selection objective for an explicit chosen class set.
///
/// The audit oracle uses this to cross-check a [`Selection`] produced by
/// the analytic strategies: re-deriving `(expected_hits, extra_lifetime)`
/// for `selection.chosen` from the same candidates must reproduce the
/// values the strategy reported.
///
/// Returns `None` when a chosen class is not among the candidates
/// (itself an invariant violation the caller reports).
pub(crate) fn evaluate_chosen<C: Copy + Ord>(
    candidates: &[Candidate<C>],
    chosen: &[C],
    deli_ways: usize,
    accesses: u64,
) -> Option<(u64, u64)> {
    let idx: Vec<usize> = chosen
        .iter()
        .map(|class| candidates.iter().position(|c| c.class == *class))
        .collect::<Option<_>>()?;
    Some(expected_hits(candidates, &idx, deli_ways, accesses))
}

/// Runs the configured selection strategy.
///
/// `accesses` is the number of set-accesses observed by the monitor over
/// the same window as the candidates' `fills` (both come from the
/// sampled sets, so their ratio is the per-set fill rate).
///
/// # Examples
///
/// ```
/// use nucache_kernel::selector::{select_classes, Candidate};
/// use nucache_kernel::{InsertionClass, SelectionStrategy};
/// use nucache_common::Log2Histogram;
///
/// let mut h = Log2Histogram::new(16);
/// h.record_n(10, 100); // reused soon after eviction
/// let c = InsertionClass::new(1);
/// let cands = vec![Candidate { class: c, fills: 50, histogram: Some(h) }];
/// let sel = select_classes(&cands, 8, 10_000, SelectionStrategy::CostBenefit, 0);
/// assert_eq!(sel.chosen, vec![c]);
/// ```
pub fn select_classes<C: Copy + Ord + Debug>(
    candidates: &[Candidate<C>],
    deli_ways: usize,
    accesses: u64,
    strategy: SelectionStrategy,
    seed: u64,
) -> Selection<C> {
    match strategy {
        SelectionStrategy::CostBenefit => greedy_cost_benefit(candidates, deli_ways, accesses),
        SelectionStrategy::Exhaustive => exhaustive(candidates, deli_ways, accesses),
        SelectionStrategy::StaticTopK(k) => {
            let mut by_fills: Vec<usize> = (0..candidates.len()).collect();
            by_fills.sort_by(|&a, &b| {
                candidates[b]
                    .fills
                    .cmp(&candidates[a].fills)
                    .then(candidates[a].class.cmp(&candidates[b].class))
            });
            let idx: Vec<usize> = by_fills.into_iter().take(k).collect();
            let (hits, life) = expected_hits(candidates, &idx, deli_ways, accesses);
            Selection {
                chosen: idx.iter().map(|&i| candidates[i].class).collect(),
                expected_hits: hits,
                extra_lifetime: life,
            }
        }
        SelectionStrategy::Random(k) => {
            let mut rng = DetRng::substream(seed, 0x5e1ec7);
            let mut idx: Vec<usize> = (0..candidates.len()).collect();
            rng.shuffle(&mut idx);
            idx.truncate(k);
            idx.sort_unstable();
            let (hits, life) = expected_hits(candidates, &idx, deli_ways, accesses);
            Selection {
                chosen: idx.iter().map(|&i| candidates[i].class).collect(),
                expected_hits: hits,
                extra_lifetime: life,
            }
        }
        SelectionStrategy::None => {
            Selection { chosen: Vec::new(), expected_hits: 0, extra_lifetime: 0 }
        }
    }
}

/// The paper's mechanism: grow the chosen set greedily, accepting the
/// class that maximizes total expected hits, until no addition improves
/// it.
fn greedy_cost_benefit<C: Copy + Ord>(
    candidates: &[Candidate<C>],
    deli_ways: usize,
    accesses: u64,
) -> Selection<C> {
    let mut chosen_idx: Vec<usize> = Vec::new();
    let mut best_hits = 0u64;
    let mut best_life = 0u64;
    loop {
        let mut best_add: Option<(u64, u64, usize)> = None;
        for i in 0..candidates.len() {
            if chosen_idx.contains(&i) {
                continue;
            }
            let mut trial = chosen_idx.clone();
            trial.push(i);
            let (hits, life) = expected_hits(candidates, &trial, deli_ways, accesses);
            let better = match best_add {
                None => hits > best_hits,
                Some((bh, _, bi)) => {
                    hits > bh || (hits == bh && candidates[i].class < candidates[bi].class)
                }
            };
            if better {
                best_add = Some((hits, life, i));
            }
        }
        match best_add {
            Some((hits, life, i)) if hits > best_hits => {
                chosen_idx.push(i);
                best_hits = hits;
                best_life = life;
            }
            _ => break,
        }
    }
    chosen_idx.sort_unstable();
    Selection {
        chosen: chosen_idx.iter().map(|&i| candidates[i].class).collect(),
        expected_hits: best_hits,
        extra_lifetime: best_life,
    }
}

/// Exhaustive subset search (selection upper bound for the ablation).
/// Exponential in the candidate count — callers cap the pool.
fn exhaustive<C: Copy + Ord>(
    candidates: &[Candidate<C>],
    deli_ways: usize,
    accesses: u64,
) -> Selection<C> {
    let n = candidates.len().min(20);
    let mut best: (u64, u64, u32) = (0, 0, 0); // (hits, life, mask)
    for mask in 1u32..(1 << n) {
        let idx: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let (hits, life) = expected_hits(candidates, &idx, deli_ways, accesses);
        if hits > best.0 {
            best = (hits, life, mask);
        }
    }
    let idx: Vec<usize> = (0..n).filter(|&i| best.2 & (1 << i) != 0).collect();
    Selection {
        chosen: idx.iter().map(|&i| candidates[i].class).collect(),
        expected_hits: best.0,
        extra_lifetime: best.1,
    }
}

/// Builds candidates from the tracker's top classes and the monitor's
/// histograms (the glue the kernel uses each epoch).
pub fn build_candidates<C: Copy + Ord>(
    top: &[(C, u64)],
    histograms: &BTreeMap<C, Log2Histogram>,
) -> Vec<Candidate<C>> {
    top.iter()
        .map(|&(class, fills)| Candidate {
            class,
            fills,
            histogram: histograms.get(&class).cloned(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionClass;
    use alloc::vec;

    fn hist(dist: u64, n: u64) -> Option<Log2Histogram> {
        let mut h = Log2Histogram::new(24);
        h.record_n(dist, n);
        Some(h)
    }

    fn cand(class: u64, fills: u64, h: Option<Log2Histogram>) -> Candidate<InsertionClass> {
        Candidate { class: InsertionClass::new(class), fills, histogram: h }
    }

    fn class(raw: u64) -> InsertionClass {
        InsertionClass::new(raw)
    }

    #[test]
    fn selects_reusable_class_rejects_stream() {
        // Class 1: 1000 fills, reused 60 set-accesses after eviction.
        // Class 2: a stream — 2000 fills, never reused (no histogram).
        let c = vec![cand(1, 1000, hist(60, 900)), cand(2, 2000, None)];
        let sel = select_classes(&c, 8, 100_000, SelectionStrategy::CostBenefit, 0);
        assert_eq!(sel.chosen, vec![class(1)]);
        assert_eq!(sel.expected_hits, 900);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_pools() {
        let c = vec![
            cand(1, 800, hist(100, 700)),
            cand(2, 1200, hist(300, 900)),
            cand(3, 5000, hist(20_000, 2_000)),
            cand(4, 300, hist(40, 250)),
        ];
        let g = select_classes(&c, 8, 200_000, SelectionStrategy::CostBenefit, 0);
        let o = select_classes(&c, 8, 200_000, SelectionStrategy::Exhaustive, 0);
        assert!(g.expected_hits <= o.expected_hits);
        assert_eq!(g.expected_hits, o.expected_hits);
    }

    #[test]
    fn static_and_random_strategies_have_expected_sizes() {
        let c: Vec<Candidate<InsertionClass>> =
            (0..10).map(|i| cand(i, 100 + i, hist(50, 50))).collect();
        let s = select_classes(&c, 8, 10_000, SelectionStrategy::StaticTopK(3), 0);
        assert_eq!(s.chosen.len(), 3);
        assert_eq!(s.chosen[0], class(9), "top-k orders by fills");
        let r = select_classes(&c, 8, 10_000, SelectionStrategy::Random(4), 1);
        assert_eq!(r.chosen.len(), 4);
        let r2 = select_classes(&c, 8, 10_000, SelectionStrategy::Random(4), 1);
        assert_eq!(r.chosen, r2.chosen, "random selection is seed-deterministic");
        let n = select_classes(&c, 8, 10_000, SelectionStrategy::None, 0);
        assert!(n.chosen.is_empty());
    }

    #[test]
    fn evaluate_chosen_reproduces_selection_objective() {
        let c = vec![
            cand(1, 800, hist(100, 700)),
            cand(2, 1200, hist(300, 900)),
            cand(4, 300, hist(40, 250)),
        ];
        let sel = select_classes(&c, 8, 200_000, SelectionStrategy::CostBenefit, 0);
        assert!(!sel.chosen.is_empty());
        assert_eq!(
            evaluate_chosen(&c, &sel.chosen, 8, 200_000),
            Some((sel.expected_hits, sel.extra_lifetime))
        );
        assert_eq!(evaluate_chosen(&c, &[class(99)], 8, 200_000), None, "unknown class");
    }

    #[test]
    fn zero_fills_means_infinite_lifetime() {
        let c = vec![cand(1, 0, hist(1_000_000, 10))];
        let sel = select_classes(&c, 8, 1000, SelectionStrategy::CostBenefit, 0);
        assert_eq!(sel.chosen, vec![class(1)]);
    }
}
