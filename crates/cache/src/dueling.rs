//! Set-dueling machinery shared by DIP, DRRIP and TADIP.
//!
//! Set dueling dedicates a few "leader" sets to each competing policy and
//! a saturating counter (PSEL) to track which leader group misses less;
//! all remaining "follower" sets use the currently winning policy.

/// Which policy a set duels for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    /// Leader set hard-wired to policy A.
    LeaderA,
    /// Leader set hard-wired to policy B.
    LeaderB,
    /// Follower set using whichever policy currently wins.
    Follower,
}

/// A two-policy set-dueling selector with a saturating PSEL counter.
///
/// Leader sets are assigned by the complement-select scheme: within each
/// contiguous block of `sets / leaders_per_policy` sets, the first set
/// leads for A and the middle set leads for B, spreading leaders evenly.
///
/// The PSEL convention follows the DIP paper: misses in A-leaders
/// *increment* PSEL, misses in B-leaders *decrement* it, and followers use
/// policy B when PSEL is in its upper half (A is misbehaving) and A
/// otherwise.
#[derive(Debug, Clone)]
pub(crate) struct DuelingSelector {
    num_sets: usize,
    stride: usize,
    psel: u32,
    psel_max: u32,
}

impl DuelingSelector {
    /// Creates a selector over `num_sets` sets with `leaders_per_policy`
    /// leader sets for each policy and a `psel_bits`-bit PSEL counter.
    ///
    /// # Panics
    ///
    /// Panics if `leaders_per_policy` is zero or too large for the set
    /// count, or if `psel_bits` is 0 or > 31.
    pub(crate) fn new(num_sets: usize, leaders_per_policy: usize, psel_bits: u32) -> Self {
        assert!(leaders_per_policy > 0, "need at least one leader per policy");
        assert!(2 * leaders_per_policy <= num_sets, "too many leader sets");
        assert!(psel_bits > 0 && psel_bits < 32, "psel_bits out of range");
        let stride = num_sets / leaders_per_policy;
        let psel_max = (1u32 << psel_bits) - 1;
        DuelingSelector { num_sets, stride, psel: psel_max / 2, psel_max }
    }

    /// The dueling role of `set`.
    fn role(&self, set: usize) -> SetRole {
        debug_assert!(set < self.num_sets);
        let offset = set % self.stride;
        if offset == 0 {
            SetRole::LeaderA
        } else if offset == self.stride / 2 {
            SetRole::LeaderB
        } else {
            SetRole::Follower
        }
    }

    /// Records a demand miss in `set`, updating PSEL if it is a leader.
    pub(crate) fn record_miss(&mut self, set: usize) {
        match self.role(set) {
            SetRole::LeaderA => self.psel = (self.psel + 1).min(self.psel_max),
            SetRole::LeaderB => self.psel = self.psel.saturating_sub(1),
            SetRole::Follower => {}
        }
    }

    /// `true` when followers should use policy A (A-leaders miss less).
    pub(crate) fn a_wins(&self) -> bool {
        self.psel <= self.psel_max / 2
    }

    /// Whether `set` should currently behave as policy A.
    pub(crate) fn use_a(&self, set: usize) -> bool {
        match self.role(set) {
            SetRole::LeaderA => true,
            SetRole::LeaderB => false,
            SetRole::Follower => self.a_wins(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leader_misses_hand_followers_to_b() {
        let mut d = DuelingSelector::new(1024, 32, 10);
        assert_eq!(d.role(0), SetRole::LeaderA);
        for _ in 0..600 {
            d.record_miss(0); // A-leaders missing a lot
        }
        assert!(!d.a_wins());
    }

    #[test]
    fn leader_counts_match() {
        let d = DuelingSelector::new(1024, 32, 10);
        let mut a = 0;
        let mut b = 0;
        for s in 0..1024 {
            match d.role(s) {
                SetRole::LeaderA => a += 1,
                SetRole::LeaderB => b += 1,
                SetRole::Follower => {}
            }
        }
        assert_eq!(a, 32);
        assert_eq!(b, 32);
    }

    #[test]
    fn psel_starts_neutral_and_saturates() {
        let mut d = DuelingSelector::new(64, 4, 4);
        assert!(d.a_wins());
        for _ in 0..1000 {
            d.record_miss(0); // LeaderA misses
        }
        assert_eq!(d.psel, 15);
        assert!(!d.a_wins());
        for _ in 0..1000 {
            d.record_miss(8); // stride = 16, offset 8 => LeaderB misses
        }
        assert_eq!(d.psel, 0);
        assert!(d.a_wins());
    }

    #[test]
    fn followers_track_winner_leaders_do_not() {
        let mut d = DuelingSelector::new(64, 4, 4);
        for _ in 0..1000 {
            d.record_miss(0);
        }
        assert!(!d.a_wins());
        assert!(d.use_a(0), "A-leader always runs A");
        assert!(!d.use_a(8), "B-leader always runs B");
        assert!(!d.use_a(1), "follower tracks the winner");
    }

    #[test]
    fn follower_misses_ignored() {
        let mut d = DuelingSelector::new(64, 4, 4);
        let before = d.psel;
        d.record_miss(3);
        assert_eq!(d.psel, before);
    }

    #[test]
    #[should_panic(expected = "too many leader sets")]
    fn rejects_oversubscribed_leaders() {
        let _ = DuelingSelector::new(16, 16, 4);
    }
}
