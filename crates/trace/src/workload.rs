//! Workload specifications: sites, behaviours and phases.

use std::fmt;

/// Archetypal memory behaviour of one site (static instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Sequential walk with a fixed stride over a region of `lines` cache
    /// lines, wrapping at the end. With a region much larger than the
    /// LLC this models a pure stream: no temporal reuse within a run.
    Stream {
        /// Region size in cache lines.
        lines: u64,
        /// Step between consecutive accesses, in lines.
        stride: u64,
    },
    /// Cyclic walk over `lines` cache lines: every line's reuse distance
    /// equals the region size. Regions below the private-cache capacity
    /// model hot, cache-friendly data; regions near the LLC capacity
    /// model the retention-sensitive loops NUcache targets.
    Loop {
        /// Region (working-set) size in cache lines.
        lines: u64,
    },
    /// Uniform random accesses over `lines` cache lines (GUPS-style).
    RandomUniform {
        /// Region size in cache lines.
        lines: u64,
    },
    /// A full-period pseudo-random cycle over `lines` cache lines,
    /// modelling dependent pointer chasing: like [`Behavior::Loop`] in
    /// reuse distance, but with no spatial regularity.
    PointerChase {
        /// Region size in cache lines (rounded up to a power of two
        /// internally to obtain a full-period cycle).
        lines: u64,
    },
}

impl Behavior {
    /// Region size in cache lines.
    pub const fn lines(&self) -> u64 {
        match *self {
            Behavior::Stream { lines, .. }
            | Behavior::Loop { lines }
            | Behavior::RandomUniform { lines }
            | Behavior::PointerChase { lines } => lines,
        }
    }

    /// Short label for tables.
    const fn kind_name(&self) -> &'static str {
        match self {
            Behavior::Stream { .. } => "stream",
            Behavior::Loop { .. } => "loop",
            Behavior::RandomUniform { .. } => "random",
            Behavior::PointerChase { .. } => "chase",
        }
    }
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} lines)", self.kind_name(), self.lines())
    }
}

/// One static memory instruction: a behaviour, a selection weight and a
/// write fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Behaviour of the accesses this site issues.
    pub behavior: Behavior,
    /// Relative probability of this site issuing the next access.
    pub weight: u32,
    /// Fraction of this site's accesses that are writes (`0.0..=1.0`).
    pub write_frac: f64,
}

impl SiteSpec {
    /// Creates a read-mostly site (20% writes).
    pub const fn new(behavior: Behavior, weight: u32) -> Self {
        SiteSpec { behavior, weight, write_frac: 0.2 }
    }

    /// Sets the write fraction, builder-style.
    pub const fn with_writes(mut self, write_frac: f64) -> Self {
        self.write_frac = write_frac;
        self
    }
}

/// One phase of a workload: a set of sites active for `accesses` memory
/// accesses before the next phase takes over. Workloads cycle through
/// their phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Sites active during this phase. Site indices are global across
    /// phases (a site keeps its PC and its position in its region when
    /// its phase resumes).
    pub sites: Vec<SiteSpec>,
    /// Phase length in memory accesses.
    pub accesses: u64,
}

/// A complete workload: a name, phases, and the instruction-gap range
/// controlling memory intensity.
///
/// The gap is the number of non-memory instructions between consecutive
/// accesses, drawn uniformly from `gap` per access: small gaps mean a
/// memory-bound application, large gaps a compute-bound one.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name as it appears in tables.
    pub name: String,
    /// Phases cycled through in order (single-phase is the common case).
    pub phases: Vec<Phase>,
    /// Inclusive range of non-memory instructions between accesses.
    pub gap: (u32, u32),
}

impl WorkloadSpec {
    /// Creates a single-phase workload.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty, all weights are zero, or the gap range
    /// is inverted.
    pub fn single_phase(name: impl Into<String>, sites: Vec<SiteSpec>, gap: (u32, u32)) -> Self {
        let spec = WorkloadSpec {
            name: name.into(),
            phases: vec![Phase { sites, accesses: u64::MAX }],
            gap,
        };
        spec.validate();
        spec
    }

    /// Creates a multi-phase workload cycling through `phases`.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as
    /// [`WorkloadSpec::single_phase`], or if `phases` is empty.
    pub fn phased(name: impl Into<String>, phases: Vec<Phase>, gap: (u32, u32)) -> Self {
        let spec = WorkloadSpec { name: name.into(), phases, gap };
        spec.validate();
        spec
    }

    fn validate(&self) {
        assert!(!self.phases.is_empty(), "workload needs at least one phase");
        for phase in &self.phases {
            assert!(!phase.sites.is_empty(), "phase needs at least one site");
            assert!(phase.sites.iter().any(|s| s.weight > 0), "all site weights are zero");
            assert!(phase.accesses > 0, "zero-length phase");
            for s in &phase.sites {
                assert!(s.behavior.lines() > 0, "zero-sized region");
                assert!((0.0..=1.0).contains(&s.write_frac), "write_frac out of range");
                if let Behavior::Stream { stride, .. } = s.behavior {
                    assert!(stride > 0, "zero stream stride");
                }
            }
        }
        assert!(self.gap.0 <= self.gap.1, "inverted gap range");
    }

    /// Total number of distinct sites across all phases.
    pub fn num_sites(&self) -> usize {
        self.phases.iter().map(|p| p.sites.len()).sum()
    }

    /// Sum of all regions' sizes in lines (an upper bound on the
    /// workload's footprint).
    pub fn footprint_lines(&self) -> u64 {
        self.phases.iter().flat_map(|p| &p.sites).map(|s| s.behavior.lines()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_accessors() {
        let b = Behavior::Stream { lines: 100, stride: 2 };
        assert_eq!(b.lines(), 100);
        assert_eq!(b.kind_name(), "stream");
        assert!(format!("{b}").contains("stream"));
    }

    #[test]
    fn site_builder() {
        let s = SiteSpec::new(Behavior::Loop { lines: 10 }, 5).with_writes(0.5);
        assert_eq!(s.weight, 5);
        assert!((s.write_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_phase_construction() {
        let w = WorkloadSpec::single_phase(
            "w",
            vec![SiteSpec::new(Behavior::Loop { lines: 10 }, 1)],
            (1, 4),
        );
        assert_eq!(w.num_sites(), 1);
        assert_eq!(w.footprint_lines(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_sites_rejected() {
        let _ = WorkloadSpec::single_phase("w", vec![], (1, 4));
    }

    #[test]
    #[should_panic(expected = "inverted gap")]
    fn inverted_gap_rejected() {
        let _ = WorkloadSpec::single_phase(
            "w",
            vec![SiteSpec::new(Behavior::Loop { lines: 10 }, 1)],
            (4, 1),
        );
    }

    #[test]
    #[should_panic(expected = "weights are zero")]
    fn zero_weights_rejected() {
        let _ = WorkloadSpec::single_phase(
            "w",
            vec![SiteSpec::new(Behavior::Loop { lines: 10 }, 0)],
            (1, 4),
        );
    }

    #[test]
    #[should_panic(expected = "write_frac")]
    fn bad_write_frac_rejected() {
        let _ = WorkloadSpec::single_phase(
            "w",
            vec![SiteSpec::new(Behavior::Loop { lines: 10 }, 1).with_writes(1.5)],
            (1, 4),
        );
    }

    #[test]
    fn phased_counts_sites_across_phases() {
        let p1 =
            Phase { sites: vec![SiteSpec::new(Behavior::Loop { lines: 10 }, 1)], accesses: 100 };
        let p2 = Phase {
            sites: vec![
                SiteSpec::new(Behavior::Stream { lines: 50, stride: 1 }, 1),
                SiteSpec::new(Behavior::RandomUniform { lines: 20 }, 2),
            ],
            accesses: 100,
        };
        let w = WorkloadSpec::phased("pw", vec![p1, p2], (0, 0));
        assert_eq!(w.num_sites(), 3);
        assert_eq!(w.footprint_lines(), 80);
    }
}
