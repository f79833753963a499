//! Trace characterization: footprint, intensity and per-PC structure.

use crate::gen::{BLOCK_BITS, BLOCK_BYTES};
use nucache_common::Access;
use std::collections::BTreeMap;

/// Summary statistics of a (prefix of a) trace.
///
/// Used by the workload-inventory table and by tests asserting that the
/// generators produce the intended behaviour.
///
/// # Examples
///
/// ```
/// use nucache_trace::{SpecWorkload, TraceGen, TraceSummary};
/// use nucache_common::CoreId;
///
/// let spec = SpecWorkload::HmmerLike.spec();
/// let summary = TraceSummary::from_accesses(TraceGen::new(&spec, CoreId::new(0), 1).take(10_000));
/// assert_eq!(summary.accesses, 10_000);
/// assert!(summary.distinct_pcs >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Memory accesses observed.
    pub accesses: u64,
    /// Total instructions (accesses + gaps).
    pub instructions: u64,
    /// Distinct cache lines touched.
    pub distinct_lines: u64,
    /// Distinct PCs observed.
    pub distinct_pcs: usize,
    /// Fraction of accesses that were writes.
    pub write_frac: f64,
    /// Accesses per PC, descending.
    pub accesses_per_pc: Vec<(u64, u64)>,
}

impl TraceSummary {
    /// Computes a summary over an access stream (consumes it).
    pub fn from_accesses<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        let mut accesses = 0u64;
        let mut instructions = 0u64;
        let mut writes = 0u64;
        #[expect(clippy::disallowed_types, reason = "only len() is read")]
        let mut lines = std::collections::HashSet::new();
        let mut per_pc: BTreeMap<u64, u64> = BTreeMap::new();
        for a in iter {
            accesses += 1;
            instructions += a.instructions();
            if a.kind.is_write() {
                writes += 1;
            }
            lines.insert(a.addr.line(BLOCK_BITS).0);
            *per_pc.entry(a.pc.0).or_insert(0) += 1;
        }
        let mut accesses_per_pc: Vec<(u64, u64)> = per_pc.into_iter().collect();
        accesses_per_pc.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        TraceSummary {
            accesses,
            instructions,
            distinct_lines: lines.len() as u64,
            distinct_pcs: accesses_per_pc.len(),
            write_frac: if accesses == 0 { 0.0 } else { writes as f64 / accesses as f64 },
            accesses_per_pc,
        }
    }

    /// Memory intensity: accesses per kilo-instruction.
    pub fn apki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.accesses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Footprint in bytes ([`BLOCK_BYTES`]-sized lines).
    pub fn footprint_bytes(&self) -> u64 {
        self.distinct_lines * BLOCK_BYTES
    }

    /// Fraction of accesses issued by the `k` most active PCs.
    pub fn top_pc_coverage(&self, k: usize) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let top: u64 = self.accesses_per_pc.iter().take(k).map(|&(_, n)| n).sum();
        top as f64 / self.accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGen;
    use crate::spec::SpecWorkload;
    use crate::workload::{Behavior, SiteSpec, WorkloadSpec};
    use nucache_common::CoreId;

    #[test]
    fn empty_stream_summary() {
        let s = TraceSummary::from_accesses(std::iter::empty());
        assert_eq!(s.accesses, 0);
        assert_eq!(s.apki(), 0.0);
        assert_eq!(s.top_pc_coverage(3), 0.0);
    }

    #[test]
    fn loop_summary_matches_spec() {
        let spec = WorkloadSpec::single_phase(
            "l",
            vec![SiteSpec::new(Behavior::Loop { lines: 50 }, 1)],
            (4, 4),
        );
        let s = TraceSummary::from_accesses(TraceGen::new(&spec, CoreId::new(0), 1).take(1000));
        assert_eq!(s.accesses, 1000);
        assert_eq!(s.instructions, 5000);
        assert_eq!(s.distinct_lines, 50);
        assert_eq!(s.distinct_pcs, 1);
        assert!((s.apki() - 200.0).abs() < 1e-9);
        assert_eq!(s.footprint_bytes(), 50 * 64);
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        let spec = SpecWorkload::McfLike.spec();
        let s = TraceSummary::from_accesses(TraceGen::new(&spec, CoreId::new(0), 1).take(20_000));
        let c1 = s.top_pc_coverage(1);
        let c2 = s.top_pc_coverage(2);
        let call = s.top_pc_coverage(s.distinct_pcs);
        assert!(c1 <= c2 && c2 <= call);
        assert!((call - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_beats_compute_bound_intensity() {
        let mcf = TraceSummary::from_accesses(
            TraceGen::new(&SpecWorkload::McfLike.spec(), CoreId::new(0), 1).take(20_000),
        );
        let hmmer = TraceSummary::from_accesses(
            TraceGen::new(&SpecWorkload::HmmerLike.spec(), CoreId::new(0), 1).take(20_000),
        );
        assert!(mcf.apki() > 2.0 * hmmer.apki());
    }
}
