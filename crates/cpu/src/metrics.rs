//! Multiprogrammed performance metrics.
//!
//! The standard trio for shared-cache studies:
//!
//! * **Weighted speedup**: `Σ IPC_shared,i / IPC_alone,i` — system
//!   throughput normalized to each application's solo performance;
//! * **ANTT** (average normalized turnaround time):
//!   `(1/n) Σ IPC_alone,i / IPC_shared,i` — user-perceived slowdown,
//!   lower is better;
//! * **Harmonic mean of speedups**: balances throughput and fairness.

use nucache_common::stats::{harmonic_mean, mean};

/// Per-mix multiprogrammed metrics computed from per-core shared and solo
/// IPCs.
///
/// # Examples
///
/// ```
/// use nucache_cpu::MultiProgramMetrics;
/// let m = MultiProgramMetrics::new(&[0.5, 1.0], &[1.0, 1.0]);
/// assert!((m.weighted_speedup - 1.5).abs() < 1e-12);
/// assert!((m.antt - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiProgramMetrics {
    /// Per-core normalized speedups (`IPC_shared / IPC_alone`).
    pub per_core_speedup: Vec<f64>,
    /// Sum of normalized speedups.
    pub weighted_speedup: f64,
    /// Average normalized turnaround time (lower is better).
    pub antt: f64,
    /// Harmonic mean of the normalized speedups.
    pub harmonic_speedup: f64,
    /// Raw throughput: sum of shared IPCs.
    pub throughput: f64,
    /// Fairness: min speedup / max speedup (1 = perfectly fair).
    pub fairness: f64,
}

impl MultiProgramMetrics {
    /// Computes the metrics from shared-mode and solo IPC vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ, are empty, or any solo IPC
    /// is non-positive (a core that never ran alone cannot be
    /// normalized).
    pub fn new(shared_ipc: &[f64], solo_ipc: &[f64]) -> Self {
        assert_eq!(shared_ipc.len(), solo_ipc.len(), "core-count mismatch");
        assert!(!shared_ipc.is_empty(), "no cores");
        assert!(solo_ipc.iter().all(|&i| i > 0.0), "non-positive solo IPC");
        let per_core_speedup: Vec<f64> =
            shared_ipc.iter().zip(solo_ipc).map(|(&s, &a)| s / a).collect();
        let weighted_speedup = per_core_speedup.iter().sum();
        let antt = mean(
            &per_core_speedup
                .iter()
                .map(|&s| if s > 0.0 { 1.0 / s } else { f64::INFINITY })
                .collect::<Vec<_>>(),
        );
        let harmonic_speedup = harmonic_mean(&per_core_speedup);
        let throughput = shared_ipc.iter().sum();
        let min = per_core_speedup.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per_core_speedup.iter().cloned().fold(0.0, f64::max);
        let fairness = if max > 0.0 { min / max } else { 0.0 };
        MultiProgramMetrics {
            per_core_speedup,
            weighted_speedup,
            antt,
            harmonic_speedup,
            throughput,
            fairness,
        }
    }

    /// Number of cores in the mix.
    pub fn num_cores(&self) -> usize {
        self.per_core_speedup.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_equals_shared_gives_unit_metrics() {
        let m = MultiProgramMetrics::new(&[0.8, 0.6], &[0.8, 0.6]);
        assert!((m.weighted_speedup - 2.0).abs() < 1e-12);
        assert!((m.antt - 1.0).abs() < 1e-12);
        assert!((m.harmonic_speedup - 1.0).abs() < 1e-12);
        assert!((m.fairness - 1.0).abs() < 1e-12);
        assert_eq!(m.num_cores(), 2);
    }

    #[test]
    fn asymmetric_slowdown_reflected() {
        let m = MultiProgramMetrics::new(&[0.4, 0.9], &[0.8, 0.9]);
        assert!((m.weighted_speedup - 1.5).abs() < 1e-12);
        assert!((m.antt - (2.0 + 1.0) / 2.0).abs() < 1e-12);
        assert!((m.fairness - 0.5).abs() < 1e-12);
        assert!((m.throughput - 1.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "core-count mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = MultiProgramMetrics::new(&[1.0], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-positive solo")]
    fn zero_solo_rejected() {
        let _ = MultiProgramMetrics::new(&[1.0], &[0.0]);
    }
}
