//! Hardware storage-overhead model (Table 4).
//!
//! Estimates the extra state each scheme adds to a baseline LRU LLC, in
//! bits, using the structure sizes of this implementation and partial
//! tags where the literature uses them. The absolute numbers are
//! estimates; the comparison across schemes is what the table shows.

use nucache_cache::shadow::DEFAULT_UMON_SHIFT;
use nucache_cache::CacheGeometry;
use nucache_kernel::{KernelConfig, HISTOGRAM_BUCKETS, MAX_CANDIDATES};

/// Bits of a partial tag stored in sampled monitor structures.
pub const PARTIAL_TAG_BITS: u64 = 16;
/// Bits of a PC identifier (index into the candidate table).
pub const PC_ID_BITS: u64 = 8;
/// Bits of each timestamp / counter in monitor entries.
pub const COUNTER_BITS: u64 = 16;

/// Storage overhead of one scheme, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overhead {
    /// Extra bits attached to every cache line.
    pub per_line_bits: u64,
    /// Bits in monitoring structures (samplers, shadow tags, histograms).
    pub monitor_bits: u64,
    /// Bits of global control state (PSELs, allocations, chosen-PC table).
    pub control_bits: u64,
}

impl Overhead {
    /// Total overhead in bits.
    pub const fn total_bits(&self) -> u64 {
        self.per_line_bits + self.monitor_bits + self.control_bits
    }

    /// Total overhead in kilobytes.
    pub fn total_kb(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / 1024.0
    }

    /// Overhead as a fraction of the data array.
    pub fn fraction_of(&self, geom: &CacheGeometry) -> f64 {
        self.total_bits() as f64 / (geom.size_bytes() as f64 * 8.0)
    }
}

/// NUcache: per-line PC-id (to test chosen-ness at MainWays eviction) and
/// a FIFO stamp on DeliWays lines; sampled Next-Use buffers; per-PC
/// histograms; the chosen-PC table.
pub fn nucache_overhead(geom: &CacheGeometry, config: &KernelConfig) -> Overhead {
    let lines = geom.num_lines() as u64;
    let per_line_bits =
        lines * PC_ID_BITS + (geom.num_sets() as u64) * (config.deli_ways as u64) * COUNTER_BITS;
    let sampled_sets = (geom.num_sets() >> config.monitor_shift).max(1) as u64;
    let buffer_bits =
        sampled_sets * config.monitor_depth as u64 * (PARTIAL_TAG_BITS + PC_ID_BITS + COUNTER_BITS);
    let clock_bits = sampled_sets * COUNTER_BITS;
    let hist_bits = MAX_CANDIDATES as u64 * HISTOGRAM_BUCKETS as u64 * COUNTER_BITS;
    let tracker_bits = MAX_CANDIDATES as u64 * (PC_ID_BITS + 32 + COUNTER_BITS);
    let control_bits = MAX_CANDIDATES as u64; // chosen bit-vector
    Overhead {
        per_line_bits,
        monitor_bits: buffer_bits + clock_bits + hist_bits + tracker_bits,
        control_bits,
    }
}

/// UCP: per-line core-id; per-core sampled shadow directory with
/// per-rank counters.
pub fn ucp_overhead(geom: &CacheGeometry, num_cores: usize) -> Overhead {
    let lines = geom.num_lines() as u64;
    let core_bits = (num_cores as u64).next_power_of_two().trailing_zeros().max(1) as u64;
    let sampled_sets = (geom.num_sets() >> DEFAULT_UMON_SHIFT).max(1) as u64;
    let per_core = sampled_sets * geom.associativity() as u64 * PARTIAL_TAG_BITS
        + geom.associativity() as u64 * 32;
    Overhead {
        per_line_bits: lines * core_bits,
        monitor_bits: num_cores as u64 * per_core,
        control_bits: num_cores as u64 * 8, // way allocations
    }
}

/// PIPP: UCP's monitors plus per-set position stacks (modelled as
/// log2(assoc) bits per line) and stream-detection flags.
pub fn pipp_overhead(geom: &CacheGeometry, num_cores: usize) -> Overhead {
    let base = ucp_overhead(geom, num_cores);
    let lines = geom.num_lines() as u64;
    let pos_bits = (geom.associativity() as u64).next_power_of_two().trailing_zeros() as u64;
    Overhead {
        per_line_bits: base.per_line_bits + lines * pos_bits,
        monitor_bits: base.monitor_bits,
        control_bits: base.control_bits + num_cores as u64,
    }
}

/// TADIP-F: per-line core-id (for leader-set attribution) and per-core
/// 10-bit PSELs — by far the cheapest scheme.
pub fn tadip_overhead(geom: &CacheGeometry, num_cores: usize) -> Overhead {
    let lines = geom.num_lines() as u64;
    let core_bits = (num_cores as u64).next_power_of_two().trailing_zeros().max(1) as u64;
    Overhead {
        per_line_bits: lines * core_bits,
        monitor_bits: 0,
        control_bits: num_cores as u64 * 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2 * 1024 * 1024, 16, 64)
    }

    #[test]
    fn all_overheads_positive_and_small() {
        let g = geom();
        let n = nucache_overhead(&g, &KernelConfig::default());
        let u = ucp_overhead(&g, 4);
        let p = pipp_overhead(&g, 4);
        let t = tadip_overhead(&g, 4);
        for o in [n, u, p, t] {
            assert!(o.total_bits() > 0);
            assert!(o.fraction_of(&g) < 0.10, "overhead should stay below 10%: {o:?}");
        }
    }

    #[test]
    fn tadip_is_cheapest() {
        let g = geom();
        let t = tadip_overhead(&g, 4).total_bits();
        assert!(t < ucp_overhead(&g, 4).total_bits());
        assert!(t < nucache_overhead(&g, &KernelConfig::default()).total_bits());
        assert!(t < pipp_overhead(&g, 4).total_bits());
    }

    #[test]
    fn pipp_extends_ucp() {
        let g = geom();
        assert!(pipp_overhead(&g, 4).total_bits() > ucp_overhead(&g, 4).total_bits());
    }

    #[test]
    fn kb_conversion() {
        let o = Overhead { per_line_bits: 8 * 1024 * 8, monitor_bits: 0, control_bits: 0 };
        assert!((o.total_kb() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn ucp_monitor_scales_with_cores() {
        let g = geom();
        let u2 = ucp_overhead(&g, 2).monitor_bits;
        let u8 = ucp_overhead(&g, 8).monitor_bits;
        assert_eq!(u8, 4 * u2);
    }
}
