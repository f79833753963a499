//! Per-core cycle accounting.

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Served by the private L1.
    L1Hit,
    /// Served by the private L2.
    L2Hit,
    /// Served by the shared LLC.
    LlcHit,
    /// Served by main memory (LLC miss).
    Memory,
}

/// L1 hit latency, in cycles. The four latencies are the usual
/// simulation parameters of the period.
pub const L1_HIT_LATENCY: u32 = 1;
/// L2 hit latency, in cycles.
pub const L2_HIT_LATENCY: u32 = 10;
/// Shared-LLC hit latency, in cycles.
pub const LLC_HIT_LATENCY: u32 = 30;
/// Main-memory latency, in cycles.
pub const MEMORY_LATENCY: u32 = 200;

// Latencies increase down the hierarchy.
const _: () = assert!(
    L1_HIT_LATENCY < L2_HIT_LATENCY
        && L2_HIT_LATENCY < LLC_HIT_LATENCY
        && LLC_HIT_LATENCY < MEMORY_LATENCY
);

impl ServiceLevel {
    /// Latency of an access served at this level, in cycles.
    pub const fn latency(self) -> u32 {
        match self {
            ServiceLevel::L1Hit => L1_HIT_LATENCY,
            ServiceLevel::L2Hit => L2_HIT_LATENCY,
            ServiceLevel::LlcHit => LLC_HIT_LATENCY,
            ServiceLevel::Memory => MEMORY_LATENCY,
        }
    }
}

/// Cycle and instruction counters for one core, with a freezable
/// measurement snapshot.
///
/// In multiprogrammed runs every core executes a fixed instruction quota;
/// cores that finish early keep running (to keep generating contention)
/// but their metrics freeze at the quota. [`CoreClock::freeze`] captures
/// that snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreClock {
    cycles: u64,
    instructions: u64,
    frozen: Option<(u64, u64)>,
}

impl CoreClock {
    /// Creates a zeroed clock.
    pub fn new() -> Self {
        CoreClock::default()
    }

    /// Charges one access: `gap` single-cycle instructions followed by
    /// the memory access with the given latency.
    pub fn charge(&mut self, gap: u32, latency: u32) {
        self.cycles += gap as u64 + latency as u64;
        self.instructions += gap as u64 + 1;
    }

    /// Cycles elapsed (live counter).
    pub const fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions executed (live counter).
    pub const fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Live IPC; 0 for an unstarted clock.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Freezes the measurement snapshot at the current counters (first
    /// call wins; later calls are ignored).
    pub fn freeze(&mut self) {
        if self.frozen.is_none() {
            self.frozen = Some((self.cycles, self.instructions));
        }
    }

    /// Cycles at the freeze point (live value if never frozen).
    pub fn measured_cycles(&self) -> u64 {
        self.frozen.map_or(self.cycles, |(c, _)| c)
    }

    /// Instructions at the freeze point (live value if never frozen).
    pub fn measured_instructions(&self) -> u64 {
        self.frozen.map_or(self.instructions, |(_, i)| i)
    }

    /// IPC at the freeze point.
    pub fn measured_ipc(&self) -> f64 {
        let c = self.measured_cycles();
        if c == 0 {
            0.0
        } else {
            self.measured_instructions() as f64 / c as f64
        }
    }

    /// Resets everything, including the snapshot.
    pub fn reset(&mut self) {
        *self = CoreClock::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lookup() {
        assert_eq!(ServiceLevel::L1Hit.latency(), 1);
        assert_eq!(ServiceLevel::Memory.latency(), 200);
    }

    #[test]
    fn charge_accumulates() {
        let mut c = CoreClock::new();
        c.charge(3, 1); // 3 gap instrs + L1 access
        c.charge(0, 200); // back-to-back miss
        assert_eq!(c.instructions(), 5);
        assert_eq!(c.cycles(), 3 + 1 + 200);
        assert!(c.ipc() > 0.0);
    }

    #[test]
    fn freeze_snapshots_once() {
        let mut c = CoreClock::new();
        c.charge(9, 1);
        c.freeze();
        c.charge(9, 200);
        assert_eq!(c.measured_instructions(), 10);
        assert_eq!(c.instructions(), 20);
        c.freeze(); // no-op
        assert_eq!(c.measured_instructions(), 10);
        assert!(c.frozen.is_some());
    }

    #[test]
    fn unfrozen_measures_live() {
        let mut c = CoreClock::new();
        c.charge(1, 1);
        assert_eq!(c.measured_cycles(), c.cycles());
        assert!((c.measured_ipc() - c.ipc()).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_all() {
        let mut c = CoreClock::new();
        c.charge(1, 1);
        c.freeze();
        c.reset();
        assert_eq!(c.cycles(), 0);
        assert!(c.frozen.is_none());
        assert_eq!(c.ipc(), 0.0);
    }
}
