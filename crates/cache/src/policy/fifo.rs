//! First-in-first-out replacement.

use crate::config::CacheGeometry;
use crate::policy::{FillCtx, ReplacementPolicy};

/// FIFO replacement: the victim is the oldest *fill*, regardless of hits.
///
/// NUcache manages its DeliWays region FIFO; this standalone policy also
/// serves as a baseline and lets tests compare FIFO- vs LRU-managed
/// retention directly.
#[derive(Debug, Clone)]
pub struct Fifo {
    assoc: usize,
    stamp: u64,
    fill_stamp: Vec<u64>,
}

impl Fifo {
    /// Creates FIFO state for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        Fifo { assoc: geom.associativity(), stamp: 0, fill_stamp: vec![0; geom.num_lines()] }
    }
}

impl ReplacementPolicy for Fifo {
    fn on_hit(&mut self, _set: usize, _way: usize) {
        // Hits do not affect FIFO order.
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &FillCtx) {
        self.stamp += 1;
        self.fill_stamp[set * self.assoc + way] = self.stamp;
    }

    #[expect(clippy::expect_used, reason = "the associativity is non-zero")]
    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        (0..self.assoc).min_by_key(|&w| self.fill_stamp[base + w]).expect("non-zero associativity")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.fill_stamp[set * self.assoc + way] = 0;
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicCache;
    use crate::policy::testutil::{one_set, touch};

    #[test]
    fn hits_do_not_save_oldest_line() {
        let g = one_set(2);
        let mut c = BasicCache::new(g, Fifo::new(&g));
        touch(&mut c, 0);
        touch(&mut c, 1);
        assert!(touch(&mut c, 0)); // hit, but FIFO ignores it
        touch(&mut c, 2); // evicts 0 (oldest fill) despite the recent hit
        assert!(touch(&mut c, 1));
        assert!(touch(&mut c, 2));
        assert!(!touch(&mut c, 0));
    }

    #[test]
    fn evicts_in_fill_order() {
        let g = one_set(3);
        let mut c = BasicCache::new(g, Fifo::new(&g));
        for n in 0..3 {
            touch(&mut c, n);
        }
        touch(&mut c, 3); // evicts 0
        touch(&mut c, 4); // evicts 1
        assert!(touch(&mut c, 2));
        assert!(touch(&mut c, 3));
        assert!(touch(&mut c, 4));
    }
}
