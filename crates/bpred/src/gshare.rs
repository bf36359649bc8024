//! The gshare conditional-branch direction predictor (McFarling, 1993).

use smt_isa::Addr;

use crate::counters::{CounterTable, TwoBit};
use crate::history::GlobalHistory;

/// gshare: a single table of 2-bit counters indexed by
/// `PC XOR global-history`.
///
/// The paper's baseline front-end uses a 64K-entry gshare with 16 bits of
/// history (Table 3), which [`Gshare::hpca2004`] reproduces.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: CounterTable,
}

impl Gshare {
    /// Table 3's pattern-history table size: 64K counters (16 index bits).
    pub const HPCA2004_ENTRIES: usize = 64 * 1024;

    /// Creates a gshare predictor with `entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        Gshare {
            table: CounterTable::new(entries),
        }
    }

    /// The paper's configuration: 64K entries (16-bit index), 16-bit history.
    pub fn hpca2004() -> Self {
        Gshare::new(Gshare::HPCA2004_ENTRIES)
    }

    fn index(&self, pc: Addr, history: GlobalHistory) -> u64 {
        (pc.raw() >> 2) ^ history.bits()
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: Addr, history: GlobalHistory) -> bool {
        self.counter(pc, history).taken()
    }

    /// The counter state a `(pc, history)` pair maps to.
    pub(crate) fn counter(&self, pc: Addr, history: GlobalHistory) -> TwoBit {
        self.table.get(self.index(pc, history))
    }

    /// Trains the predictor with a resolved branch.
    ///
    /// `history` must be the history value used at prediction time
    /// (checkpointed by the front-end), not the current speculative value.
    pub fn update(&mut self, pc: Addr, history: GlobalHistory, taken: bool) {
        self.table.update(self.index(pc, history), taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(bits: u64, len: u32) -> GlobalHistory {
        let mut h = GlobalHistory::new(len);
        for i in (0..len).rev() {
            h.push((bits >> i) & 1 == 1);
        }
        h
    }

    #[test]
    fn learns_a_biased_branch() {
        let mut g = Gshare::new(1024);
        let pc = Addr::new(0x4000);
        let h = GlobalHistory::new(10);
        for _ in 0..10 {
            g.update(pc, h, false);
        }
        assert!(!g.predict(pc, h));
    }

    #[test]
    fn learns_an_alternating_pattern_through_history() {
        // Outcome = last outcome inverted: gshare keys on history, so the two
        // history values map to different counters and both learn perfectly.
        let mut g = Gshare::new(1 << 14);
        let pc = Addr::new(0x1234_5678);
        let mut h = GlobalHistory::new(8);
        let mut correct = 0;
        let mut last = false;
        for i in 0..200 {
            let outcome = !last;
            let pred = g.predict(pc, h);
            if i >= 20 && pred == outcome {
                correct += 1;
            }
            g.update(pc, h, outcome);
            h.push(outcome);
            last = outcome;
        }
        assert!(correct >= 175, "only {correct}/180 correct after warmup");
    }

    #[test]
    fn different_histories_use_different_counters() {
        let g = Gshare::new(1024);
        let pc = Addr::new(0x4000);
        let c1 = g.counter(pc, hist(0b1010, 10));
        let c2 = g.counter(pc, hist(0b0101, 10));
        // Same default state, but training one must not affect the other.
        let mut g = g;
        g.update(pc, hist(0b1010, 10), false);
        g.update(pc, hist(0b1010, 10), false);
        assert!(!g.counter(pc, hist(0b1010, 10)).taken());
        assert_eq!(g.counter(pc, hist(0b0101, 10)), c2);
        let _ = c1;
    }

    #[test]
    fn hpca_configuration_sizes() {
        let g = Gshare::hpca2004();
        assert_eq!(g.table.len(), 65536);
    }
}
