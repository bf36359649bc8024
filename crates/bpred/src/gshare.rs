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
    predictions: u64,
    correct: u64,
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
            predictions: 0,
            correct: 0,
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
    pub fn predict(&mut self, pc: Addr, history: GlobalHistory) -> bool {
        self.predictions += 1;
        self.counter(pc, history).taken()
    }

    /// The counter state a `(pc, history)` pair maps to (no statistics).
    pub fn counter(&self, pc: Addr, history: GlobalHistory) -> TwoBit {
        self.table.get(self.index(pc, history))
    }

    /// Trains the predictor with a resolved branch.
    ///
    /// `history` must be the history value used at prediction time
    /// (checkpointed by the front-end), not the current speculative value.
    pub fn update(&mut self, pc: Addr, history: GlobalHistory, taken: bool) {
        let idx = self.index(pc, history);
        if self.table.get(idx).taken() == taken {
            self.correct += 1;
        }
        self.table.update(idx, taken);
    }

    /// `(predictions, correct-at-update)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.correct)
    }

    /// Table size in 2-bit counters.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Hardware budget in bytes (2 bits per entry). Since the counter bank
    /// is bit-packed 32-per-u64, this is also the simulator's actual table
    /// footprint — the model budget and the host memory cost coincide.
    pub fn budget_bytes(&self) -> usize {
        self.table.len() / 4
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
        assert_eq!(g.entries(), 65536);
        assert_eq!(g.budget_bytes(), 16 * 1024);
    }

    #[test]
    fn stats_track_accuracy() {
        let mut g = Gshare::new(256);
        let pc = Addr::new(0x100);
        let h = GlobalHistory::new(8);
        for _ in 0..8 {
            let _ = g.predict(pc, h);
            g.update(pc, h, true);
        }
        let (preds, correct) = g.stats();
        assert_eq!(preds, 8);
        assert_eq!(correct, 8); // default weak-taken is already correct
    }
}
