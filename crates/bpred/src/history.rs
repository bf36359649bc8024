//! Per-thread speculative branch-history registers.
//!
//! An SMT front-end keeps one global-history register per thread (paper §1:
//! "a return address stack and a branch history register are needed for each
//! thread"). History is updated *speculatively* at prediction time and must
//! be restored on a misprediction; [`GlobalHistory`] is a plain value type,
//! so a checkpoint is just a copy.

/// A global branch-history register of up to 64 bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct GlobalHistory {
    bits: u64,
    len: u32,
}

impl GlobalHistory {
    /// Creates an empty history of `len` bits (1 ..= 64).
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 64.
    pub fn new(len: u32) -> Self {
        assert!((1..=64).contains(&len), "history length must be 1..=64");
        GlobalHistory { bits: 0, len }
    }

    /// History length in bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no outcomes have been shifted in yet *and* the register is
    /// all-zero (indistinguishable from a run of not-taken outcomes).
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The history bits (low `len` bits valid).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Shifts in one branch outcome (speculatively, at prediction time).
    pub fn push(&mut self, taken: bool) {
        let mask = if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        };
        self.bits = ((self.bits << 1) | taken as u64) & mask;
    }

    /// Restores the register from a checkpoint taken before a mispredicted
    /// branch, then applies that branch's actual outcome.
    pub fn restore_and_fix(&mut self, checkpoint: GlobalHistory, actual_taken: bool) {
        *self = checkpoint;
        self.push(actual_taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_and_masks() {
        let mut h = GlobalHistory::new(4);
        h.push(true);
        h.push(false);
        h.push(true);
        assert_eq!(h.bits(), 0b101);
        h.push(true);
        h.push(true);
        // Oldest bit (the first `true`) has been shifted out of 4 bits.
        assert_eq!(h.bits(), 0b0111);
    }

    #[test]
    fn full_width_history_works() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..100 {
            h.push(true);
        }
        assert_eq!(h.bits(), u64::MAX);
    }

    #[test]
    fn checkpoint_restore_fixes_the_mispredicted_outcome() {
        let mut h = GlobalHistory::new(8);
        h.push(true);
        h.push(true);
        let ckpt = h; // checkpoint before predicting the branch
        h.push(false); // speculative (wrong) outcome
        h.push(true); // younger speculative branch
        h.restore_and_fix(ckpt, true); // branch actually taken
        assert_eq!(h.bits(), 0b111);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_length_rejected() {
        let _ = GlobalHistory::new(0);
    }

    #[test]
    fn is_empty_reflects_bits() {
        let mut h = GlobalHistory::new(8);
        assert!(h.is_empty());
        h.push(true);
        assert!(!h.is_empty());
    }
}
