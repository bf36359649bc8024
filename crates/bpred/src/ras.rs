//! Return address stack with low-cost misspeculation repair.

use smt_isa::Addr;

/// A circular return-address stack, one per hardware thread (Table 3 marks
/// the 64-entry RAS as replicated per thread).
///
/// The RAS is updated *speculatively* at prediction time (calls push, return
/// predictions pop). Recovery uses the classical low-cost scheme: each
/// checkpoint saves the top-of-stack index and the entry it points at; on a
/// squash the pair is written back. This repairs the overwhelmingly common
/// single-push/single-pop wrong paths; deeper wrong-path call chains can
/// still corrupt older entries, exactly as in the equivalent hardware.
#[derive(Clone, Debug)]
pub struct ReturnStack {
    entries: Vec<Addr>,
    /// Index of the current top (valid when `depth > 0`).
    top: usize,
    /// Logical depth, saturating at capacity (circular overwrite).
    depth: usize,
}

/// A repair checkpoint: captures the stack's top state at prediction time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RasCheckpoint {
    top: usize,
    depth: usize,
    top_value: Addr,
}

impl ReturnStack {
    /// Creates a stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "return-address stack capacity must be positive"
        );
        ReturnStack {
            entries: vec![Addr::NULL; capacity],
            top: capacity - 1,
            depth: 0,
        }
    }

    /// Table 3's per-thread depth (64 entries).
    pub const HPCA2004_DEPTH: usize = 64;

    /// The paper's configuration: 64 entries.
    pub fn hpca2004() -> Self {
        ReturnStack::new(ReturnStack::HPCA2004_DEPTH)
    }

    /// Current logical depth (saturates at capacity).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes a return address (call predicted/observed).
    pub fn push(&mut self, ret: Addr) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = ret;
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return target.
    ///
    /// An empty stack returns [`Addr::NULL`] (the front-end then falls
    /// through, which resolves as a misprediction — like hardware reading a
    /// garbage entry).
    pub fn pop(&mut self) -> Addr {
        if self.depth == 0 {
            return Addr::NULL;
        }
        let v = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        v
    }

    /// Reads the top without popping.
    pub fn peek(&self) -> Option<Addr> {
        if self.depth == 0 {
            None
        } else {
            Some(self.entries[self.top])
        }
    }

    /// Takes a repair checkpoint of the current top state.
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint {
            top: self.top,
            depth: self.depth,
            top_value: self.entries[self.top],
        }
    }

    /// Restores a checkpoint taken before a squashed speculation region.
    pub fn restore(&mut self, ckpt: RasCheckpoint) {
        self.top = ckpt.top;
        self.depth = ckpt.depth;
        self.entries[self.top] = ckpt.top_value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::Srng;

    #[test]
    fn lifo_order() {
        let mut s = ReturnStack::new(8);
        s.push(Addr::new(0x10));
        s.push(Addr::new(0x20));
        s.push(Addr::new(0x30));
        assert_eq!(s.pop(), Addr::new(0x30));
        assert_eq!(s.pop(), Addr::new(0x20));
        assert_eq!(s.pop(), Addr::new(0x10));
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn empty_pop_returns_null() {
        let mut s = ReturnStack::new(4);
        assert_eq!(s.pop(), Addr::NULL);
        assert!(s.peek().is_none());
    }

    #[test]
    fn circular_overwrite_keeps_recent_entries() {
        let mut s = ReturnStack::new(4);
        for i in 1..=6u64 {
            s.push(Addr::new(i * 0x10));
        }
        // Entries 5 and 6 are the two most recent; 1 and 2 were overwritten.
        assert_eq!(s.pop(), Addr::new(0x60));
        assert_eq!(s.pop(), Addr::new(0x50));
        assert_eq!(s.pop(), Addr::new(0x40));
        assert_eq!(s.pop(), Addr::new(0x30));
        // Depth exhausted even though old slots contain stale data.
        assert_eq!(s.pop(), Addr::NULL);
    }

    #[test]
    fn checkpoint_repairs_push_pop_speculation() {
        let mut s = ReturnStack::new(8);
        s.push(Addr::new(0x100));
        s.push(Addr::new(0x200));
        let ckpt = s.checkpoint();

        // Wrong path: pops the top then pushes a bogus frame.
        assert_eq!(s.pop(), Addr::new(0x200));
        s.push(Addr::new(0xbad));

        s.restore(ckpt);
        assert_eq!(s.pop(), Addr::new(0x200));
        assert_eq!(s.pop(), Addr::new(0x100));
    }

    #[test]
    fn checkpoint_repairs_wrong_path_pop_of_top() {
        let mut s = ReturnStack::new(8);
        s.push(Addr::new(0x42));
        let ckpt = s.checkpoint();
        let _ = s.pop();
        let _ = s.pop(); // underflow on the wrong path
        s.restore(ckpt);
        assert_eq!(s.peek(), Some(Addr::new(0x42)));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReturnStack::new(0);
    }

    /// The RAS checkpoint/restore round-trips a push-pop speculation window.
    #[test]
    fn ras_checkpoint_roundtrip() {
        for case in 0..64 {
            let mut rng = Srng::new(0x33 ^ case);
            let depth = 1 + rng.range_usize(0, 39);
            let mut ras = ReturnStack::new(64);
            for _ in 0..depth {
                ras.push(Addr::new((4 + rng.range(0, 1 << 30)) & !3));
            }
            let top_before = ras.peek();
            let depth_before = ras.depth();
            let ckpt = ras.checkpoint();
            // A short wrong-path burst of pushes and pops.
            let burst = rng.range(0, 8);
            for i in 0..burst {
                if rng.chance(0.5) {
                    ras.push(Addr::new(0xdead_0000 + i * 4));
                } else {
                    let _ = ras.pop();
                }
            }
            ras.restore(ckpt);
            assert_eq!(ras.depth(), depth_before, "case {case}");
            assert_eq!(ras.peek(), top_before, "case {case}");
        }
    }
}
