//! Return address stack with low-cost misspeculation repair.

use smt_isa::{Addr, Diagnostic};

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
    pushes: u64,
    pops: u64,
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
    /// # Errors
    ///
    /// `E0013` if `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, Diagnostic> {
        if capacity == 0 {
            return Err(Diagnostic::error(
                "E0013",
                "ras_depth",
                "return-address stack capacity must be positive",
                "the paper uses a 64-entry RAS per thread",
            ));
        }
        Ok(ReturnStack {
            entries: vec![Addr::NULL; capacity],
            top: capacity - 1,
            depth: 0,
            pushes: 0,
            pops: 0,
        })
    }

    /// The paper's configuration: 64 entries.
    #[expect(clippy::expect_used, reason = "preset geometry is valid")]
    pub fn hpca2004() -> Self {
        ReturnStack::new(64).expect("preset geometry is valid")
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Current logical depth (saturates at capacity).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes a return address (call predicted/observed).
    pub fn push(&mut self, ret: Addr) {
        self.pushes += 1;
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
        self.pops += 1;
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

    /// `(pushes, pops)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.pushes, self.pops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut s = ReturnStack::new(8).unwrap();
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
        let mut s = ReturnStack::new(4).unwrap();
        assert_eq!(s.pop(), Addr::NULL);
        assert!(s.peek().is_none());
    }

    #[test]
    fn circular_overwrite_keeps_recent_entries() {
        let mut s = ReturnStack::new(4).unwrap();
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
        let mut s = ReturnStack::new(8).unwrap();
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
        let mut s = ReturnStack::new(8).unwrap();
        s.push(Addr::new(0x42));
        let ckpt = s.checkpoint();
        let _ = s.pop();
        let _ = s.pop(); // underflow on the wrong path
        s.restore(ckpt);
        assert_eq!(s.peek(), Some(Addr::new(0x42)));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn zero_capacity_rejected() {
        let d = ReturnStack::new(0).unwrap_err();
        assert_eq!(d.code, "E0013");
        assert!(d.is_error());
    }
}
