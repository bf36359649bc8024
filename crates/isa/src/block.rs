//! Fetch-block descriptors: the interface between prediction and fetch.
//!
//! In the decoupled front-end of the paper (after Reinman et al.), the
//! *prediction stage* produces one fetch request per cycle and pushes it into
//! the selected thread's fetch target queue (FTQ); the *fetch stage* later
//! drains FTQs to drive I-cache accesses. A [`FetchBlock`] is that request.

use crate::{Addr, BranchKind, ThreadId};

/// Information about the branch that terminates a fetch block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EndBranch {
    /// Address of the terminating branch.
    pub pc: Addr,
    /// Branch flavour.
    pub kind: BranchKind,
    /// Predicted direction (always `true` for unconditional branches).
    pub predicted_taken: bool,
    /// Predicted target if taken. [`Addr::NULL`] when the predictor had no
    /// target (BTB/FTB miss), in which case the block falls through.
    pub predicted_target: Addr,
}

/// A fetch request produced by the prediction stage.
///
/// Depending on the front-end, a block is:
///
/// * **gshare+BTB** — up to the first branch, the end of the cache line, or
///   the fetch width, whichever is closest (one prediction per cycle limits
///   the block to one basic block);
/// * **gskew+FTB** — an FTB *fetch block*, which may embed strongly-biased
///   not-taken conditional branches and span several basic blocks;
/// * **stream** — a full instruction stream (from the target of a taken
///   branch to the next taken branch), potentially much longer than the
///   fetch width and consumed over several cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchBlock {
    /// Thread the request belongs to.
    pub thread: ThreadId,
    /// Address of the first instruction in the block.
    pub start: Addr,
    /// Number of instructions in the block (≥ 1).
    pub len: u32,
    /// The branch terminating the block, if the block ends in one.
    pub end_branch: Option<EndBranch>,
    /// Predicted address of the *next* fetch block (taken target, or fall
    /// through past the end of this block).
    pub next_fetch: Addr,
}

impl FetchBlock {
    /// Address of the last instruction in the block.
    pub fn last_pc(&self) -> Addr {
        self.start.add_insts(self.len as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> FetchBlock {
        FetchBlock {
            thread: 0,
            start: Addr::new(0x1000),
            len: 6,
            end_branch: Some(EndBranch {
                pc: Addr::new(0x1014),
                kind: BranchKind::Cond,
                predicted_taken: true,
                predicted_target: Addr::new(0x2000),
            }),
            next_fetch: Addr::new(0x2000),
        }
    }

    #[test]
    fn geometry() {
        let b = block();
        assert_eq!(b.last_pc(), Addr::new(0x1014));
    }
}
