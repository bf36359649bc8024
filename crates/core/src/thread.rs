//! Per-thread simulator state: front-end context, FTQ, and the in-flight
//! instruction window.

use std::collections::VecDeque;
use std::sync::Arc;

use smt_bpred::StreamPath;
use smt_isa::{Addr, Cycle, InstIdx, Presized, ThreadId};
use smt_workloads::{Program, Walker};

use crate::frontend::{BlockMeta, PredictedBlock, SpecState};
use crate::window::{PhysReg, Window};

/// All per-thread state.
#[derive(Clone, Debug)]
pub(crate) struct ThreadState {
    /// Oracle walker (architectural sequencing).
    pub walker: Walker,
    /// Speculative front-end state (history, RAS, stream path).
    pub spec: SpecState,
    /// Next block start the prediction stage will use.
    pub next_fetch_pc: Addr,
    /// Whether fetch has diverged from the oracle (wrong path).
    pub diverged: bool,
    /// Set while an I-cache miss blocks this thread's fetch.
    pub iblock_until: Option<Cycle>,
    /// Fetch target queue. Prediction pushes blocks in directly (no
    /// intermediate scratch copy); fetch consumes strictly from the head,
    /// so only the head block can be partially delivered and a single
    /// [`ftq_consumed`](ThreadState::ftq_consumed) counter tracks it.
    pub ftq: Presized<VecDeque<PredictedBlock>>,
    /// Instructions already delivered from the FTQ head block (blocks
    /// longer than the fetch width span several cycles). Reset to zero
    /// whenever the head is popped or the FTQ is cleared.
    pub ftq_consumed: InstIdx,
    /// In-flight instructions in fetch order (front = oldest),
    /// structure-of-arrays: hot control entries scanned by
    /// issue/commit/squash, payload and branch-record columns indexed by
    /// `seq & mask` (see [`Window`]).
    pub window: Window,
    /// Sequence number for the next fetched instruction.
    pub next_seq: u64,
    /// Rename map: architectural flat index → physical register.
    pub rename_map: Vec<PhysReg>,
    /// Sequence number of the oldest unresolved mispredicted correct-path
    /// branch (at most one can exist: fetch diverges at the first one).
    pub pending_redirect: Option<u64>,
    /// Commit-side stream tracking: path of committed streams.
    pub cpath: StreamPath,
    /// Start of the stream currently being committed.
    pub commit_stream_start: Addr,
    /// Committed instructions in the current stream so far.
    pub commit_stream_len: u32,
    /// Shadow architectural history of committed conditional outcomes
    /// (validation/debugging aid).
    pub commit_hist: u64,
    /// Committed end-conditional history (mirrors the speculative history
    /// discipline: only block-ending conditionals shift in).
    pub commit_hist_end: u64,
    /// Under STALL/FLUSH policies: fetch is gated until this cycle because
    /// a long-latency load is outstanding.
    pub mem_stall_until: Option<Cycle>,
    /// Completion times of outstanding long-latency data misses (the
    /// MISSCOUNT metric); expired entries are drained lazily.
    pub outstanding_misses: Presized<Vec<Cycle>>,
    /// Block checkpoints for in-flight instructions carrying a
    /// [`BranchInfo`], indexed by `seq & meta_mask`. The capacity exceeds
    /// the window bound, and window sequence numbers are contiguous, so a
    /// live instruction's slot cannot be reused before it retires or
    /// squashes. Slots of instructions without a `binfo` are stale garbage
    /// and never read. Keeping the checkpoints out of [`InFlight`] keeps
    /// the window entries small: pushes, pops, and the commit path never
    /// copy the ~100-byte checkpoint.
    meta_ring: Vec<BlockMeta>,
    /// Power-of-two mask for `meta_ring` indexing.
    meta_mask: u64,
    /// Holds the struct at [`THREAD_STATE_BYTES`]; see there.
    _heap_pad: [u64; 4],
}

/// The size `ThreadState` is held at. perfbench's `mem_fig7` set-up time
/// follows glibc's heap trim threshold: below 656 bytes every simulator
/// build extends and trims the heap (about 100 more page faults per build,
/// `setup_s` about 50% higher; the CHANGES.md `FOUND:` line on
/// `ThreadState`). Once the benchmark pins glibc's trim threshold, the pad
/// and this assert go.
const THREAD_STATE_BYTES: usize = 656;
const _: () = assert!(std::mem::size_of::<ThreadState>() == THREAD_STATE_BYTES);

impl ThreadState {
    /// Creates thread state for `program` (shared, not cloned — every
    /// thread and sweep cell running the same program references one
    /// allocation), with the rename map filled by the caller.
    pub(crate) fn new(id: ThreadId, program: impl Into<Arc<Program>>, hist_bits: u32) -> Self {
        let program = program.into();
        let entry = program.entry();
        ThreadState {
            walker: Walker::new(program, id),
            spec: SpecState::new(hist_bits, entry),
            next_fetch_pc: entry,
            diverged: false,
            iblock_until: None,
            ftq: Presized::default(),
            ftq_consumed: 0,
            window: Window::new(),
            next_seq: 0,
            rename_map: Vec::new(),
            pending_redirect: None,
            cpath: StreamPath::new(),
            commit_stream_start: entry,
            commit_stream_len: 0,
            commit_hist: 0,
            commit_hist_end: 0,
            mem_stall_until: None,
            outstanding_misses: Presized::default(),
            meta_ring: Vec::new(),
            meta_mask: 0,
            _heap_pad: [0; 4],
        }
    }

    /// Pre-sizes the per-thread queues to their configuration-derived
    /// high-water marks so the steady-state loop never grows them.
    ///
    /// * `ftq_depth` bounds the FTQ (the prediction stage stops at depth);
    /// * `window_cap` bounds both the in-flight window and the set of
    ///   outstanding long-latency misses (each miss is a windowed load).
    pub(crate) fn presize(&mut self, ftq_depth: usize, window_cap: usize) {
        self.ftq.reserve(ftq_depth);
        self.window.presize(window_cap);
        self.outstanding_misses.reserve(window_cap);
        // Strictly larger than the window bound so `seq & meta_mask` cannot
        // collide between two live instructions (window seqs are
        // contiguous). The placeholder fill is deterministic and never read.
        let cap = (window_cap + 1).next_power_of_two();
        self.meta_ring = vec![BlockMeta::capture(&self.spec); cap];
        self.meta_mask = cap as u64 - 1;
    }

    /// The block checkpoint recorded for in-flight instruction `seq`.
    ///
    /// Valid only for sequence numbers of window instructions carrying a
    /// [`BranchInfo`](crate::frontend::BranchInfo) (fetch records a
    /// checkpoint exactly when it attaches one), or an instruction popped
    /// from the window this same cycle.
    pub(crate) fn meta(&self, seq: u64) -> &BlockMeta {
        &self.meta_ring[self.meta_slot(seq)]
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked to the ring size")]
    fn meta_slot(&self, seq: u64) -> usize {
        (seq & self.meta_mask) as usize
    }

    /// Records the checkpoint for `seq` straight from the FTQ head's
    /// predicted block — the fetch stage's common case — so the ~100-byte
    /// value moves FTQ → ring once instead of via a stack copy of the
    /// whole entry.
    pub(crate) fn set_meta_from_ftq_head(&mut self, seq: u64) {
        #[expect(clippy::expect_used, reason = "fetch checked the FTQ head exists")]
        let meta = self.ftq.front().expect("fetch consumes the head").meta;
        let slot = self.meta_slot(seq);
        self.meta_ring[slot] = meta;
    }

    /// Whether fetch can serve this thread at `now`.
    pub(crate) fn fetch_eligible(&self, now: Cycle) -> bool {
        !self.ftq.is_empty() && self.iblock_until.is_none_or(|r| r <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::Addr;
    use smt_workloads::{BenchmarkProfile, ProgramBuilder};

    fn thread() -> ThreadState {
        let prog = ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build();
        ThreadState::new(0, prog, 16)
    }

    #[test]
    fn fresh_thread_starts_at_entry() {
        let t = thread();
        assert_eq!(t.next_fetch_pc, t.walker.program().entry());
        assert!(!t.diverged);
        assert!(!t.fetch_eligible(0), "empty FTQ is not eligible");
    }

    #[test]
    fn window_lookup_by_seq() {
        let mut t = thread();
        t.presize(8, 16);
        for s in 0..5u64 {
            let di = t.walker.next_inst();
            t.window.set_di(s, di);
            t.window
                .push(crate::window::InFlightCtl::at_fetch(s, 0, &di, None), None);
        }
        assert_eq!(t.window.ctl(3).unwrap().seq, 3);
        assert!(t.window.ctl(9).is_none());
        // The payload column returns what the walker decoded.
        assert_eq!(t.window.di(2).pc, t.window.di(1).next_pc);
        // After popping the front, lookups still work.
        t.window.pop_front();
        assert_eq!(t.window.ctl(3).unwrap().seq, 3);
        assert!(t.window.ctl(0).is_none());
        t.window.ctl_mut(4).unwrap().set_issued();
        assert!(t.window.ctl(4).unwrap().issued());
    }

    #[test]
    fn iblock_gates_eligibility() {
        let mut t = thread();
        let block = crate::frontend::PredictedBlock {
            block: smt_isa::FetchBlock {
                thread: 0,
                start: t.walker.program().entry(),
                len: 4,
                end_branch: None,
                next_fetch: t.walker.program().entry().add_insts(4),
            },
            meta: crate::frontend::BlockMeta::capture(&t.spec),
            trace_group: None,
        };
        t.ftq.push_back(block);
        t.ftq_consumed = 1;
        assert_eq!(t.ftq.front().unwrap().block.len - t.ftq_consumed, 3);
        assert!(t.fetch_eligible(0));
        t.iblock_until = Some(10);
        assert!(!t.fetch_eligible(5));
        assert!(t.fetch_eligible(10));
    }
}
