//! The trace-cache front-end (related-work comparator): a trace cache over
//! a gshare+BTB core fetch unit, with a commit-side fill unit.

use smt_bpred::{Btb, GlobalHistory, Gshare, Trace, TraceCache as TraceStore, TraceSegment};
use smt_isa::{Addr, BranchKind, DynInst, InstClass, ThreadId, MAX_THREADS};
use smt_workloads::Program;

use std::collections::VecDeque;

use super::{
    branch_block, classic_block, sequential_block, BlockMeta, BranchInfo, PredictedBlock, SpecState,
};

/// The fill unit's per-thread collection buffer: committed instructions
/// accumulate until a trace line closes (16 instructions or a third taken
/// branch), at which point the trace is installed and the multiple-branch
/// predictor trained.
#[derive(Clone, Debug, Default)]
struct FillBuffer {
    /// `(pc, class, taken, next_pc)` of buffered committed instructions.
    entries: Vec<(Addr, InstClass, bool, Addr)>,
    /// Committed end-conditional history at the start of the buffer.
    start_hist: u64,
    /// Taken branches buffered so far.
    taken_branches: u32,
}

/// Trace cache + gshare/BTB core fetch unit (related-work comparator).
///
/// On a trace hit the whole trace is emitted as one group of fetch blocks
/// consumable in a single cycle; on a miss the core fetch unit supplies a
/// classical basic block. The trace store and the multiple-branch predictor
/// are trained by the fill unit at commit.
#[derive(Clone, Debug)]
pub(crate) struct TraceCache {
    /// The trace storage and its path-associative tags.
    tc: TraceStore,
    /// Multiple-branch direction predictor for way selection
    /// (trained by the fill unit).
    multi: Gshare,
    /// Core fetch unit direction predictor (trained at resolve).
    gshare: Gshare,
    /// Core fetch unit target buffer.
    btb: Btb,
    /// Monotone id shared by the blocks of one emitted trace.
    next_group: u64,
    /// Fill-unit buffers, one per hardware thread (on the heap, so the
    /// engine stays close in size to the other [`FrontEnd`](super::FrontEnd)
    /// arms).
    fill: Vec<FillBuffer>,
}

// A history longer than the tables' index would alias distinct histories.
const _: () = assert!(TraceCache::HIST_BITS <= TraceCache::CORE_ENTRIES.trailing_zeros());

impl TraceCache {
    /// Global-history length of the core fetch unit's gshare and of the
    /// multiple-branch predictor (their 32K tables have 15 index bits).
    pub(crate) const HIST_BITS: u32 = 15;

    /// Counters in the core fetch unit's gshare and in the
    /// multiple-branch predictor: half of Table 3's gshare, so the
    /// comparator's total budget stays paper-like.
    const CORE_ENTRIES: usize = Gshare::HPCA2004_ENTRIES / 2;

    /// Builds the engine: a 512-line, 4-way trace cache over a halved
    /// gshare and Table 3's BTB.
    pub(crate) fn hpca2004() -> Self {
        let core = || Gshare::new(TraceCache::CORE_ENTRIES);
        TraceCache {
            tc: TraceStore::typical(),
            multi: core(),
            gshare: core(),
            btb: Btb::hpca2004(),
            next_group: 1,
            fill: vec![FillBuffer::default(); MAX_THREADS],
        }
    }

    /// Trace prediction: way-select by the multiple-branch direction
    /// vector; on a hit emit the trace's segments, on a miss fall back to
    /// the core fetch unit. Appends to `out`.
    #[expect(clippy::too_many_arguments, reason = "writes straight into the FTQ")]
    pub(crate) fn predict_trace(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
        max_blocks: usize,
        out: &mut VecDeque<PredictedBlock>,
    ) {
        // Multiple-branch prediction: up to 3 segment-end directions,
        // indexed by (start + i, incrementally updated history).
        let mut dirs = [false; 3];
        let mut h = spec.hist;
        for (i, d) in dirs.iter_mut().enumerate() {
            *d = self.multi.predict(pc.add_insts(i as u64), h);
            h.push(*d);
        }
        let hit = self.tc.lookup(pc, &dirs);
        match hit {
            Some(trace) => {
                let group = self.next_group;
                self.next_group += 1;
                let nseg = trace.segments.len().min(max_blocks);
                for (si, seg) in trace.segments.iter().take(nseg).enumerate() {
                    let meta = BlockMeta::capture(spec);
                    let next_start = if si + 1 < trace.segments.len() {
                        trace.segments[si + 1].start
                    } else {
                        trace.next_pc
                    };
                    let block = match seg.end_kind {
                        Some(kind) => {
                            let taken = seg.end_taken;
                            let end_pc = seg.start.add_insts(seg.len as u64 - 1);
                            // The trace embodies the path: targets come from
                            // the stored next segment, while the RAS is kept
                            // in sync for later core-fetch predictions.
                            match kind {
                                BranchKind::Cond => spec.hist.push(taken),
                                BranchKind::Call => spec.ras.push(end_pc.add_insts(1)),
                                BranchKind::Return if taken => {
                                    let _ = spec.ras.pop();
                                }
                                _ => {}
                            }
                            let target = if taken { next_start } else { Addr::NULL };
                            branch_block(thread, seg.start, seg.len, kind, taken, target)
                        }
                        None => sequential_block(thread, seg.start, seg.len),
                    };
                    out.push_back(PredictedBlock {
                        block,
                        meta,
                        trace_group: Some(group),
                    });
                }
            }
            None => {
                let meta = BlockMeta::capture(spec);
                let block = classic_block(
                    &mut self.gshare,
                    &mut self.btb,
                    thread,
                    pc,
                    spec,
                    program,
                    width,
                );
                out.push_back(PredictedBlock {
                    block,
                    meta,
                    trace_group: None,
                });
            }
        }
    }

    /// Trains the core fetch unit with a committed branch predicted under
    /// `hist` in the block `info` describes.
    pub(crate) fn train_resolve(&mut self, info: &BranchInfo, hist: GlobalHistory, di: &DynInst) {
        // The core fetch unit trains like gshare+BTB; the trace cache
        // itself and the multiple-branch predictor are trained by the fill
        // unit at commit.
        if info.is_end && di.is_cond_branch() {
            self.gshare.update(di.pc, hist, di.taken);
        }
        if di.taken {
            #[expect(clippy::expect_used, reason = "update only sees branches")]
            let kind = di.class.branch_kind().expect("branch");
            self.btb.record_taken(di.pc, di.next_pc, kind);
        }
    }

    /// Feeds one committed instruction to the fill unit, into the buffer
    /// of its thread. `commit_hist_end` is the thread's committed
    /// end-conditional history *before* this instruction.
    pub(crate) fn fill_commit(&mut self, di: &DynInst, commit_hist_end: u64) {
        let fill = &mut self.fill[di.thread];
        if fill.entries.is_empty() {
            fill.start_hist = commit_hist_end;
            fill.taken_branches = 0;
        }
        fill.entries.push((di.pc, di.class, di.taken, di.next_pc));
        if di.is_branch() && di.taken {
            fill.taken_branches += 1;
        }
        let close = fill.entries.len() >= Trace::MAX_INSTS as usize
            || fill.taken_branches as usize >= Trace::MAX_SEGMENTS;
        if !close {
            return;
        }

        // Build segments: split after every taken control transfer.
        let mut segments: Vec<TraceSegment> = Vec::with_capacity(Trace::MAX_SEGMENTS);
        let mut cond_dirs: Vec<bool> = Vec::new();
        let mut seg_start = fill.entries[0].0;
        let mut seg_len = 0u32;
        for (i, &(pc, class, taken, next_pc)) in fill.entries.iter().enumerate() {
            seg_len += 1;
            let last = i == fill.entries.len() - 1;
            let taken_branch = class.is_branch() && taken;
            if taken_branch || last {
                let end_kind = class.branch_kind();
                if end_kind == Some(BranchKind::Cond) {
                    cond_dirs.push(taken);
                }
                segments.push(TraceSegment {
                    start: seg_start,
                    len: seg_len,
                    end_kind,
                    end_taken: taken,
                });
                seg_start = next_pc;
                seg_len = 0;
            } else {
                debug_assert_eq!(next_pc, pc.add_insts(1), "trace segment contiguity");
            }
        }
        #[expect(clippy::expect_used, reason = "fill buffer checked non-empty")]
        let next_pc = fill.entries.last().expect("non-empty").3;
        let start = fill.entries[0].0;
        let start_hist = fill.start_hist;
        fill.entries.clear();
        fill.taken_branches = 0;

        // Train the multiple-branch predictor with the observed direction
        // vector, using the same (start + i, incremental history) indexing
        // the predictor is consulted with.
        let mut h = GlobalHistory::new(Self::HIST_BITS);
        for i in (0..Self::HIST_BITS).rev() {
            h.push((start_hist >> i) & 1 == 1);
        }
        for (i, &d) in cond_dirs.iter().enumerate().take(3) {
            self.multi.update(start.add_insts(i as u64), h, d);
            h.push(d);
        }
        self.tc.fill(Trace {
            segments,
            cond_dirs,
            next_pc,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::{BenchmarkProfile, ProgramBuilder};

    fn program() -> Program {
        ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build()
    }

    fn engine() -> TraceCache {
        TraceCache::hpca2004()
    }

    fn predict_blocks(
        e: &mut TraceCache,
        pc: Addr,
        spec: &mut SpecState,
        prog: &Program,
        width: u32,
        max_blocks: usize,
    ) -> VecDeque<PredictedBlock> {
        let mut out = VecDeque::new();
        e.predict_trace(0, pc, spec, prog, width, max_blocks, &mut out);
        out
    }

    #[test]
    fn misses_fall_back_to_core_fetch() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(TraceCache::HIST_BITS, prog.entry());
        let pbs = predict_blocks(&mut e, prog.entry(), &mut spec, &prog, 16, 4);
        assert_eq!(pbs.len(), 1, "cold trace cache must fall back");
        assert!(pbs[0].trace_group.is_none());
        // Fallback blocks obey the classical single-basic-block limit.
        assert!(pbs[0].block.len <= 16);
    }

    #[test]
    fn fill_then_hit_emits_grouped_segments() {
        let prog = program();
        let mut e = engine();
        // Commit a synthetic trace through the fill unit: 6 sequential
        // instructions, a taken cond, then 5 more and a taken jump.
        let base = prog.entry();
        let mk = |pc: Addr, class: InstClass, taken: bool, next: Addr| DynInst {
            thread: 0,
            static_id: 0,
            pc,
            class,
            dest: None,
            srcs: [None, None],
            mem: None,
            taken,
            next_pc: next,
            wrong_path: false,
        };
        for i in 0..5u64 {
            let pc = base.add_insts(i);
            e.fill_commit(&mk(pc, InstClass::IntAlu, false, pc.add_insts(1)), 0);
        }
        let br = base.add_insts(5);
        let tgt = base.add_insts(40);
        e.fill_commit(&mk(br, InstClass::Branch(BranchKind::Cond), true, tgt), 0);
        for i in 0..4u64 {
            let pc = tgt.add_insts(i);
            e.fill_commit(&mk(pc, InstClass::IntAlu, false, pc.add_insts(1)), 0);
        }
        let br2 = tgt.add_insts(4);
        let tgt2 = base.add_insts(80);
        e.fill_commit(&mk(br2, InstClass::Branch(BranchKind::Jump), true, tgt2), 0);
        // Keep feeding to force a close on the 3rd taken branch (15 insts
        // total, under the 16-instruction line limit).
        for i in 0..3u64 {
            let pc = tgt2.add_insts(i);
            e.fill_commit(&mk(pc, InstClass::IntAlu, false, pc.add_insts(1)), 0);
        }
        let br3 = tgt2.add_insts(3);
        e.fill_commit(&mk(br3, InstClass::Branch(BranchKind::Jump), true, base), 0);
        assert!(
            e.fill[0].entries.is_empty(),
            "third taken branch must close the trace"
        );

        // The filled trace is now fetchable in one multi-block prediction.
        let mut spec = SpecState::new(TraceCache::HIST_BITS, base);
        let pbs = predict_blocks(&mut e, base, &mut spec, &prog, 16, 4);
        assert!(pbs.len() >= 2, "trace hit must emit its segments");
        let group = pbs[0].trace_group.expect("trace blocks carry a group");
        assert!(pbs.iter().all(|p| p.trace_group == Some(group)));
        assert_eq!(pbs[0].block.start, base);
        assert_eq!(pbs[0].block.len, 6);
        assert_eq!(pbs[0].block.next_fetch, tgt);
        assert_eq!(pbs[1].block.start, tgt);
    }
}
