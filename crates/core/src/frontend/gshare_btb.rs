//! The baseline gshare+BTB front-end: one basic block per cycle.

use smt_bpred::{Btb, GlobalHistory, Gshare};
use smt_isa::{Addr, DynInst, ThreadId};
use smt_workloads::Program;

use super::{classic_block, BlockMeta, PredictedBlock, SpecState};

/// gshare + BTB (the baseline SMT front-end).
///
/// One direction prediction per cycle, so every fetch block ends at the
/// first branch, the cache-line boundary, or the fetch width.
#[derive(Clone, Debug)]
pub struct GshareBtb {
    /// Direction predictor.
    gshare: Gshare,
    /// Branch target buffer.
    btb: Btb,
}

// A history longer than the table's index would alias distinct histories.
const _: () = assert!(GshareBtb::HIST_BITS <= Gshare::HPCA2004_ENTRIES.trailing_zeros());

impl GshareBtb {
    /// Global-history length of the gshare direction predictor (Table 3).
    pub const HIST_BITS: u32 = 16;

    /// Builds the engine with Table 3's 64K-entry gshare and 2K-entry,
    /// 4-way BTB.
    pub(crate) fn hpca2004() -> Self {
        GshareBtb {
            gshare: Gshare::hpca2004(),
            btb: Btb::hpca2004(),
        }
    }

    /// Predicts the next basic block for `thread` starting at `pc`,
    /// speculatively updating `spec`.
    pub(crate) fn predict_block(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
    ) -> PredictedBlock {
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
        PredictedBlock {
            block,
            meta,
            trace_group: None,
        }
    }

    /// Trains gshare and the BTB with a committed branch predicted under
    /// `hist`.
    pub(crate) fn train_resolve(&mut self, hist: GlobalHistory, di: &DynInst) {
        if di.is_cond_branch() {
            // Every correct-path conditional ends a block under this engine,
            // so each one was genuinely predicted.
            self.gshare.update(di.pc, hist, di.taken);
        }
        if di.taken {
            #[expect(clippy::expect_used, reason = "update only sees branches")]
            let kind = di.class.branch_kind().expect("branch");
            self.btb.record_taken(di.pc, di.next_pc, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::LINE_BYTES;
    use super::*;
    use smt_workloads::{BenchmarkProfile, ProgramBuilder};

    fn program() -> Program {
        ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build()
    }

    fn engine() -> GshareBtb {
        GshareBtb::hpca2004()
    }

    #[test]
    fn blocks_end_at_first_branch_and_line() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(GshareBtb::HIST_BITS, prog.entry());
        let pb = e.predict_block(0, prog.entry(), &mut spec, &prog, 8);
        let b = &pb.block;
        assert!(b.len >= 1 && b.len <= 8);
        // The block must not cross a cache line.
        assert!(b.start.line(LINE_BYTES) == b.last_pc().line(LINE_BYTES));
        // If it has an end branch, no *earlier* instruction in the block is
        // a branch.
        if let Some(end) = b.end_branch {
            for i in 0..(b.len - 1) as u64 {
                let inst = prog.inst_at(b.start.add_insts(i)).unwrap();
                assert!(!inst.class.is_branch(), "embedded branch in BTB block");
            }
            assert_eq!(end.pc, b.last_pc());
        }
    }

    #[test]
    fn chains_blocks_through_program() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(GshareBtb::HIST_BITS, prog.entry());
        let mut pc = prog.entry();
        for _ in 0..200 {
            let pb = e.predict_block(0, pc, &mut spec, &prog, 8);
            pc = pb.block.next_fetch;
            // Stay in (or be clamped back into) the program.
            assert!(prog.contains(prog.clamp(pc)));
        }
    }
}
