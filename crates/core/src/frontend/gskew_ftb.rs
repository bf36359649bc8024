//! The gskew+FTB front-end: learned fetch blocks with embedded
//! never-taken branches.

use smt_bpred::{Ftb, GlobalHistory, Gskew, ObservedEnd};
use smt_isa::{Addr, BranchKind, DynInst, FetchBlock, ThreadId};

use super::{branch_block, sequential_block, BranchInfo, SpecState};

/// gskew + FTB: the fetch target buffer stores learned *fetch blocks* whose
/// interiors may embed never-taken branches, so blocks routinely run past
/// the first static branch.
#[derive(Clone, Debug)]
pub struct GskewFtb {
    /// Direction predictor.
    gskew: Gskew,
    /// Fetch target buffer.
    ftb: Ftb,
}

// A history longer than a bank's index would alias distinct histories.
const _: () = assert!(GskewFtb::HIST_BITS <= Gskew::HPCA2004_ENTRIES_PER_BANK.trailing_zeros());

impl GskewFtb {
    /// Global-history length of the gskew direction predictor (Table 3).
    pub const HIST_BITS: u32 = 15;

    /// Builds the engine with Table 3's 3×32K-entry gskew and 2K-entry,
    /// 4-way FTB, its blocks capped at `max_ftb_block` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `max_ftb_block` is zero.
    pub(crate) fn build(max_ftb_block: u32) -> Self {
        GskewFtb {
            gskew: Gskew::hpca2004(),
            ftb: Ftb::hpca2004_with_cap(max_ftb_block),
        }
    }

    /// Predicts the next fetch block for `thread` starting at `pc` from the
    /// FTB (a `width`-long sequential block on a miss), speculatively
    /// updating `spec`.
    pub(crate) fn predict_block(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        width: u32,
    ) -> FetchBlock {
        match self.ftb.lookup(pc) {
            Some(p) => {
                let len = p.len.max(1);
                match p.end {
                    Some(end) => {
                        let end_pc = pc.add_insts(len as u64 - 1);
                        let (taken, target) = match end.kind {
                            BranchKind::Cond => {
                                // One batched probe per predicted block: the
                                // three decorrelated bank reads (and their
                                // counter-word accesses) issue together
                                // instead of per scalar lookup.
                                let probe = self.gskew.probe(end_pc, spec.hist);
                                // FTB entries always carry a target, but
                                // stay defensive about null targets the
                                // same way the BTB path is.
                                let t = probe.taken() && !end.target.is_null();
                                spec.hist.push(t);
                                (t, end.target)
                            }
                            BranchKind::Jump | BranchKind::Indirect => (true, end.target),
                            BranchKind::Call => {
                                spec.ras.push(end_pc.add_insts(1));
                                (true, end.target)
                            }
                            BranchKind::Return => (true, spec.ras.pop()),
                        };
                        branch_block(thread, pc, len, end.kind, taken, target)
                    }
                    None => sequential_block(thread, pc, len),
                }
            }
            None => sequential_block(thread, pc, width),
        }
    }

    /// Trains gskew and the FTB with a committed branch predicted under
    /// `hist` in the block `info` describes.
    pub(crate) fn train_resolve(&mut self, info: &BranchInfo, hist: GlobalHistory, di: &DynInst) {
        if info.is_end && di.is_cond_branch() {
            // Same batched shape at train time: one probe gathers all three
            // bank counters, then the partial update writes back through it.
            let probe = self.gskew.probe(di.pc, hist);
            self.gskew.update_with(&probe, di.taken);
        }
        if di.taken {
            #[expect(clippy::expect_used, reason = "update only sees branches")]
            let kind = di.class.branch_kind().expect("branch");
            self.ftb.record_taken(
                info.block_start,
                ObservedEnd {
                    branch_pc: di.pc,
                    kind,
                    target: di.next_pc,
                },
            );
        } else if info.is_end {
            self.ftb.record_not_taken(info.block_start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::InstClass;
    use smt_workloads::{BenchmarkProfile, Program, ProgramBuilder};

    fn program() -> Program {
        ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build()
    }

    fn engine() -> GskewFtb {
        GskewFtb::build(Ftb::HPCA2004_MAX_BLOCK)
    }

    #[test]
    fn ftb_miss_gives_width_sequential_block_then_learns() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(GskewFtb::HIST_BITS, prog.entry());
        let pc = prog.entry();
        let hist = spec.hist;
        let b = e.predict_block(0, pc, &mut spec, 8);
        assert_eq!(b.len, 8, "FTB cold miss fetches a width block");
        assert!(b.end_branch.is_none());

        // Train: a taken branch 3 instructions in.
        let di = DynInst {
            thread: 0,
            static_id: 0,
            pc: pc.add_insts(2),
            class: InstClass::Branch(BranchKind::Cond),
            dest: None,
            srcs: [None, None],
            mem: None,
            taken: true,
            next_pc: pc.add_insts(40),
            wrong_path: false,
        };
        let info = BranchInfo {
            block_start: pc,
            is_end: false,
            spec_taken: false,
            decode_redirect: false,
        };
        e.train_resolve(&info, hist, &di);
        let b2 = e.predict_block(0, pc, &mut spec, 8);
        assert_eq!(b2.len, 3, "FTB learned the block extent");
        assert_eq!(b2.end_branch.unwrap().pc, di.pc);
    }
}
