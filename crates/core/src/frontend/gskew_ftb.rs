//! The gskew+FTB front-end: learned fetch blocks with embedded
//! never-taken branches.

use smt_bpred::{Ftb, GlobalHistory, Gskew, ObservedEnd};
use smt_isa::{Addr, BranchKind, Diagnostic, DynInst, EndBranch, FetchBlock, ThreadId};
use smt_workloads::Program;

use crate::config::{FetchEngineKind, SimConfig};

use super::{
    repair_spec, scoped, sequential_block, BlockMeta, BranchInfo, FrontEnd, PredictedBlock,
    SpecState,
};

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

impl GskewFtb {
    /// Builds the engine from the configuration's predictor geometry.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found in the requested tables.
    pub fn build(cfg: &SimConfig) -> Result<Self, Diagnostic> {
        let p = &cfg.predictor;
        Ok(GskewFtb {
            gskew: Gskew::new(p.gskew_entries_per_bank).map_err(scoped)?,
            ftb: Ftb::new(p.ftb_entries, p.ftb_ways, cfg.max_ftb_block).map_err(scoped)?,
        })
    }
}

impl FrontEnd for GskewFtb {
    fn kind(&self) -> FetchEngineKind {
        FetchEngineKind::GskewFtb
    }

    fn history_bits(&self) -> u32 {
        15
    }

    fn predict_block(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
    ) -> PredictedBlock {
        let _ = program;
        let meta = BlockMeta::capture(spec);
        let block = match self.ftb.lookup(pc) {
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
                                let t = self.gskew.predict_with(&probe);
                                // FTB entries always carry a target, but
                                // stay defensive about null targets the
                                // same way the BTB path is.
                                let t = t && !end.target.is_null();
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
                        let fall = pc.add_insts(len as u64);
                        let next = if taken && !target.is_null() {
                            target
                        } else {
                            fall
                        };
                        FetchBlock {
                            thread,
                            start: pc,
                            len,
                            embedded_branches: 0,
                            end_branch: Some(EndBranch {
                                pc: end_pc,
                                kind: end.kind,
                                predicted_taken: taken,
                                predicted_target: target,
                            }),
                            next_fetch: next,
                        }
                    }
                    None => sequential_block(thread, pc, len),
                }
            }
            None => sequential_block(thread, pc, width),
        };
        PredictedBlock {
            block,
            meta,
            trace_group: None,
        }
    }

    fn train_resolve(&mut self, info: &BranchInfo, hist: GlobalHistory, di: &DynInst) {
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

    fn repair(&mut self, spec: &mut SpecState, info: &BranchInfo, meta: &BlockMeta, di: &DynInst) {
        repair_spec(spec, info, meta, di, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchPolicy;
    use smt_isa::InstClass;
    use smt_workloads::{BenchmarkProfile, ProgramBuilder};

    fn program() -> Program {
        ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build()
    }

    fn engine() -> GskewFtb {
        GskewFtb::build(&SimConfig::hpca2004(FetchPolicy::icount(1, 8))).expect("Table 3 builds")
    }

    #[test]
    fn ftb_miss_gives_width_sequential_block_then_learns() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(e.history_bits(), prog.entry());
        let pc = prog.entry();
        let pb = e.predict_block(0, pc, &mut spec, &prog, 8);
        assert_eq!(pb.block.len, 8, "FTB cold miss fetches a width block");
        assert!(pb.block.end_branch.is_none());

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
            spec_next: di.pc.add_insts(1),
            mispredicted: true,
            decode_redirect: false,
        };
        e.train_resolve(&info, pb.meta.hist, &di);
        let pb2 = e.predict_block(0, pc, &mut spec, &prog, 8);
        assert_eq!(pb2.block.len, 3, "FTB learned the block extent");
        assert_eq!(pb2.block.end_branch.unwrap().pc, di.pc);
    }
}
