//! The stream front-end: learned instruction streams, no per-branch
//! direction predictor.

use smt_bpred::{ObservedStream, StreamPath, StreamPredictor};
use smt_isa::{Addr, BranchKind, FetchBlock, ThreadId};

use super::{branch_block, sequential_block, SpecState};

/// The paper's stream fetch unit: a cascaded predictor of *instruction
/// streams* (taken-target to next taken branch). Stream-ending branches are
/// taken by definition, so no separate direction predictor exists and the
/// speculative history register never shifts.
#[derive(Clone, Debug)]
pub(crate) struct Stream {
    /// Cascaded stream predictor.
    predictor: StreamPredictor,
}

impl Stream {
    /// Builds the engine with Table 3's cascaded stream predictor, its
    /// streams capped at `max_stream` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `max_stream` is zero.
    pub(crate) fn build(max_stream: u32) -> Self {
        Stream {
            predictor: StreamPredictor::hpca2004_with_cap(max_stream),
        }
    }

    /// Predicts the next stream for `thread` starting at `pc` (a
    /// `width`-long sequential block on a miss), speculatively updating
    /// `spec`.
    pub(crate) fn predict_block(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        width: u32,
    ) -> FetchBlock {
        match self.predictor.predict(pc, &spec.path) {
            Some(p) => {
                let len = p.len.max(1);
                match p.end {
                    Some(end) => {
                        let end_pc = pc.add_insts(len as u64 - 1);
                        // Stream-ending branches are taken by definition.
                        let target = match end.kind {
                            BranchKind::Return => spec.ras.pop(),
                            BranchKind::Call => {
                                spec.ras.push(end_pc.add_insts(1));
                                end.target
                            }
                            _ => end.target,
                        };
                        let block = branch_block(thread, pc, len, end.kind, true, target);
                        // This block closes a stream: record it in the
                        // path and open the next stream.
                        spec.path.push(spec.stream_start);
                        spec.stream_start = block.next_fetch;
                        block
                    }
                    None => sequential_block(thread, pc, len),
                }
            }
            None => sequential_block(thread, pc, width),
        }
    }

    /// Trains the stream predictor with an instruction stream completed at
    /// commit (a taken branch closed the stream).
    pub(crate) fn train_commit(&mut self, start: Addr, path: &StreamPath, obs: ObservedStream) {
        self.predictor.train(start, path, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::{BenchmarkProfile, Program, ProgramBuilder};

    fn program() -> Program {
        ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build()
    }

    fn engine() -> Stream {
        Stream::build(StreamPredictor::HPCA2004_MAX_STREAM)
    }

    #[test]
    fn learns_streams_at_commit() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(16, prog.entry());
        let pc = prog.entry();
        // Cold: sequential width block.
        let b = e.predict_block(0, pc, &mut spec, 16);
        assert_eq!(b.len, 16);
        // Commit-side training: a 24-instruction stream ending in a taken
        // branch to 0x40_2000.
        e.train_commit(
            pc,
            &StreamPath::new(),
            ObservedStream {
                len: 24,
                kind: BranchKind::Cond,
                target: Addr::new(0x40_2000),
            },
        );
        let mut spec2 = SpecState::new(16, prog.entry());
        let b2 = e.predict_block(0, pc, &mut spec2, 16);
        assert_eq!(b2.len, 24, "stream longer than the fetch width");
        assert_eq!(b2.next_fetch, Addr::new(0x40_2000));
        assert!(b2.end_branch.unwrap().predicted_taken);
    }

    #[test]
    fn blocks_update_path_and_stream_start() {
        let prog = program();
        let mut e = engine();
        let mut spec = SpecState::new(16, prog.entry());
        let pc = prog.entry();
        e.train_commit(
            pc,
            &StreamPath::new(),
            ObservedStream {
                len: 10,
                kind: BranchKind::Jump,
                target: Addr::new(0x40_1000),
            },
        );
        let before = spec.path;
        let _ = e.predict_block(0, pc, &mut spec, 16);
        assert_ne!(spec.path, before, "taken stream end must push the path");
        assert_eq!(spec.stream_start, Addr::new(0x40_1000));
    }
}
