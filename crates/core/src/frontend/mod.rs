//! The front-end fetch engines (prediction-stage block builders).
//!
//! A front-end turns the per-thread speculative state (next fetch PC,
//! history/path registers, RAS) into [`FetchBlock`]s for the FTQ. The
//! [`FrontEnd`] enum is the whole contract between a fetch engine and the
//! pipeline; its four arms are:
//!
//! * [`GshareBtb`] — one basic block at a time: the block ends at the first
//!   branch (one direction prediction per cycle), the end of the cache
//!   line, or the fetch width;
//! * [`GskewFtb`] — learned *fetch blocks* that embed never-taken branches;
//! * [`Stream`] — learned *instruction streams* (taken-target to next taken
//!   branch), with no separate direction predictor;
//! * [`TraceCache`] — the related-work comparator: a trace cache over a
//!   gshare+BTB core fetch unit.
//!
//! The pipeline reaches the engines through three hooks only:
//! [`FrontEnd::predict_blocks_into`] at prediction, [`FrontEnd::repair`] on
//! a squash and [`FrontEnd::retire`] at commit, which trains every engine
//! (resolve-time predictor updates, the stream predictor and the trace
//! cache's fill unit) from the committed path.

mod gshare_btb;
mod gskew_ftb;
mod stream;
mod trace_cache;

pub use gshare_btb::GshareBtb;
pub use gskew_ftb::GskewFtb;
pub(crate) use stream::Stream;
pub(crate) use trace_cache::TraceCache;

use smt_bpred::{
    Btb, GlobalHistory, Gshare, ObservedStream, RasCheckpoint, ReturnStack, StreamPath,
};
use smt_isa::{Addr, BranchKind, DynInst, EndBranch, FetchBlock, ThreadId};
use smt_mem::CacheConfig;
use smt_workloads::Program;

use std::collections::VecDeque;

use crate::config::{FetchEngineKind, SimConfig};

/// I-cache line size in bytes (Table 3) — bounds classical fetch blocks.
pub const LINE_BYTES: u64 = CacheConfig::HPCA2004_L1.line_bytes;

/// I-cache banks (Table 3) — the 2.X fetch unit's bank-conflict logic
/// interleaves lines across them.
pub(crate) const ICACHE_BANKS: u64 = CacheConfig::HPCA2004_L1.banks;

/// Per-thread speculative front-end state, updated at prediction time and
/// repaired on squashes.
#[derive(Clone, Debug)]
pub(crate) struct SpecState {
    /// Global branch history (gshare: 16 bits, gskew: 15 bits).
    pub hist: GlobalHistory,
    /// Return address stack (64 entries, per thread).
    pub ras: ReturnStack,
    /// Stream-path register (stream front-end only, but kept uniformly).
    pub path: StreamPath,
    /// Start address of the stream currently being fetched.
    pub stream_start: Addr,
}

impl SpecState {
    /// Fresh state for a thread entering at `entry`.
    pub(crate) fn new(hist_bits: u32, entry: Addr) -> Self {
        SpecState {
            hist: GlobalHistory::new(hist_bits),
            ras: ReturnStack::hpca2004(),
            path: StreamPath::new(),
            stream_start: entry,
        }
    }

    /// Restores every register a block checkpoint holds — history, RAS,
    /// stream path and stream start — to its value when `meta` was
    /// captured.
    pub(crate) fn restore(&mut self, meta: &BlockMeta) {
        self.hist = meta.hist;
        self.ras.restore(meta.ras);
        self.path = meta.path;
        self.stream_start = meta.stream_start;
    }
}

/// Per-thread committed-path registers: the architectural twins of the
/// speculative stream and history registers, advanced by
/// [`FrontEnd::retire`] once per committed instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CommitPath {
    /// Start of the stream currently being committed.
    pub stream_start: Addr,
    /// Committed instructions in the current stream so far.
    pub stream_len: u32,
    /// Path of committed streams.
    pub path: StreamPath,
    /// Committed block-end history (mirrors the speculative history
    /// discipline: only block-ending conditionals shift in).
    pub hist_end: u64,
}

impl CommitPath {
    /// Fresh registers for a thread entering at `entry`.
    pub(crate) fn new(entry: Addr) -> Self {
        CommitPath {
            stream_start: entry,
            stream_len: 0,
            path: StreamPath::new(),
            hist_end: 0,
        }
    }
}

/// Checkpoints captured when a block is predicted, used to repair the
/// speculative state when a branch in that block squashes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockMeta {
    /// History before the block's end-branch prediction was shifted in.
    pub hist: GlobalHistory,
    /// RAS repair checkpoint before the block's call/return effect.
    pub ras: RasCheckpoint,
    /// Stream path before this block's stream bookkeeping.
    pub path: StreamPath,
    /// Stream start register before this block.
    pub stream_start: Addr,
}

impl BlockMeta {
    /// Captures the checkpoints for a block about to be predicted from
    /// `spec`.
    pub(crate) fn capture(spec: &SpecState) -> Self {
        BlockMeta {
            hist: spec.hist,
            ras: spec.ras.checkpoint(),
            path: spec.path,
            stream_start: spec.stream_start,
        }
    }
}

/// Per-branch information carried through the pipeline for training and
/// recovery. `Copy` (a handful of words) so in-flight instructions can carry
/// it inline without boxing or per-branch heap traffic.
///
/// The bulky [`BlockMeta`] checkpoint is deliberately *not* part of this
/// struct: it lives in the owning thread's seq-indexed checkpoint ring
/// ([`crate::thread::ThreadState::meta`]), so the per-instruction window
/// entries stay small and window pushes/pops never copy the checkpoint.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BranchInfo {
    /// Start address of the fetch block that contained the branch.
    pub block_start: Addr,
    /// Whether the branch terminated its fetch block (i.e. was actually
    /// predicted; embedded branches were invisible to the predictor).
    pub is_end: bool,
    /// Speculative direction applied at fetch.
    pub spec_taken: bool,
    /// Whether the divergence is detectable at decode (a statically-known
    /// misfetch: a direct unconditional branch with the wrong speculative
    /// next PC, or a predicted branch that is not a branch at all), so the
    /// redirect fires from the decode stage instead of execute.
    pub decode_redirect: bool,
}

/// A predicted fetch block plus its recovery metadata. `Copy` so the FTQ and
/// fetch stage move blocks by value, allocation-free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PredictedBlock {
    /// The block, ready for the FTQ.
    pub block: FetchBlock,
    /// Recovery checkpoints.
    pub meta: BlockMeta,
    /// Blocks sharing a trace-cache line carry the same group id: the fetch
    /// stage may consume them in one cycle without I-cache accesses (the
    /// trace cache stores the instructions itself).
    pub trace_group: Option<u64>,
}

/// A classical gshare+BTB fetch block: one prediction per cycle, so the
/// block ends at the first branch, the cache-line boundary, or the width.
/// Used by the gshare+BTB engine and as the trace cache's core fetch unit.
pub(crate) fn classic_block(
    gshare: &mut Gshare,
    btb: &mut Btb,
    thread: ThreadId,
    pc: Addr,
    spec: &mut SpecState,
    program: &Program,
    width: u32,
) -> FetchBlock {
    let max = (width as u64).min(pc.insts_to_line_end(LINE_BYTES)).max(1);
    match program.first_branch_at_or_after(pc, max) {
        Some((dist, inst)) => {
            let end_pc = inst.addr;
            #[expect(clippy::expect_used, reason = "the program scan returns only branches")]
            let kind = inst.class.branch_kind().expect("scan returns branches");
            let (taken, target) = match kind {
                BranchKind::Cond => {
                    let t = gshare.predict(end_pc, spec.hist);
                    let tgt = if t {
                        btb.lookup(end_pc).map(|e| e.target).unwrap_or(Addr::NULL)
                    } else {
                        Addr::NULL
                    };
                    // A taken prediction without a BTB target cannot be
                    // followed: the fetch unit falls through, so the
                    // *effective* speculative direction — the one entering
                    // the history register and compared at resolve — is
                    // not-taken.
                    let t = t && !tgt.is_null();
                    spec.hist.push(t);
                    (t, tgt)
                }
                BranchKind::Jump | BranchKind::Indirect => (
                    true,
                    btb.lookup(end_pc).map(|e| e.target).unwrap_or(Addr::NULL),
                ),
                BranchKind::Call => {
                    let tgt = btb.lookup(end_pc).map(|e| e.target).unwrap_or(Addr::NULL);
                    spec.ras.push(end_pc.add_insts(1));
                    (true, tgt)
                }
                BranchKind::Return => (true, spec.ras.pop()),
            };
            #[expect(clippy::cast_possible_truncation, reason = "dist < the BTB scan cap")]
            let len = (dist + 1) as u32;
            branch_block(thread, pc, len, kind, taken, target)
        }
        #[expect(clippy::cast_possible_truncation, reason = "max ≤ fetch budget ≤ 16")]
        None => sequential_block(thread, pc, max as u32),
    }
}

/// Trains a [`classic_block`] fetch unit with a committed branch predicted
/// under `hist`: gshare learns the direction of a block-ending
/// conditional, the BTB the target of a taken branch.
pub(crate) fn train_classic(
    gshare: &mut Gshare,
    btb: &mut Btb,
    info: &BranchInfo,
    hist: GlobalHistory,
    di: &DynInst,
) {
    if info.is_end && di.is_cond_branch() {
        gshare.update(di.pc, hist, di.taken);
    }
    if di.taken {
        #[expect(clippy::expect_used, reason = "training only sees branches")]
        let kind = di.class.branch_kind().expect("branch");
        btb.record_taken(di.pc, di.next_pc, kind);
    }
}

/// A plain sequential block: `len` instructions, falls through.
pub(crate) fn sequential_block(thread: ThreadId, pc: Addr, len: u32) -> FetchBlock {
    let len = len.max(1);
    FetchBlock {
        thread,
        start: pc,
        len,
        end_branch: None,
        next_fetch: pc.add_insts(len as u64),
    }
}

/// A block of `len ≥ 1` instructions whose last one is a `kind` branch
/// predicted `taken` towards `target`. Fetch continues at the target if the
/// branch is predicted taken and the target is known (non-null), and falls
/// through past the block otherwise.
pub(crate) fn branch_block(
    thread: ThreadId,
    pc: Addr,
    len: u32,
    kind: BranchKind,
    taken: bool,
    target: Addr,
) -> FetchBlock {
    FetchBlock {
        thread,
        start: pc,
        len,
        end_branch: Some(EndBranch {
            pc: pc.add_insts(u64::from(len) - 1),
            kind,
            predicted_taken: taken,
            predicted_target: target,
        }),
        next_fetch: if taken && !target.is_null() {
            target
        } else {
            pc.add_insts(u64::from(len))
        },
    }
}

/// The fetch engine: one arm per shipped engine, each held inline.
///
/// Every method is one `match` over the arms, so dispatch is a jump over
/// inline data — no `Box<dyn>`, no heap indirection — and the simulator
/// stays `Clone` + `Send` structurally.
///
/// Determinism obligations: every method is a pure function of the
/// engine's own tables plus its arguments — no wall-clock reads, no ambient
/// randomness, no global state — so seeded runs stay bit-reproducible
/// (the simulation crates' clippy lints ban clocks, env reads and threads).
///
/// What each hook may observe and mutate:
///
/// * [`predict_blocks_into`](FrontEnd::predict_blocks_into) — called by the
///   prediction stage. May mutate the engine's tables (e.g. allocation
///   hints) and *must* speculatively update `spec` (history shift, RAS
///   push/pop, stream path) exactly as the emitted blocks imply, because
///   the [`BlockMeta`] checkpoints it captures are what
///   [`repair`](FrontEnd::repair) later restores.
/// * [`retire`](FrontEnd::retire) — called by the commit stage once per
///   committed (correct-path) instruction, with the prediction-time
///   history of its block and the actual outcome. Mutates predictor
///   tables and the thread's committed-path registers only.
/// * [`repair`](FrontEnd::repair) — called on a squash. Restores `spec`
///   from the `meta` checkpoint, then applies the *actual* outcome of the
///   squashing branch (`di`). Never touches predictor tables (training
///   happens at commit, on the correct path only).
#[derive(Clone, Debug)]
pub(crate) enum FrontEnd {
    /// gshare + BTB (the baseline SMT front-end).
    GshareBtb(GshareBtb),
    /// gskew + FTB.
    GskewFtb(GskewFtb),
    /// Stream front-end.
    Stream(Stream),
    /// Trace cache + gshare/BTB core fetch unit (related-work comparator).
    TraceCache(TraceCache),
}

impl FrontEnd {
    /// Builds the `kind` engine with Table 3 tables and the configuration's
    /// block caps.
    ///
    /// # Panics
    ///
    /// Panics if the cap the engine uses (`max_ftb_block` or `max_stream`)
    /// is zero, which [`SimConfig::validate`] reports as `E0012`.
    pub(crate) fn hpca2004(kind: FetchEngineKind, cfg: &SimConfig) -> Self {
        match kind {
            FetchEngineKind::GshareBtb => FrontEnd::GshareBtb(GshareBtb::hpca2004()),
            FetchEngineKind::GskewFtb => FrontEnd::GskewFtb(GskewFtb::build(cfg.max_ftb_block)),
            FetchEngineKind::Stream => FrontEnd::Stream(Stream::build(cfg.max_stream)),
            FetchEngineKind::TraceCache => FrontEnd::TraceCache(TraceCache::hpca2004()),
        }
    }

    /// History length this engine's direction predictor uses. The stream
    /// front-end has none but keeps a uniform 16-bit register.
    pub(crate) fn history_bits(&self) -> u32 {
        match self {
            FrontEnd::GshareBtb(_) | FrontEnd::Stream(_) => GshareBtb::HIST_BITS,
            FrontEnd::GskewFtb(_) => GskewFtb::HIST_BITS,
            FrontEnd::TraceCache(_) => TraceCache::HIST_BITS,
        }
    }

    /// Predicts the next fetch block(s) for `thread` starting at `pc`,
    /// appending to `out` — the thread's FTQ itself, pre-sized by the
    /// simulator, so each block is written once and the steady-state
    /// prediction stage performs no heap allocation.
    ///
    /// Every engine emits one block, checkpointed here before the engine
    /// updates `spec`, except the trace cache on a hit, which emits up to
    /// `max_blocks` segments of one trace with a checkpoint each.
    #[expect(clippy::too_many_arguments, reason = "writes straight into the FTQ")]
    pub(crate) fn predict_blocks_into(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
        max_blocks: usize,
        out: &mut VecDeque<PredictedBlock>,
    ) {
        if let FrontEnd::TraceCache(e) = self {
            if e.predict_trace(thread, pc, spec, max_blocks.max(1), out) {
                return;
            }
        }
        let meta = BlockMeta::capture(spec);
        let block = match self {
            FrontEnd::GshareBtb(e) => e.predict_block(thread, pc, spec, program, width),
            FrontEnd::GskewFtb(e) => e.predict_block(thread, pc, spec, width),
            FrontEnd::Stream(e) => e.predict_block(thread, pc, spec, width),
            FrontEnd::TraceCache(e) => e.predict_block(thread, pc, spec, program, width),
        };
        out.push_back(PredictedBlock {
            block,
            meta,
            trace_group: None,
        });
    }

    /// Retires one committed instruction `di` of the thread whose
    /// committed-path registers are `cp`: feeds the trace cache's fill
    /// unit, advances the block-end history and the stream registers, and
    /// trains the predictors.
    ///
    /// `branch` is `di`'s branch record with the history its block was
    /// predicted under, present whenever fetch attached one (every branch,
    /// and a mispredicted non-branch). A committed branch trains the
    /// engine's direction and target predictors; a taken one closes the
    /// committed stream, which trains the stream predictor.
    pub(crate) fn retire(
        &mut self,
        di: &DynInst,
        branch: Option<(BranchInfo, GlobalHistory)>,
        cp: &mut CommitPath,
    ) {
        if let FrontEnd::TraceCache(e) = self {
            e.fill_commit(di, cp.hist_end);
        }
        if di.is_cond_branch() && branch.is_some_and(|(info, _)| info.is_end) {
            cp.hist_end = (cp.hist_end << 1) | di.taken as u64;
        }
        cp.stream_len += 1;
        if !di.is_branch() {
            return;
        }
        if let Some((info, hist)) = branch {
            match self {
                FrontEnd::GshareBtb(e) => e.train_resolve(&info, hist, di),
                FrontEnd::GskewFtb(e) => e.train_resolve(&info, hist, di),
                FrontEnd::Stream(_) => {}
                FrontEnd::TraceCache(e) => e.train_resolve(&info, hist, di),
            }
        }
        if di.taken {
            if let FrontEnd::Stream(e) = self {
                #[expect(clippy::expect_used, reason = "di is a branch")]
                let kind = di.class.branch_kind().expect("branch");
                e.train_commit(
                    cp.stream_start,
                    &cp.path,
                    ObservedStream {
                        len: cp.stream_len,
                        kind,
                        target: di.next_pc,
                    },
                );
            }
            cp.path.push(cp.stream_start);
            cp.stream_start = di.next_pc;
            cp.stream_len = 0;
        }
    }

    /// Repairs the speculative state after the mispredicted branch described
    /// by `info`/`di` squashes everything younger: restores every
    /// checkpointed register from `meta` (captured when the branch's fetch
    /// block was predicted), then applies the branch's actual outcome.
    ///
    /// The history shift applies only to engines with a per-branch direction
    /// predictor: the stream front-end's speculative history never shifts.
    ///
    /// The RAS call/return effect and the stream-path push are both gated on
    /// `di.taken`: a not-taken call or return transfers no control, so it
    /// neither pushes/pops a return address nor closes the current stream.
    /// Gating them *together* keeps `SpecState.path` and the RAS consistent
    /// after a mispredicted call/return.
    pub(crate) fn repair(
        &self,
        spec: &mut SpecState,
        info: &BranchInfo,
        meta: &BlockMeta,
        di: &DynInst,
    ) {
        spec.restore(meta);
        // Shift in the actual direction if this branch was a predicted
        // (block-ending) conditional.
        if !matches!(self, FrontEnd::Stream(_)) && di.is_cond_branch() && info.is_end {
            spec.hist.push(di.taken);
        }
        // A taken branch applies its call/return effect and closes the stream.
        if di.taken {
            match di.class.branch_kind() {
                Some(BranchKind::Call) => spec.ras.push(di.pc.add_insts(1)),
                Some(BranchKind::Return) => {
                    let _ = spec.ras.pop();
                }
                _ => {}
            }
            spec.path.push(meta.stream_start);
            spec.stream_start = di.next_pc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchPolicy;
    use smt_isa::InstClass;
    use smt_workloads::{BenchmarkProfile, ProgramBuilder, Srng};

    fn program() -> Program {
        ProgramBuilder::new(BenchmarkProfile::gzip())
            .base(Addr::new(0x40_0000))
            .seed(1)
            .build()
    }

    fn cfg() -> SimConfig {
        SimConfig::hpca2004(FetchPolicy::icount(1, 8))
    }

    #[test]
    fn every_kind_round_trips_and_builds_itself() {
        let cfg = cfg();
        let bits = [16, 15, 16, 15];
        for (kind, bits) in FetchEngineKind::all_with_trace_cache()
            .into_iter()
            .zip(bits)
        {
            assert_eq!(kind.to_string().parse::<FetchEngineKind>().ok(), Some(kind));
            let e = FrontEnd::hpca2004(kind, &cfg);
            let built = matches!(
                (kind, &e),
                (FetchEngineKind::GshareBtb, FrontEnd::GshareBtb(_))
                    | (FetchEngineKind::GskewFtb, FrontEnd::GskewFtb(_))
                    | (FetchEngineKind::Stream, FrontEnd::Stream(_))
                    | (FetchEngineKind::TraceCache, FrontEnd::TraceCache(_))
            );
            assert!(built, "{kind}");
            assert_eq!(e.history_bits(), bits, "{kind}");
        }
    }

    #[test]
    fn repair_restores_history_ras_and_path() {
        let prog = program();
        let e = FrontEnd::hpca2004(FetchEngineKind::GshareBtb, &cfg());
        let mut spec = SpecState::new(e.history_bits(), prog.entry());
        spec.ras.push(Addr::new(0x40_0044));
        spec.hist.push(true);
        let meta = BlockMeta::capture(&spec);
        // Wrong-path speculation after the checkpoint.
        spec.hist.push(false);
        spec.hist.push(false);
        let _ = spec.ras.pop();
        let di = DynInst {
            thread: 0,
            static_id: 0,
            pc: Addr::new(0x40_0100),
            class: InstClass::Branch(BranchKind::Cond),
            dest: None,
            srcs: [None, None],
            mem: None,
            taken: true,
            next_pc: Addr::new(0x40_0200),
            wrong_path: false,
        };
        let info = BranchInfo {
            block_start: Addr::new(0x40_0100),
            is_end: true,
            spec_taken: false,
            decode_redirect: false,
        };
        e.repair(&mut spec, &info, &meta, &di);
        // History = checkpoint + actual outcome (taken).
        let mut expect = meta.hist;
        expect.push(true);
        assert_eq!(spec.hist, expect);
        // RAS top is restored.
        assert_eq!(spec.ras.peek(), Some(Addr::new(0x40_0044)));
        // Taken branch closed the stream.
        assert_eq!(spec.stream_start, Addr::new(0x40_0200));
    }

    #[test]
    fn repair_of_a_not_taken_call_leaves_ras_and_path_untouched() {
        // The audited asymmetry: a squash whose resolved instruction is a
        // *not-taken* call (or return) transfers no control, so repair must
        // restore the checkpoint exactly — no RAS push, no path push. (The
        // unfixed code pushed the RAS unconditionally while gating the path
        // push on `taken`, leaving the two inconsistent.)
        let prog = program();
        for kind in FetchEngineKind::all_with_trace_cache() {
            let e = FrontEnd::hpca2004(kind, &cfg());
            let mut spec = SpecState::new(e.history_bits(), prog.entry());
            spec.ras.push(Addr::new(0x40_0044));
            let meta = BlockMeta::capture(&spec);
            let depth_at_ckpt = spec.ras.depth();
            let path_at_ckpt = spec.path;
            let start_at_ckpt = spec.stream_start;
            // Wrong-path speculation after the checkpoint.
            spec.ras.push(Addr::new(0x40_9999));
            let di = DynInst {
                thread: 0,
                static_id: 0,
                pc: Addr::new(0x40_0100),
                class: InstClass::Branch(BranchKind::Call),
                dest: None,
                srcs: [None, None],
                mem: None,
                taken: false,
                next_pc: Addr::new(0x40_0101),
                wrong_path: false,
            };
            let info = BranchInfo {
                block_start: Addr::new(0x40_0100),
                is_end: true,
                spec_taken: true,
                decode_redirect: false,
            };
            e.repair(&mut spec, &info, &meta, &di);
            assert_eq!(spec.ras.depth(), depth_at_ckpt, "{kind}: RAS depth");
            assert_eq!(
                spec.ras.peek(),
                Some(Addr::new(0x40_0044)),
                "{kind}: RAS top"
            );
            assert_eq!(spec.path, path_at_ckpt, "{kind}: stream path");
            assert_eq!(spec.stream_start, start_at_ckpt, "{kind}: stream start");
        }
    }

    /// A two-thread workload whose block-ending branches are 40% calls —
    /// several times the Table 1 rates — so squashes constantly land near
    /// speculative RAS activity (the programs of `tests/recovery.rs`).
    fn call_heavy_programs() -> Vec<Program> {
        (0..2u64)
            .map(|t| {
                let mut profile = BenchmarkProfile::vortex();
                profile.call_frac = 0.40;
                ProgramBuilder::new(profile)
                    .base(Addr::new(0x40_0000))
                    .seed(0xCA11 + t)
                    .build()
            })
            .collect()
    }

    /// One 8-wide prediction from `pc` (a single block, even on a trace
    /// hit).
    fn predict(e: &mut FrontEnd, pc: Addr, spec: &mut SpecState, prog: &Program) -> PredictedBlock {
        let mut out = VecDeque::new();
        e.predict_blocks_into(0, pc, spec, prog, 8, 1, &mut out);
        out.pop_back().expect("one block per prediction")
    }

    /// Where prediction goes after `b`: its predicted next fetch, or the
    /// fall-through when the predictor had none.
    fn follow(b: &FetchBlock) -> Addr {
        if b.next_fetch.is_null() {
            b.start.add_insts(u64::from(b.len))
        } else {
            b.next_fetch
        }
    }

    /// Mid-burst squash recovery, per engine. Each case enriches the
    /// speculative state by letting the engine run a burst of real
    /// predictions down its own predicted path, snapshots the state
    /// entering the squashing branch's block, keeps predicting down the
    /// (now wrong) path, then calls `repair` with a synthetic resolved
    /// outcome. The repaired state must equal a reference reconstructed
    /// from the snapshot plus the `FrontEnd::repair` contract alone: the
    /// checkpoint restored, then the actual outcome applied (history shift
    /// for predicted conditionals, RAS push/pop and stream-close only for
    /// taken control transfers).
    #[test]
    fn mid_burst_repair_matches_reconstructed_reference() {
        let programs = call_heavy_programs();
        let prog = &programs[0];
        let cfg = SimConfig::hpca2004(FetchPolicy::icount(2, 8));
        for (k, kind) in FetchEngineKind::all_with_trace_cache()
            .into_iter()
            .enumerate()
        {
            for case in 0..48u64 {
                let mut rng = Srng::new(0x5EC0 ^ (case << 4) ^ k as u64);
                let mut e = FrontEnd::hpca2004(kind, &cfg);
                let mut spec = SpecState::new(e.history_bits(), prog.entry());
                let mut pc = prog.entry();

                // Enrich: a burst of real predictions down the engine's own
                // predicted path (calls/returns exercise the RAS).
                for _ in 0..4 + rng.range(0, 48) {
                    let pb = predict(&mut e, pc, &mut spec, prog);
                    pc = follow(&pb.block);
                }

                // Snapshot the state entering the squashing branch's block;
                // the engine's own checkpoints must agree with it.
                let hist_ref = spec.hist;
                let path_ref = spec.path;
                let start_ref = spec.stream_start;
                let ras_depth_ref = spec.ras.depth();
                let ras_top_ref = spec.ras.peek();
                let pb = predict(&mut e, pc, &mut spec, prog);
                let meta = pb.meta;
                assert_eq!(meta.hist, hist_ref, "{kind} case {case}: hist checkpoint");
                assert_eq!(meta.path, path_ref, "{kind} case {case}: path checkpoint");
                assert_eq!(
                    meta.stream_start, start_ref,
                    "{kind} case {case}: stream-start checkpoint"
                );

                // Keep speculating past the checkpoint — all wrong path.
                let mut wpc = pb.block.next_fetch;
                for _ in 0..1 + rng.range(0, 6) {
                    let p = predict(&mut e, wpc, &mut spec, prog);
                    wpc = follow(&p.block);
                }

                // Synthetic resolved outcome for the block-ending branch.
                let branch_pc = pb.block.last_pc();
                let kind_pick = rng.range(0, 4);
                let bkind = match kind_pick {
                    0 => BranchKind::Cond,
                    1 => BranchKind::Call,
                    // A return needs something to pop; fall back to a jump
                    // when the burst left the RAS empty.
                    2 if ras_depth_ref > 0 => BranchKind::Return,
                    2 => BranchKind::Jump,
                    _ => BranchKind::Jump,
                };
                let taken = bkind != BranchKind::Cond || rng.chance(0.5);
                let target = Addr::new(0x40_0000 + 4 * rng.range(0, 4096));
                let di = DynInst {
                    thread: 0,
                    static_id: 0,
                    pc: branch_pc,
                    class: InstClass::Branch(bkind),
                    dest: None,
                    srcs: [None, None],
                    mem: None,
                    taken,
                    next_pc: if taken {
                        target
                    } else {
                        branch_pc.add_insts(1)
                    },
                    wrong_path: false,
                };
                let info = BranchInfo {
                    block_start: pc,
                    is_end: true,
                    spec_taken: !taken,
                    decode_redirect: false,
                };
                e.repair(&mut spec, &info, &meta, &di);

                // History: checkpoint + the actual direction, iff the engine
                // keeps per-branch history (the stream front-end does not).
                let mut hist_want = hist_ref;
                if kind != FetchEngineKind::Stream && bkind == BranchKind::Cond {
                    hist_want.push(taken);
                }
                assert_eq!(spec.hist, hist_want, "{kind} case {case}: history");

                // RAS: checkpoint + the actual call/return effect, applied
                // only when the branch actually transferred control.
                match (taken, bkind) {
                    (true, BranchKind::Call) => {
                        assert_eq!(spec.ras.depth(), ras_depth_ref + 1, "{kind} case {case}");
                        assert_eq!(
                            spec.ras.peek(),
                            Some(branch_pc.add_insts(1)),
                            "{kind} case {case}: pushed return address"
                        );
                    }
                    (true, BranchKind::Return) => {
                        assert_eq!(
                            spec.ras.depth(),
                            ras_depth_ref - 1,
                            "{kind} case {case}: popped"
                        );
                    }
                    _ => {
                        assert_eq!(spec.ras.depth(), ras_depth_ref, "{kind} case {case}");
                        assert_eq!(spec.ras.peek(), ras_top_ref, "{kind} case {case}: RAS top");
                    }
                }

                // Stream registers: a taken branch closes the stream at the
                // checkpointed start and opens one at the actual target.
                if taken {
                    let mut path_want = path_ref;
                    path_want.push(start_ref);
                    assert_eq!(spec.path, path_want, "{kind} case {case}: stream path");
                    assert_eq!(spec.stream_start, di.next_pc, "{kind} case {case}");
                } else {
                    assert_eq!(spec.path, path_ref, "{kind} case {case}: stream path");
                    assert_eq!(spec.stream_start, start_ref, "{kind} case {case}");
                }
            }
        }
    }
}
