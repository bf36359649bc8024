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
//! Engines own all predictor training, driven by the back end at branch
//! resolve ([`FrontEnd::train_resolve`]) and at commit
//! ([`Stream::train_commit`], [`TraceCache::fill_commit`]).

mod gshare_btb;
mod gskew_ftb;
mod stream;
mod trace_cache;

pub use gshare_btb::GshareBtb;
pub use gskew_ftb::GskewFtb;
pub use stream::Stream;
pub use trace_cache::TraceCache;

use smt_bpred::{Btb, GlobalHistory, Gshare, RasCheckpoint, ReturnStack, StreamPath};
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
pub struct SpecState {
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
    pub fn new(hist_bits: u32, entry: Addr) -> Self {
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
    pub fn restore(&mut self, meta: &BlockMeta) {
        self.hist = meta.hist;
        self.ras.restore(meta.ras);
        self.path = meta.path;
        self.stream_start = meta.stream_start;
    }
}

/// Checkpoints captured when a block is predicted, used to repair the
/// speculative state when a branch in that block squashes.
#[derive(Clone, Copy, Debug)]
pub struct BlockMeta {
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
    pub fn capture(spec: &SpecState) -> Self {
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
pub struct BranchInfo {
    /// Start address of the fetch block that contained the branch.
    pub block_start: Addr,
    /// Whether the branch terminated its fetch block (i.e. was actually
    /// predicted; embedded branches were invisible to the predictor).
    pub is_end: bool,
    /// Speculative direction applied at fetch.
    pub spec_taken: bool,
    /// Speculative next PC applied at fetch.
    pub spec_next: Addr,
    /// Whether fetch already knows this branch diverged from the oracle.
    pub mispredicted: bool,
    /// Whether the divergence is detectable at decode (a statically-known
    /// misfetch: a direct unconditional branch with the wrong speculative
    /// next PC, or a predicted branch that is not a branch at all), so the
    /// redirect fires from the decode stage instead of execute.
    pub decode_redirect: bool,
}

/// A predicted fetch block plus its recovery metadata. `Copy` so the FTQ and
/// fetch stage move blocks by value, allocation-free.
#[derive(Clone, Copy, Debug)]
pub struct PredictedBlock {
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
///   the returned [`BlockMeta`] checkpoints are what
///   [`repair`](FrontEnd::repair) later restores.
/// * [`train_resolve`](FrontEnd::train_resolve) — called by the back end
///   once per committed correct-path branch, with the prediction-time
///   checkpoints and the actual outcome. Mutates predictor tables only.
/// * [`Stream::train_commit`] — called at commit when a taken branch
///   closes an architectural instruction stream, on the stream arm only.
/// * [`TraceCache::fill_commit`] — called once per committed instruction,
///   on the trace-cache arm only.
/// * [`repair`](FrontEnd::repair) — called on a squash. Restores `spec`
///   from the `meta` checkpoint, then applies the *actual* outcome of the
///   squashing branch (`di`). Never touches predictor tables (training
///   happens at commit, on the correct path only).
#[derive(Clone, Debug)]
pub enum FrontEnd {
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
    pub fn hpca2004(kind: FetchEngineKind, cfg: &SimConfig) -> Self {
        match kind {
            FetchEngineKind::GshareBtb => FrontEnd::GshareBtb(GshareBtb::hpca2004()),
            FetchEngineKind::GskewFtb => FrontEnd::GskewFtb(GskewFtb::build(cfg.max_ftb_block)),
            FetchEngineKind::Stream => FrontEnd::Stream(Stream::build(cfg.max_stream)),
            FetchEngineKind::TraceCache => FrontEnd::TraceCache(TraceCache::hpca2004()),
        }
    }

    /// Which config-facing engine this is.
    pub fn kind(&self) -> FetchEngineKind {
        match self {
            FrontEnd::GshareBtb(_) => FetchEngineKind::GshareBtb,
            FrontEnd::GskewFtb(_) => FetchEngineKind::GskewFtb,
            FrontEnd::Stream(_) => FetchEngineKind::Stream,
            FrontEnd::TraceCache(_) => FetchEngineKind::TraceCache,
        }
    }

    /// History length this engine's direction predictor uses. The stream
    /// front-end has none but keeps a uniform 16-bit register.
    pub fn history_bits(&self) -> u32 {
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
    /// Every engine emits one block except the trace cache, which on a hit
    /// emits up to `max_blocks` segments of one trace.
    #[expect(clippy::too_many_arguments, reason = "writes straight into the FTQ")]
    pub fn predict_blocks_into(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
        max_blocks: usize,
        out: &mut VecDeque<PredictedBlock>,
    ) {
        match self {
            FrontEnd::GshareBtb(e) => {
                out.push_back(e.predict_block(thread, pc, spec, program, width))
            }
            FrontEnd::GskewFtb(e) => out.push_back(e.predict_block(thread, pc, spec, width)),
            FrontEnd::Stream(e) => out.push_back(e.predict_block(thread, pc, spec, width)),
            FrontEnd::TraceCache(e) => {
                e.predict_trace(thread, pc, spec, program, width, max_blocks.max(1), out);
            }
        }
    }

    /// Trains the engine with a resolved correct-path branch.
    ///
    /// Called by the back end when the branch commits. `info` and `hist`
    /// carry the prediction-time state (`hist` is the history the direction
    /// prediction was made under); `di` the actual outcome. The stream
    /// front-end trains on completed streams instead
    /// ([`Stream::train_commit`]).
    pub fn train_resolve(&mut self, info: &BranchInfo, hist: GlobalHistory, di: &DynInst) {
        match self {
            FrontEnd::GshareBtb(e) => e.train_resolve(hist, di),
            FrontEnd::GskewFtb(e) => e.train_resolve(info, hist, di),
            FrontEnd::Stream(_) => {}
            FrontEnd::TraceCache(e) => e.train_resolve(info, hist, di),
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
    pub fn repair(&self, spec: &mut SpecState, info: &BranchInfo, meta: &BlockMeta, di: &DynInst) {
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
    use smt_workloads::{BenchmarkProfile, ProgramBuilder};

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
            assert_eq!(e.kind(), kind);
            assert_eq!(e.history_bits(), bits, "{kind}");
        }
    }

    #[test]
    fn fetch_banks_lines_like_the_l1i() {
        // The fetch stage's bank-conflict logic sees the L1I's own line size
        // and bank interleaving.
        let l1i = smt_mem::Cache::new(CacheConfig::HPCA2004_L1);
        let c = l1i.config();
        assert_eq!((LINE_BYTES, ICACHE_BANKS), (c.line_bytes, c.banks));
        for line in 0..2 * ICACHE_BANKS {
            let a = Addr::new(0x40_0000 + line * LINE_BYTES + 4);
            assert_eq!(a.bank(LINE_BYTES, ICACHE_BANKS), l1i.bank(a));
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
            spec_next: Addr::new(0x40_0104),
            mispredicted: true,
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
                spec_next: Addr::new(0x40_0200),
                mispredicted: true,
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
}
