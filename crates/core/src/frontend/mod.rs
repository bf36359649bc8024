//! The pluggable front-end fetch engines (prediction-stage block builders).
//!
//! A front-end turns the per-thread speculative state (next fetch PC,
//! history/path registers, RAS) into [`FetchBlock`]s for the FTQ. The
//! [`FrontEnd`] trait is the full contract between a fetch engine and the
//! pipeline; the four shipped engines are:
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
//! ([`FrontEnd::train_commit`], [`FrontEnd::trace_fill_commit`]).
//!
//! Dispatch in the cycle loop goes through [`AnyFrontEnd`], an enum-thin
//! wrapper over the concrete types: no `Box<dyn FrontEnd>`, no virtual
//! calls, no allocation — the zero-alloc gate and the throughput baseline
//! hold unchanged. New engines register in [`FRONT_ENDS`], which also pins
//! the canonical `kind ↔ name` mapping the CLI-facing
//! [`FetchEngineKind`] parser uses.

mod gshare_btb;
mod gskew_ftb;
mod stream;
mod trace_cache;

pub use gshare_btb::GshareBtb;
pub use gskew_ftb::GskewFtb;
pub use stream::Stream;
pub use trace_cache::{TraceCache, TraceFillBuffer};

use smt_bpred::{
    Btb, GlobalHistory, Gshare, ObservedStream, RasCheckpoint, ReturnStack, StreamPath,
};
use smt_isa::{Addr, BranchKind, Cycle, Diagnostic, DynInst, EndBranch, FetchBlock, ThreadId};
use smt_workloads::Program;

use std::collections::VecDeque;

use crate::config::{FetchEngineKind, SimConfig};

/// I-cache line size in bytes (Table 3) — bounds classical fetch blocks.
pub const LINE_BYTES: u64 = 64;

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

/// The contract between a fetch engine and the pipeline.
///
/// Determinism obligations: every hook must be a pure function of the
/// engine's own tables plus its arguments — no wall-clock reads, no ambient
/// randomness, no global state — so seeded runs stay bit-reproducible
/// (the simulation crates' clippy lints ban clocks, env reads and threads).
///
/// What each hook may observe and mutate:
///
/// * [`predict_block`](FrontEnd::predict_block) /
///   [`predict_blocks_into`](FrontEnd::predict_blocks_into) — called by the
///   prediction stage. May mutate the engine's tables (e.g. allocation
///   hints) and *must* speculatively update `spec` (history shift, RAS
///   push/pop, stream path) exactly as the emitted block implies, because
///   the returned [`BlockMeta`] checkpoints are what
///   [`repair`](FrontEnd::repair) later restores.
/// * [`train_resolve`](FrontEnd::train_resolve) — called by the back end
///   once per committed correct-path branch, with the prediction-time
///   checkpoints and the actual outcome. Mutates predictor tables only.
/// * [`train_commit`](FrontEnd::train_commit) — called at commit when a
///   taken branch closes an architectural instruction stream; only the
///   stream front-end listens.
/// * [`trace_fill_commit`](FrontEnd::trace_fill_commit) — called once per
///   committed instruction; only the trace cache's fill unit listens.
/// * [`repair`](FrontEnd::repair) — called on a squash. Must restore `spec`
///   from the `meta` checkpoint, then apply the *actual* outcome of the
///   squashing branch (`di`). Must not touch predictor tables (training
///   happens at commit, on the correct path only).
pub trait FrontEnd {
    /// Which config-facing engine this is.
    fn kind(&self) -> FetchEngineKind;

    /// History length this engine's direction predictor uses.
    fn history_bits(&self) -> u32;

    /// Predicts the next fetch block for `thread` starting at `pc`.
    ///
    /// Speculatively updates `spec` (history shift, RAS push/pop, stream
    /// path) and returns the block plus the checkpoints needed to undo
    /// those updates.
    fn predict_block(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
    ) -> PredictedBlock;

    /// Predicts up to `max_blocks` fetch blocks in one cycle, appending to
    /// `out` — the thread's FTQ itself, pre-sized by the simulator, so each
    /// block is written once with no intermediate scratch copy and the
    /// steady-state prediction stage performs no heap allocation.
    ///
    /// The default emits exactly one block; multi-block engines (the trace
    /// cache) override it.
    #[expect(clippy::too_many_arguments, reason = "writes straight into the FTQ")]
    fn predict_blocks_into(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
        max_blocks: usize,
        out: &mut VecDeque<PredictedBlock>,
    ) {
        let _ = max_blocks;
        out.push_back(self.predict_block(thread, pc, spec, program, width));
    }

    /// Trains the engine with a resolved correct-path branch.
    ///
    /// Called by the back end when the branch commits. `info` and `hist`
    /// carry the prediction-time state (`hist` is the history the direction
    /// prediction was made under); `di` the actual outcome.
    fn train_resolve(&mut self, info: &BranchInfo, hist: GlobalHistory, di: &DynInst);

    /// Trains the engine with an instruction stream completed at commit
    /// (a taken branch closed the stream). No-op by default; the stream
    /// front-end listens.
    fn train_commit(&mut self, start: Addr, path: &StreamPath, obs: ObservedStream) {
        let _ = (start, path, obs);
    }

    /// Feeds one committed instruction to the engine's fill unit. No-op by
    /// default; the trace cache listens. `commit_hist_end` is the thread's
    /// committed end-conditional history *before* this instruction.
    fn trace_fill_commit(
        &mut self,
        fill: &mut TraceFillBuffer,
        di: &DynInst,
        commit_hist_end: u64,
    ) {
        let _ = (fill, di, commit_hist_end);
    }

    /// Repairs the speculative state after the mispredicted branch described
    /// by `info`/`di` squashes everything younger, then applies the branch's
    /// actual outcome. `meta` is the block checkpoint captured when the
    /// branch's fetch block was predicted.
    fn repair(&mut self, spec: &mut SpecState, info: &BranchInfo, meta: &BlockMeta, di: &DynInst);

    /// The engine's event horizon (DESIGN.md §14): the earliest future
    /// cycle at which its *own* state can change without a predict/train
    /// call reaching it. All four shipped engines are pull-driven — their
    /// tables only move inside those calls — so the default reports no
    /// self-scheduled event; a future push-driven engine (e.g. an ahead
    /// predictor with a pipelined update queue) overrides this so the
    /// cycle-skipping scheduler never jumps over its updates.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let _ = now;
        None
    }
}

/// Shared [`FrontEnd::repair`] body: restore every checkpointed register,
/// then apply the squashing branch's actual outcome.
///
/// `push_cond_hist` is false for engines without a per-branch direction
/// predictor (the stream front-end), whose speculative history never shifts.
///
/// The RAS call/return effect and the stream-path push are both gated on
/// `di.taken`: a not-taken call or return transfers no control, so it
/// neither pushes/pops a return address nor closes the current stream.
/// (Gating them *together* keeps `SpecState.path` and the RAS consistent
/// after a mispredicted call/return — historically the RAS effect was
/// unconditional while the path push was gated, leaving the two out of
/// sync on not-taken call/return repairs.)
pub(crate) fn repair_spec(
    spec: &mut SpecState,
    info: &BranchInfo,
    meta: &BlockMeta,
    di: &DynInst,
    push_cond_hist: bool,
) {
    // History: restore, then shift in the actual direction if this branch
    // was a predicted (block-ending) conditional.
    spec.hist = meta.hist;
    if push_cond_hist && di.is_cond_branch() && info.is_end {
        spec.hist.push(di.taken);
    }
    // RAS and stream registers: restore the checkpoints.
    spec.ras.restore(meta.ras);
    spec.path = meta.path;
    spec.stream_start = meta.stream_start;
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
                    kind,
                    predicted_taken: taken,
                    predicted_target: target,
                }),
                next_fetch: next,
            }
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
        embedded_branches: 0,
        end_branch: None,
        next_fetch: pc.add_insts(len as u64),
    }
}

// ----- registry and enum-thin dispatch ---------------------------------

/// One front-end registration: the config-facing kind, its canonical name
/// (shared by `Display` and `FromStr` on [`FetchEngineKind`]), and a
/// constructor.
pub struct FrontEndEntry {
    /// Config-facing engine selector.
    pub kind: FetchEngineKind,
    /// Canonical name (the paper's spelling).
    pub name: &'static str,
    /// Builds the engine from a configuration's predictor geometry.
    pub build: fn(&SimConfig) -> Result<AnyFrontEnd, Diagnostic>,
}

fn build_gshare_btb(cfg: &SimConfig) -> Result<AnyFrontEnd, Diagnostic> {
    GshareBtb::build(cfg).map(AnyFrontEnd::GshareBtb)
}

fn build_gskew_ftb(cfg: &SimConfig) -> Result<AnyFrontEnd, Diagnostic> {
    GskewFtb::build(cfg).map(AnyFrontEnd::GskewFtb)
}

fn build_stream(cfg: &SimConfig) -> Result<AnyFrontEnd, Diagnostic> {
    Stream::build(cfg).map(AnyFrontEnd::Stream)
}

fn build_trace_cache(cfg: &SimConfig) -> Result<AnyFrontEnd, Diagnostic> {
    TraceCache::build(cfg).map(AnyFrontEnd::TraceCache)
}

/// The static front-end registry: one entry per engine, in the paper's
/// presentation order. [`AnyFrontEnd::build`] and the
/// [`FetchEngineKind`] string parser both resolve through this table, so
/// the CLI names cannot drift from the registered engines.
pub static FRONT_ENDS: [FrontEndEntry; 4] = [
    FrontEndEntry {
        kind: FetchEngineKind::GshareBtb,
        name: "gshare+BTB",
        build: build_gshare_btb,
    },
    FrontEndEntry {
        kind: FetchEngineKind::GskewFtb,
        name: "gskew+FTB",
        build: build_gskew_ftb,
    },
    FrontEndEntry {
        kind: FetchEngineKind::Stream,
        name: "stream",
        build: build_stream,
    },
    FrontEndEntry {
        kind: FetchEngineKind::TraceCache,
        name: "trace cache",
        build: build_trace_cache,
    },
];

/// Looks up the registry entry for `kind` (every kind is registered).
#[expect(clippy::expect_used, reason = "registry is total over FetchEngineKind")]
pub(crate) fn registry_entry(kind: FetchEngineKind) -> &'static FrontEndEntry {
    FRONT_ENDS
        .iter()
        .find(|e| e.kind == kind)
        .expect("every FetchEngineKind is registered")
}

/// Maps a construction diagnostic into the `predictor.` config namespace.
pub(crate) fn scoped(d: Diagnostic) -> Diagnostic {
    let field = format!("predictor.{}", d.field);
    d.in_field(field)
}

/// The shipped front-ends behind one enum-thin dispatcher.
///
/// The cycle loop calls engines through this wrapper: a plain enum over the
/// concrete types, so dispatch is a jump table over inline data — no
/// `Box<dyn FrontEnd>`, no heap indirection — and the simulator stays
/// `Clone` + `Send` structurally.
#[derive(Clone, Debug)]
pub enum AnyFrontEnd {
    /// gshare + BTB (the baseline SMT front-end).
    GshareBtb(GshareBtb),
    /// gskew + FTB.
    GskewFtb(GskewFtb),
    /// Stream front-end.
    Stream(Stream),
    /// Trace cache + gshare/BTB core fetch unit (related-work comparator).
    TraceCache(TraceCache),
}

impl AnyFrontEnd {
    /// Builds the engine registered for `kind` from the configuration's
    /// predictor geometry, through the [`FRONT_ENDS`] registry.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found in the requested tables
    /// (`E0001`/`E0002` geometry, `E0012` block/stream caps). Use
    /// [`SimConfig::validate`] to collect *all* problems at once.
    pub fn build(kind: FetchEngineKind, cfg: &SimConfig) -> Result<Self, Diagnostic> {
        (registry_entry(kind).build)(cfg)
    }

    /// Builds the engine in the paper's Table 3 configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has invalid predictor geometry; prefer
    /// [`AnyFrontEnd::build`] for configurations that are not known-good.
    #[expect(clippy::expect_used, reason = "Table 3 geometry is valid")]
    pub fn hpca2004(kind: FetchEngineKind, cfg: &SimConfig) -> Self {
        AnyFrontEnd::build(kind, cfg).expect("Table 3 geometry is valid")
    }
}

/// Macro-free match delegation: each arm forwards to the concrete engine,
/// so calls stay monomorphic behind a four-way jump.
impl FrontEnd for AnyFrontEnd {
    fn kind(&self) -> FetchEngineKind {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.kind(),
            AnyFrontEnd::GskewFtb(e) => e.kind(),
            AnyFrontEnd::Stream(e) => e.kind(),
            AnyFrontEnd::TraceCache(e) => e.kind(),
        }
    }

    fn history_bits(&self) -> u32 {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.history_bits(),
            AnyFrontEnd::GskewFtb(e) => e.history_bits(),
            AnyFrontEnd::Stream(e) => e.history_bits(),
            AnyFrontEnd::TraceCache(e) => e.history_bits(),
        }
    }

    fn predict_block(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        spec: &mut SpecState,
        program: &Program,
        width: u32,
    ) -> PredictedBlock {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.predict_block(thread, pc, spec, program, width),
            AnyFrontEnd::GskewFtb(e) => e.predict_block(thread, pc, spec, program, width),
            AnyFrontEnd::Stream(e) => e.predict_block(thread, pc, spec, program, width),
            AnyFrontEnd::TraceCache(e) => e.predict_block(thread, pc, spec, program, width),
        }
    }

    fn predict_blocks_into(
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
            AnyFrontEnd::GshareBtb(e) => {
                e.predict_blocks_into(thread, pc, spec, program, width, max_blocks, out)
            }
            AnyFrontEnd::GskewFtb(e) => {
                e.predict_blocks_into(thread, pc, spec, program, width, max_blocks, out)
            }
            AnyFrontEnd::Stream(e) => {
                e.predict_blocks_into(thread, pc, spec, program, width, max_blocks, out)
            }
            AnyFrontEnd::TraceCache(e) => {
                e.predict_blocks_into(thread, pc, spec, program, width, max_blocks, out)
            }
        }
    }

    fn train_resolve(&mut self, info: &BranchInfo, hist: GlobalHistory, di: &DynInst) {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.train_resolve(info, hist, di),
            AnyFrontEnd::GskewFtb(e) => e.train_resolve(info, hist, di),
            AnyFrontEnd::Stream(e) => e.train_resolve(info, hist, di),
            AnyFrontEnd::TraceCache(e) => e.train_resolve(info, hist, di),
        }
    }

    fn train_commit(&mut self, start: Addr, path: &StreamPath, obs: ObservedStream) {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.train_commit(start, path, obs),
            AnyFrontEnd::GskewFtb(e) => e.train_commit(start, path, obs),
            AnyFrontEnd::Stream(e) => e.train_commit(start, path, obs),
            AnyFrontEnd::TraceCache(e) => e.train_commit(start, path, obs),
        }
    }

    fn trace_fill_commit(
        &mut self,
        fill: &mut TraceFillBuffer,
        di: &DynInst,
        commit_hist_end: u64,
    ) {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.trace_fill_commit(fill, di, commit_hist_end),
            AnyFrontEnd::GskewFtb(e) => e.trace_fill_commit(fill, di, commit_hist_end),
            AnyFrontEnd::Stream(e) => e.trace_fill_commit(fill, di, commit_hist_end),
            AnyFrontEnd::TraceCache(e) => e.trace_fill_commit(fill, di, commit_hist_end),
        }
    }

    fn repair(&mut self, spec: &mut SpecState, info: &BranchInfo, meta: &BlockMeta, di: &DynInst) {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.repair(spec, info, meta, di),
            AnyFrontEnd::GskewFtb(e) => e.repair(spec, info, meta, di),
            AnyFrontEnd::Stream(e) => e.repair(spec, info, meta, di),
            AnyFrontEnd::TraceCache(e) => e.repair(spec, info, meta, di),
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            AnyFrontEnd::GshareBtb(e) => e.next_event(now),
            AnyFrontEnd::GskewFtb(e) => e.next_event(now),
            AnyFrontEnd::Stream(e) => e.next_event(now),
            AnyFrontEnd::TraceCache(e) => e.next_event(now),
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
    fn registry_covers_every_kind_exactly_once() {
        for kind in FetchEngineKind::all_with_trace_cache() {
            let hits = FRONT_ENDS.iter().filter(|e| e.kind == kind).count();
            assert_eq!(hits, 1, "{kind} must register exactly once");
        }
        assert_eq!(FRONT_ENDS.len(), 4);
    }

    #[test]
    fn registry_names_match_display() {
        for e in &FRONT_ENDS {
            assert_eq!(e.name, e.kind.to_string(), "registry/Display drift");
        }
    }

    #[test]
    fn built_engines_report_their_kind_and_history() {
        let cfg = cfg();
        for (kind, bits) in [
            (FetchEngineKind::GshareBtb, 16),
            (FetchEngineKind::GskewFtb, 15),
            (FetchEngineKind::Stream, 16),
            (FetchEngineKind::TraceCache, 15),
        ] {
            let e = AnyFrontEnd::hpca2004(kind, &cfg);
            assert_eq!(e.kind(), kind);
            assert_eq!(e.history_bits(), bits, "{kind}");
        }
    }

    #[test]
    fn repair_restores_history_ras_and_path() {
        let prog = program();
        let mut e = AnyFrontEnd::hpca2004(FetchEngineKind::GshareBtb, &cfg());
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
            let mut e = AnyFrontEnd::hpca2004(kind, &cfg());
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
