//! Misprediction-recovery coverage.
//!
//! Two layers:
//!
//! 1. **Behavior digests** — a seeded call-heavy workload (calls/returns
//!    exercise the RAS-repair path hard) is simulated under every fetch
//!    engine and its whole-run counters are pinned as literals, so any
//!    refactor of the `FrontEnd` enum or of squash/repair must preserve
//!    their behavior cycle for cycle.
//! 2. **Spec-state recovery** — for each engine, enrich the speculative
//!    state, checkpoint it, run wrong-path predictions past the checkpoint,
//!    then `repair` with a synthetic resolved outcome and assert the state
//!    (history bits, RAS depth/top, stream path) matches an independently
//!    reconstructed reference.

use smtfetch::core::{FetchEngineKind, FetchPolicy, SimBuilder, Simulator};
use smtfetch::isa::Addr;
use smtfetch::workloads::{BenchmarkProfile, Program, ProgramBuilder};

/// A two-thread workload whose block-ending branches are 40% calls —
/// several times the Table 1 rates (gzip 0.08 … eon 0.16) — so squashes
/// constantly land near speculative RAS activity.
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

fn call_heavy_sim(engine: FetchEngineKind) -> Simulator {
    SimBuilder::new(call_heavy_programs())
        .fetch_engine(engine)
        .fetch_policy(FetchPolicy::icount(2, 8))
        .build()
        .expect("call-heavy workload builds")
}

/// Whole-run digest: every counter that squash/repair behavior feeds.
fn digest(engine: FetchEngineKind) -> [u64; 5] {
    let mut sim = call_heavy_sim(engine);
    let stats = sim.run_cycles(8_000);
    [
        stats.total_committed(),
        stats.squashed,
        stats.control_mispredicts,
        stats.cond_mispredicts,
        stats.fetched_wrong_path,
    ]
}

#[test]
fn call_heavy_digest_gshare_btb() {
    assert_eq!(
        digest(FetchEngineKind::GshareBtb),
        [6940, 3395, 159, 65, 3395]
    );
}

#[test]
fn call_heavy_digest_gskew_ftb() {
    assert_eq!(
        digest(FetchEngineKind::GskewFtb),
        [7077, 4178, 215, 71, 4245]
    );
}

#[test]
fn call_heavy_digest_stream() {
    assert_eq!(digest(FetchEngineKind::Stream), [6989, 6015, 223, 66, 6081]);
}

#[test]
fn call_heavy_digest_trace_cache() {
    assert_eq!(
        digest(FetchEngineKind::TraceCache),
        [6353, 6230, 278, 54, 6238]
    );
}

mod spec_state {
    //! Layer 2: mid-burst squash recovery, per engine.
    //!
    //! Each case enriches the speculative state by letting the engine run a
    //! burst of real predictions down its own predicted path, snapshots the
    //! state entering the squashing branch's block, keeps predicting down
    //! the (now wrong) path, then calls `repair` with a synthetic resolved
    //! outcome. The repaired state must equal a reference reconstructed
    //! from the snapshot plus the `FrontEnd::repair` contract alone: the
    //! checkpoint restored, then the actual outcome applied (history shift
    //! for predicted conditionals, RAS push/pop and stream-close only for
    //! taken control transfers).

    use std::collections::VecDeque;

    use smtfetch::core::{
        BranchInfo, FetchEngineKind, FetchPolicy, FrontEnd, PredictedBlock, SimConfig, SpecState,
    };
    use smtfetch::isa::{Addr, BranchKind, DynInst, InstClass};
    use smtfetch::workloads::{Program, Srng};

    /// One 8-wide prediction from `pc` (a single block, even on a trace
    /// hit).
    fn predict(e: &mut FrontEnd, pc: Addr, spec: &mut SpecState, prog: &Program) -> PredictedBlock {
        let mut out = VecDeque::new();
        e.predict_blocks_into(0, pc, spec, prog, 8, 1, &mut out);
        out.pop_back().expect("one block per prediction")
    }

    #[test]
    fn mid_burst_repair_matches_reconstructed_reference() {
        let programs = super::call_heavy_programs();
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
                    pc = if pb.block.next_fetch.is_null() {
                        pb.block.end()
                    } else {
                        pb.block.next_fetch
                    };
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
                    wpc = if p.block.next_fetch.is_null() {
                        p.block.end()
                    } else {
                        p.block.next_fetch
                    };
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
                    spec_next: pb.block.next_fetch,
                    mispredicted: true,
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
