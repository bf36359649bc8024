//! Misprediction-recovery behavior digests.
//!
//! A seeded call-heavy workload (calls/returns exercise the RAS-repair path
//! hard) is simulated under every fetch engine and its whole-run counters
//! are pinned as literals, so any refactor of the `FrontEnd` enum or of
//! squash/repair must preserve their behavior cycle for cycle. The
//! spec-state check under them — `repair` after a mid-burst squash against
//! an independently reconstructed reference — is a unit test in `smt-core`
//! (`frontend::tests::mid_burst_repair_matches_reconstructed_reference`).

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
