//! Qualitative reproduction checks: the orderings and crossovers the paper's
//! evaluation reports must hold in this simulator (with generous margins —
//! absolute numbers are not expected to match a 2004 testbed).

use std::sync::OnceLock;

use smtfetch::core::{FetchEngineKind, FetchPolicy};
use smtfetch::experiments::{run, sweep_indexed, RunLength, RunResult};
use smtfetch::workloads::Workload;

const LEN: RunLength = RunLength {
    warmup_cycles: 20_000,
    measure_cycles: 60_000,
};

/// Every cell the tests below read: 23 distinct configurations, each
/// simulated once for the whole file (in parallel, on first use).
fn results() -> &'static [RunResult] {
    static RESULTS: OnceLock<Vec<RunResult>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let (p18, p28, p116) = (
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
        );
        let mut cells = Vec::new();
        for w in [Workload::mix2(), Workload::mix4()] {
            for e in FetchEngineKind::all() {
                cells.push((w.clone(), e, p18));
                cells.push((w.clone(), e, p28));
            }
        }
        for w in [Workload::ilp2(), Workload::ilp4()] {
            for e in FetchEngineKind::all() {
                cells.push((w.clone(), e, p116));
            }
        }
        cells.push((Workload::mix2(), FetchEngineKind::GshareBtb, p116));
        cells.push((Workload::ilp4(), FetchEngineKind::GshareBtb, p18));
        cells.push((Workload::ilp4(), FetchEngineKind::GshareBtb, p28));
        cells.push((Workload::ilp2(), FetchEngineKind::GskewFtb, p18));
        cells.push((Workload::mem2(), FetchEngineKind::GskewFtb, p18));
        sweep_indexed(cells.len(), |i| {
            let (w, e, p) = &cells[i];
            run(w, *e, *p, LEN)
        })
    })
}

/// The measured cell `(w, e, p)`, which must be one of [`results`].
fn cell(w: &Workload, e: FetchEngineKind, p: FetchPolicy) -> &'static RunResult {
    let (e, p) = (e.to_string(), p.to_string());
    results()
        .iter()
        .find(|r| r.workload == w.name() && r.engine == e && r.policy == p)
        .unwrap_or_else(|| panic!("{} {e} {p} is not a listed cell", w.name()))
}

/// EXPERIMENTS.md summary row 1 — §3.1/Figure 2: a single-thread gshare+BTB
/// front-end badly underuses the fetch bandwidth (IPFC well under the width of
/// 8) and widening it to 16 barely helps, because blocks are limited to one
/// basic block.
#[test]
fn single_thread_gshare_underuses_bandwidth() {
    let w = Workload::mix2();
    let n8 = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 8));
    let n16 = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 16));
    assert!(
        n8.ipfc < 6.0,
        "1.8 IPFC {:.2} should be far below 8",
        n8.ipfc
    );
    assert!(
        n16.ipfc < n8.ipfc * 1.35,
        "1.16 ({:.2}) should gain little over 1.8 ({:.2}) for gshare+BTB",
        n16.ipfc,
        n8.ipfc
    );
}

/// EXPERIMENTS.md summary row 2 — §3.2/Figure 4: fetching from two threads
/// raises fetch throughput.
#[test]
fn dual_thread_fetch_raises_ipfc() {
    let w = Workload::mix2();
    let one = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 8));
    let two = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(2, 8));
    assert!(
        two.ipfc > one.ipfc * 1.02,
        "2.8 IPFC {:.2} must beat 1.8 IPFC {:.2}",
        two.ipfc,
        one.ipfc
    );
}

/// EXPERIMENTS.md summary row 3 — §3.3/Figures 5–6: the high-performance
/// front-ends out-fetch gshare+BTB when fetching from a single thread.
#[test]
fn high_performance_engines_outfetch_gshare() {
    for w in [Workload::ilp2(), Workload::ilp4()] {
        let base = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 16));
        for e in [FetchEngineKind::GskewFtb, FetchEngineKind::Stream] {
            let s = cell(&w, e, FetchPolicy::icount(1, 16));
            assert!(
                s.ipfc > base.ipfc * 1.05,
                "{} on {}: {e} IPFC {:.2} vs gshare {:.2}",
                w.name(),
                e,
                s.ipfc,
                base.ipfc
            );
        }
    }
}

/// EXPERIMENTS.md summary row 4 — Figure 5(b): on ILP workloads, fetching from
/// two threads beats one at width 8 (fetch supply is the bottleneck).
#[test]
fn ilp_workloads_prefer_dual_fetch_at_width_8() {
    let w = Workload::ilp4();
    let one = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 8));
    let two = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(2, 8));
    assert!(
        two.ipc > one.ipc * 1.05,
        "4_ILP gshare: 2.8 IPC {:.2} must beat 1.8 IPC {:.2}",
        two.ipc,
        one.ipc
    );
}

/// EXPERIMENTS.md summary row 5 — Figure 6(b): a high-performance engine
/// fetching 16 from ONE thread keeps up with the complex dual-thread
/// configuration of the baseline engine.
#[test]
fn wide_single_thread_matches_dual_thread_baseline() {
    let w = Workload::ilp4();
    let baseline_2_8 = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(2, 8));
    for e in [FetchEngineKind::GskewFtb, FetchEngineKind::Stream] {
        let s = cell(&w, e, FetchPolicy::icount(1, 16));
        assert!(
            s.ipc > baseline_2_8.ipc * 0.95,
            "{e} 1.16 IPC {:.2} vs gshare 2.8 IPC {:.2}",
            s.ipc,
            baseline_2_8.ipc
        );
    }
}

/// EXPERIMENTS.md summary row 7 — §5.2/Figure 7(b): on memory-bounded (MIX)
/// workloads, fetching from two threads is *counterproductive* — the paper's
/// headline surprise.
#[test]
fn mix_workloads_lose_from_dual_fetch() {
    for w in [Workload::mix2(), Workload::mix4()] {
        for e in FetchEngineKind::all() {
            let one = cell(&w, e, FetchPolicy::icount(1, 8));
            let two = cell(&w, e, FetchPolicy::icount(2, 8));
            assert!(
                one.ipc > two.ipc * 0.98,
                "{} {e}: 1.8 IPC {:.2} should not lose to 2.8 IPC {:.2}",
                w.name(),
                one.ipc,
                two.ipc
            );
        }
    }
}

/// EXPERIMENTS.md summary row 8 — Figure 7(a): even where 2.8 loses IPC, it
/// still *fetches* more — the gap between fetch and commit throughput is the
/// paper's §5.2 argument.
#[test]
fn dual_fetch_still_wins_ipfc_on_mix() {
    let w = Workload::mix4();
    let one = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 8));
    let two = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(2, 8));
    assert!(two.ipfc > one.ipfc);
}

/// No summary row (a premise of rows 7, 8 and 10): MEM threads really behave
/// memory-bound: a 2_MEM workload commits far below an ILP one.
#[test]
fn mem_workloads_are_memory_bound() {
    let mem = cell(
        &Workload::mem2(),
        FetchEngineKind::GskewFtb,
        FetchPolicy::icount(1, 8),
    );
    let ilp = cell(
        &Workload::ilp2(),
        FetchEngineKind::GskewFtb,
        FetchPolicy::icount(1, 8),
    );
    assert!(
        mem.ipc * 3.0 < ilp.ipc,
        "2_MEM IPC {:.2} vs 2_ILP IPC {:.2}",
        mem.ipc,
        ilp.ipc
    );
}

/// EXPERIMENTS.md summary row 3, by mechanism: fetch-block sizes order as
/// designed: stream blocks ≥ FTB blocks ≥ BTB basic blocks (measured through
/// delivered IPFC on ILP code at 1.16, where block length is the binding
/// constraint).
#[test]
fn block_length_ordering() {
    let w = Workload::ilp4();
    let btb = cell(&w, FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 16));
    let ftb = cell(&w, FetchEngineKind::GskewFtb, FetchPolicy::icount(1, 16));
    let stream = cell(&w, FetchEngineKind::Stream, FetchPolicy::icount(1, 16));
    assert!(
        ftb.ipfc > btb.ipfc,
        "ftb {:.2} vs btb {:.2}",
        ftb.ipfc,
        btb.ipfc
    );
    assert!(
        stream.ipfc > btb.ipfc * 1.1,
        "stream {:.2} vs btb {:.2}",
        stream.ipfc,
        btb.ipfc
    );
}
