//! End-to-end integration tests: build workloads, run the simulator across
//! engines and policies, and check cross-crate invariants.
//!
//! The heavy engine×policy product tests fan their independent simulations
//! out over every available core (`sweep_indexed`); assertions stay on the
//! main thread so a failure message names the offending cell.

use smtfetch::core::{FetchEngineKind, FetchPolicy, SimBuilder, SimStats};
use smtfetch::experiments::sweep_indexed;
use smtfetch::workloads::{Workload, WorkloadClass};

fn run(w: &Workload, e: FetchEngineKind, p: FetchPolicy, cycles: u64) -> SimStats {
    let mut sim = SimBuilder::new(w.programs(7).expect("programs build"))
        .fetch_engine(e)
        .fetch_policy(p)
        .build()
        .expect("valid thread count");
    sim.run_cycles(cycles).clone()
}

#[test]
fn every_workload_runs_on_every_engine() {
    let cells: Vec<(Workload, FetchEngineKind)> = Workload::all_table2()
        .into_iter()
        .flat_map(|w| FetchEngineKind::all().map(|e| (w.clone(), e)))
        .collect();
    let stats = sweep_indexed(cells.len(), |i| {
        let (w, e) = &cells[i];
        run(w, *e, FetchPolicy::icount(1, 8), 6_000)
    });
    for ((w, e), s) in cells.iter().zip(&stats) {
        assert!(
            s.total_committed() > 500,
            "{} on {e} committed only {}",
            w.name(),
            s.total_committed()
        );
    }
}

#[test]
fn ipc_never_exceeds_decode_width() {
    let cells: Vec<(FetchEngineKind, FetchPolicy)> = FetchEngineKind::all()
        .into_iter()
        .flat_map(|e| FetchPolicy::paper_sweep().map(|p| (e, p)))
        .collect();
    let stats = sweep_indexed(cells.len(), |i| {
        let (e, p) = cells[i];
        run(&Workload::ilp4(), e, p, 20_000)
    });
    for ((e, p), s) in cells.iter().zip(&stats) {
        assert!(s.ipc() <= 8.0, "{e} {p}: ipc {}", s.ipc());
        assert!(s.ipfc() <= p.width as f64, "{e} {p}: ipfc {}", s.ipfc());
    }
}

#[test]
fn runs_are_deterministic() {
    let a = run(
        &Workload::mix4(),
        FetchEngineKind::Stream,
        FetchPolicy::icount(2, 16),
        15_000,
    );
    let b = run(
        &Workload::mix4(),
        FetchEngineKind::Stream,
        FetchPolicy::icount(2, 16),
        15_000,
    );
    assert_eq!(a.total_committed(), b.total_committed());
    assert_eq!(a.fetched, b.fetched);
    assert_eq!(a.squashed, b.squashed);
    assert_eq!(a.cond_mispredicts, b.cond_mispredicts);
}

#[test]
fn all_threads_make_progress_under_icount() {
    // ICOUNT is a fairness-seeking policy: even the memory-bounded threads
    // of a MIX workload must retire instructions.
    let s = run(
        &Workload::mix4(),
        FetchEngineKind::GskewFtb,
        FetchPolicy::icount(1, 8),
        60_000,
    );
    for t in 0..4 {
        assert!(
            s.committed[t] > 100,
            "thread {t} committed {}",
            s.committed[t]
        );
    }
}

#[test]
fn accounting_identities_hold() {
    let s = run(
        &Workload::ilp2(),
        FetchEngineKind::GshareBtb,
        FetchPolicy::icount(2, 8),
        30_000,
    );
    // Everything fetched is committed, squashed, or still in flight.
    assert!(s.total_committed() + s.squashed <= s.fetched);
    let in_flight = s.fetched - s.total_committed() - s.squashed;
    assert!(in_flight < 1_000, "{in_flight} unaccounted instructions");
    // Wrong-path instructions never commit, so squashes cover them.
    assert!(s.squashed >= s.fetched_wrong_path.saturating_sub(600));
    // The distribution's cycle count is exactly the fetch-cycle count.
    assert_eq!(s.distribution.cycles(), s.fetch_cycles);
}

#[test]
fn branch_prediction_learns_in_pipeline() {
    let engines = FetchEngineKind::all();
    let stats = sweep_indexed(engines.len(), |i| {
        run(
            &Workload::ilp2(),
            engines[i],
            FetchPolicy::icount(1, 8),
            60_000,
        )
    });
    for (e, s) in engines.iter().zip(&stats) {
        assert!(
            s.branch_accuracy() > 0.80,
            "{e}: accuracy {:.3}",
            s.branch_accuracy()
        );
    }
}

#[test]
fn history_checkpoints_track_architectural_history() {
    // For the gshare engine every conditional branch ends a block, so the
    // prediction-time history checkpoint must equal the committed-outcome
    // history at all times (this catches speculation-repair bugs).
    let s = run(
        &Workload::ilp2(),
        FetchEngineKind::GshareBtb,
        FetchPolicy::icount(2, 8),
        40_000,
    );
    let rate = s.hist_mismatches as f64 / s.cond_branches.max(1) as f64;
    assert!(rate < 0.01, "history mismatch rate {rate:.4}");
}

#[test]
fn wider_fetch_does_not_reduce_fetch_throughput() {
    let engines = FetchEngineKind::all();
    let pairs = sweep_indexed(engines.len(), |i| {
        let e = engines[i];
        let narrow = run(&Workload::ilp4(), e, FetchPolicy::icount(1, 8), 40_000);
        let wide = run(&Workload::ilp4(), e, FetchPolicy::icount(1, 16), 40_000);
        (narrow, wide)
    });
    for (e, (narrow, wide)) in engines.iter().zip(&pairs) {
        assert!(
            wide.ipfc() >= narrow.ipfc() * 0.97,
            "{e}: ipfc narrow {:.2} wide {:.2}",
            narrow.ipfc(),
            wide.ipfc()
        );
    }
}

#[test]
fn round_robin_policy_works() {
    let s = run(
        &Workload::ilp2(),
        FetchEngineKind::GshareBtb,
        FetchPolicy::round_robin(1, 8),
        40_000,
    );
    assert!(s.ipc() > 0.8, "RR ipc {}", s.ipc());
    assert!(s.committed[0] > 0 && s.committed[1] > 0);
}

#[test]
fn custom_single_thread_workload_runs() {
    let w = Workload::custom("solo", WorkloadClass::Ilp, &["crafty"]).unwrap();
    // 40k cycles includes the cold start (caches, predictor tables), so the
    // bar is deliberately modest.
    let s = run(
        &w,
        FetchEngineKind::Stream,
        FetchPolicy::icount(1, 16),
        40_000,
    );
    assert!(s.ipc() > 0.3, "single-thread ipc {}", s.ipc());
    assert_eq!(s.committed[1..].iter().sum::<u64>(), 0);
}

#[test]
fn builder_rejects_bad_thread_counts() {
    use smtfetch::core::BuildError;
    let err = SimBuilder::new(Vec::new()).build().unwrap_err();
    assert_eq!(err, BuildError::NoThreads);

    let nine: Vec<_> = (0..9)
        .flat_map(|i| {
            Workload::custom("x", WorkloadClass::Ilp, &["gzip"])
                .unwrap()
                .programs(i)
                .unwrap()
        })
        .collect();
    let err = SimBuilder::new(nine).build().unwrap_err();
    assert!(matches!(err, BuildError::TooManyThreads { got: 9 }));
}

#[test]
fn two_thread_fetch_uses_bank_conflict_logic() {
    // 2.X must exercise the bank-conflict path at least occasionally.
    let s = run(
        &Workload::ilp4(),
        FetchEngineKind::GshareBtb,
        FetchPolicy::icount(2, 8),
        40_000,
    );
    assert!(
        s.bank_conflicts > 0,
        "dual fetch never conflicted on a bank"
    );
    // And 1.X never can.
    let s1 = run(
        &Workload::ilp4(),
        FetchEngineKind::GshareBtb,
        FetchPolicy::icount(1, 8),
        40_000,
    );
    assert_eq!(s1.bank_conflicts, 0);
}

#[test]
fn stall_policy_gates_the_memory_thread() {
    // STALL starves the memory-bound thread but boosts raw throughput on a
    // MIX workload (Tullsen & Brown) — and never fires flushes.
    let base = run(
        &Workload::mix2(),
        FetchEngineKind::GskewFtb,
        FetchPolicy::icount(2, 8),
        60_000,
    );
    let stall = run(
        &Workload::mix2(),
        FetchEngineKind::GskewFtb,
        FetchPolicy::icount(2, 8).with_stall(),
        60_000,
    );
    assert!(
        stall.ipc() > base.ipc(),
        "STALL {:.2} should beat plain ICOUNT {:.2} on 2_MIX",
        stall.ipc(),
        base.ipc()
    );
    assert_eq!(stall.flushes, 0);
    // Both threads still commit something.
    assert!(stall.committed[0] > 0 && stall.committed[1] > 0);
}

#[test]
fn flush_policy_fires_and_stays_correct() {
    let flush = run(
        &Workload::mix4(),
        FetchEngineKind::GskewFtb,
        FetchPolicy::icount(2, 8).with_flush(),
        60_000,
    );
    assert!(flush.flushes > 10, "flush never fired: {}", flush.flushes);
    // Flushed instructions are re-fetched and committed: the run stays
    // functionally sound (all threads progress; accounting holds).
    for t in 0..4 {
        assert!(
            flush.committed[t] > 50,
            "thread {t}: {}",
            flush.committed[t]
        );
    }
    assert!(flush.total_committed() + flush.squashed <= flush.fetched);
}

#[test]
fn flush_runs_are_deterministic_too() {
    let p = FetchPolicy::icount(2, 8).with_flush();
    let a = run(&Workload::mix4(), FetchEngineKind::Stream, p, 30_000);
    let b = run(&Workload::mix4(), FetchEngineKind::Stream, p, 30_000);
    assert_eq!(a.total_committed(), b.total_committed());
    assert_eq!(a.flushes, b.flushes);
    assert_eq!(a.squashed, b.squashed);
}

#[test]
fn brcount_and_misscount_policies_run() {
    for p in [FetchPolicy::br_count(2, 8), FetchPolicy::miss_count(2, 8)] {
        let s = run(&Workload::mix4(), FetchEngineKind::GshareBtb, p, 30_000);
        assert!(s.ipc() > 0.3, "{p}: ipc {}", s.ipc());
    }
}

#[test]
fn policy_display_includes_mechanism() {
    assert_eq!(
        FetchPolicy::icount(2, 8).with_stall().to_string(),
        "ICOUNT-STALL.2.8"
    );
    assert_eq!(FetchPolicy::miss_count(1, 16).to_string(), "MISSCOUNT.1.16");
}

#[test]
fn trace_cache_engine_runs_and_out_fetches_baseline() {
    let base = run(
        &Workload::ilp4(),
        FetchEngineKind::GshareBtb,
        FetchPolicy::icount(1, 16),
        60_000,
    );
    let tc = run(
        &Workload::ilp4(),
        FetchEngineKind::TraceCache,
        FetchPolicy::icount(1, 16),
        60_000,
    );
    assert!(
        tc.ipfc() > base.ipfc() * 1.1,
        "trace cache IPFC {:.2} vs gshare {:.2}",
        tc.ipfc(),
        base.ipfc()
    );
    assert!(tc.ipc() > base.ipc() * 0.9);
    assert!(tc.total_committed() > 1000);
}
