//! Golden-result regression harness.
//!
//! Each test renders a family of [`RunResult`]s to a canonical text form
//! (metrics at 6 decimal places) and compares it against a checked-in
//! snapshot under `tests/golden/`. The simulator is deterministic — a pure
//! function of the seed — so any diff is a behaviour change, not noise.
//!
//! To regenerate snapshots after an *intentional* simulator change:
//!
//! ```text
//! SMT_BLESS=1 cargo test --test golden
//! ```
//!
//! then commit the updated `tests/golden/*.txt` files alongside the change
//! that caused them. Snapshots are rendered from results only (never from
//! wall-time or worker ids), so they do not depend on the host's core count.

use std::fmt::Write as _;
use std::path::PathBuf;

use smtfetch::core::{FetchEngineKind, FetchPolicy, SimBuilder, SimStats, Simulator};
use smtfetch::experiments::{run, run_matrix, sweep_indexed, RunLength, RunResult, EXP_SEED};
use smtfetch::workloads::Workload;

/// Every family runs at the same fixed length; golden files embed results
/// at this length, so it is deliberately *not* read from `SMT_EXP_CYCLES`.
const LEN: RunLength = RunLength::SMOKE;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn blessing() -> bool {
    std::env::var_os("SMT_BLESS").is_some_and(|v| v != "0")
}

/// Renders results to the canonical golden text form: one line per cell,
/// `workload | engine | policy` label first (locking matrix order), then
/// the headline metrics at 6 decimals.
fn render(results: &[RunResult]) -> String {
    let mut out = String::new();
    for r in results {
        let per_thread = r
            .per_thread_ipc
            .iter()
            .map(|v| format!("{v:.6}"))
            .collect::<Vec<_>>()
            .join(" ");
        writeln!(
            out,
            "{} | {} | {} | ipc={:.6} ipfc={:.6} fairness={:.6} per_thread=[{}]",
            r.workload, r.engine, r.policy, r.ipc, r.ipfc, r.fairness, per_thread
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Compares `results` against `tests/golden/<family>.txt`, or rewrites the
/// snapshot when `SMT_BLESS=1` is set.
fn check(family: &str, results: &[RunResult]) {
    check_text(family, &render(results));
}

/// Compares the rendered `got` against `tests/golden/<family>.txt`, or
/// rewrites the snapshot when `SMT_BLESS=1` is set.
fn check_text(family: &str, got: &str) {
    let path = golden_dir().join(format!("{family}.txt"));
    if blessing() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, got).expect("write golden snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}).\n\
             Run `SMT_BLESS=1 cargo test --test golden` and commit the result.",
            path.display()
        )
    });
    if got != want {
        let mismatch = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or(want.lines().count().min(got.lines().count()));
        panic!(
            "golden mismatch for family `{family}` at line {line}:\n\
             --- expected ({path})\n{want}\
             --- got\n{got}\
             If this change is intentional, re-bless with \
             `SMT_BLESS=1 cargo test --test golden` and commit the diff.",
            line = mismatch + 1,
            path = path.display(),
        )
    }
}

/// Pins every `SimStats` field, not just the headline metrics: the stall
/// buckets, skip counters, flushes, bank conflicts, buffer stalls and the
/// fetch distribution all go through `Debug`, so a field added later joins
/// the snapshot automatically. The matrix covers every engine (trace cache
/// included) under a 1.X and a 2.X ICOUNT policy, every other priority
/// scheme, and STALL/FLUSH on the memory-bound mix, where FLUSH must fire
/// and the event-driven scheduler must skip.
#[test]
fn golden_simstats_family() {
    let mut cells: Vec<(Workload, FetchEngineKind, FetchPolicy)> = Vec::new();
    for engine in FetchEngineKind::all_with_trace_cache() {
        for policy in [FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)] {
            cells.push((Workload::mix2(), engine, policy));
        }
    }
    for policy in [
        FetchPolicy::round_robin(2, 8),
        FetchPolicy::br_count(2, 8),
        FetchPolicy::miss_count(2, 8),
    ] {
        cells.push((Workload::mix2(), FetchEngineKind::GskewFtb, policy));
    }
    for policy in [
        FetchPolicy::icount(2, 8).with_stall(),
        FetchPolicy::icount(2, 8).with_flush(),
    ] {
        cells.push((Workload::mem2(), FetchEngineKind::GshareBtb, policy));
    }
    let stats = sweep_indexed(cells.len(), |i| {
        let (workload, engine, policy) = &cells[i];
        let mut sim = SimBuilder::new_shared(workload.programs_shared(EXP_SEED).expect("programs"))
            .fetch_engine(*engine)
            .fetch_policy(*policy)
            .build()
            .expect("valid configuration");
        sim.run_cycles(LEN.warmup_cycles);
        sim.reset_stats();
        sim.run_cycles(LEN.measure_cycles).clone()
    });
    let mut got = String::new();
    for ((workload, engine, policy), s) in cells.iter().zip(&stats) {
        writeln!(got, "{} | {engine} | {policy} | {s:?}", workload.name())
            .expect("writing to a String cannot fail");
    }
    let mem = &stats[stats.len() - 2..];
    assert!(mem[1].flushes > 0, "FLUSH never fired");
    assert!(
        mem.iter().all(|s| s.skipped_cycles() > 0),
        "the scheduler never skipped under STALL/FLUSH"
    );
    check_text("simstats_family", &got);
}

#[test]
fn golden_figure2_family() {
    // Figure 2's axis: the baseline engine on the 2-thread mix at 1.8/1.16.
    let results = run_matrix(
        &[Workload::mix2()],
        &[FetchEngineKind::GshareBtb],
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(1, 16)],
        LEN,
    );
    check("figure2_family", &results);
}

#[test]
fn golden_ilp_family() {
    // Figure 5's axis: every fetch engine on the ILP-bound 2-thread mix.
    let results = run_matrix(
        &[Workload::ilp2()],
        &FetchEngineKind::all(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        LEN,
    );
    check("ilp_family", &results);
}

#[test]
fn golden_mem_family() {
    // Figure 7's axis: every fetch engine on the memory-bound 2-thread mix.
    let results = run_matrix(
        &[Workload::mem2()],
        &FetchEngineKind::all(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        LEN,
    );
    check("mem_family", &results);
}

#[test]
fn golden_policies_family() {
    // The fetch-policy comparison: one engine, the priority-scheme sweep
    // plus the long-latency STALL/FLUSH variants.
    let results = run_matrix(
        &[Workload::mix2()],
        &[FetchEngineKind::GskewFtb],
        &[
            FetchPolicy::icount(2, 8),
            FetchPolicy::br_count(2, 8),
            FetchPolicy::miss_count(2, 8),
            FetchPolicy::icount(2, 8).with_stall(),
            FetchPolicy::icount(2, 8).with_flush(),
        ],
        LEN,
    );
    check("policies_family", &results);
}

/// Locks `run_matrix`'s documented nesting — workloads (outer) × policies ×
/// engines (inner) — as a golden snapshot: the label column of the snapshot
/// *is* the order contract, so any reordering diffs loudly.
#[test]
fn golden_matrix_order() {
    let results = run_matrix(
        &[Workload::mix2(), Workload::ilp2()],
        &FetchEngineKind::all(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 16)],
        LEN,
    );
    // Structural spot-check independent of the snapshot: workload outermost,
    // engine innermost, policy in between.
    assert_eq!(results.len(), 2 * 2 * 3);
    let engines: Vec<String> = FetchEngineKind::all()
        .iter()
        .map(|e| e.to_string())
        .collect();
    for (i, r) in results.iter().enumerate() {
        let want_workload = if i < 6 { "2_MIX" } else { "2_ILP" };
        let want_policy = if (i / 3) % 2 == 0 {
            "ICOUNT.1.8"
        } else {
            "ICOUNT.2.16"
        };
        assert_eq!(r.workload, want_workload, "workload is the outermost axis");
        assert_eq!(r.policy, want_policy, "policy is the middle axis");
        assert_eq!(r.engine, engines[i % 3], "engine is the innermost axis");
    }
    check("matrix_order", &results);
}

/// Zeroes the per-reason skip counters — the only `SimStats` fields allowed
/// to differ between the event-driven `run_cycles` drive mode (which skips
/// idle windows) and pure stepping (which never does). Returns their sum so
/// callers can additionally require the scheduler to have engaged.
fn normalize_skips(stats: &mut smtfetch::core::SimStats) -> u64 {
    let skipped = stats.skipped_cycles();
    stats.skip_mem_wait = 0;
    stats.skip_issue_wait = 0;
    stats.skip_ftq_wait = 0;
    stats.skip_policy_idle = 0;
    skipped
}

/// Same-seed equivalence contract for the allocation-free `step()` and the
/// event-driven scheduler: two identically-seeded simulators — one driven
/// through `run_cycles` (which jumps to the next interesting event whenever
/// no stage can act), one stepped cycle by cycle (which never does) —
/// produce `==`-equal `SimStats` (all integer counters, so equality is
/// exact) for every fetch engine (the trace cache included), both fetch
/// architectures, and every
/// fetch-policy kind. Only the four per-reason skip counters may differ
/// between the two drive modes; they are normalized away before comparing
/// and their sum separately required to be non-zero, so the fast path is
/// proven both *exercised* and *invisible*. Together with the snapshot
/// families above (which compare against the checked-in `tests/golden/*.txt`
/// bit-for-bit without re-blessing), this pins the optimized hot path to
/// the original semantics.
#[test]
fn optimized_step_matches_run_cycles_same_seed() {
    const CYCLES: u64 = 6_000;
    let mut total_skipped = 0;
    for engine in FetchEngineKind::all_with_trace_cache() {
        for policy in [
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(2, 8),
            FetchPolicy::round_robin(2, 8),
            FetchPolicy::br_count(2, 8),
            FetchPolicy::miss_count(2, 8),
        ] {
            let build = || {
                SimBuilder::new(Workload::mix2().programs(2004).expect("programs"))
                    .fetch_engine(engine)
                    .fetch_policy(policy)
                    .build()
                    .expect("valid configuration")
            };
            let mut a = build();
            let mut b = build();
            a.run_cycles(CYCLES);
            for _ in 0..CYCLES {
                b.step();
            }
            let mut fast = a.stats().clone();
            assert_eq!(b.stats().skipped_cycles(), 0, "step() must never skip");
            total_skipped += normalize_skips(&mut fast);
            assert_eq!(
                &fast,
                b.stats(),
                "{engine} × {policy}: same-seed runs diverged"
            );
        }
    }
    assert!(
        total_skipped > 0,
        "the scheduler never engaged across the matrix"
    );
}

/// The long-latency STALL/FLUSH policies (§5) idle a thread for the full
/// memory latency, which is where event-driven skipping earns its keep.
/// Drive the memory-bound workload under both policies and re-assert exact
/// equivalence, requiring a substantial share of the run to be skipped
/// under both (STALL gates fetch until the load returns; FLUSH drains the
/// queues and leaves whole-machine idle windows).
#[test]
fn fast_forward_matches_stepping_under_long_latency_policies() {
    const CYCLES: u64 = 12_000;
    for (policy, min_skip) in [
        (FetchPolicy::icount(1, 8).with_stall(), 0),
        (FetchPolicy::icount(2, 8).with_stall(), 0),
        (FetchPolicy::icount(1, 8).with_flush(), CYCLES / 10),
        (FetchPolicy::icount(2, 8).with_flush(), CYCLES / 10),
    ] {
        let build = || {
            SimBuilder::new(Workload::mem2().programs(2004).expect("programs"))
                .fetch_policy(policy)
                .build()
                .expect("valid configuration")
        };
        let mut a = build();
        let mut b = build();
        a.run_cycles(CYCLES);
        for _ in 0..CYCLES {
            b.step();
        }
        let mut fast = a.stats().clone();
        let skipped = normalize_skips(&mut fast);
        assert!(
            skipped >= min_skip,
            "{policy}: expected >= {min_skip} skipped cycles, got {skipped}"
        );
        assert_eq!(&fast, b.stats(), "{policy}: same-seed runs diverged");
    }
}

/// Splits `total` cycles into `chunks` near-equal pieces, front-loading the
/// remainder so lengths differ by at most one cycle.
fn chunk_lengths(total: u64, chunks: u64) -> impl Iterator<Item = u64> {
    (0..chunks).map(move |i| total / chunks + u64::from(i < total % chunks))
}

/// Runs `sim` for `total` cycles as `chunks` consecutive `run_cycles` calls,
/// then `tail` more cycles in one call.
fn run_in_chunks(mut sim: Simulator, total: u64, chunks: u64, tail: u64) -> SimStats {
    for len in chunk_lengths(total, chunks) {
        sim.run_cycles(len);
    }
    sim.run_cycles(tail).clone()
}

/// Chunked-execution contract over the Figure 5 matrix: every engine ×
/// `ICOUNT.{1,2}.8` cell, run as N ∈ {2, 3, 4, 5, 7, 8} consecutive
/// `run_cycles` chunks, gives statistics equal to the monolithic run — at
/// the end of the chunks and again after a shared tail, so state a chunk
/// boundary corrupted without touching the counters still shows.
#[test]
fn chunked_execution_matches_monolithic_for_figure5_matrix() {
    const CYCLES: u64 = 6_000;
    const TAIL: u64 = 500;
    let programs = Workload::ilp2().programs_shared(2004).expect("programs");
    for engine in FetchEngineKind::all() {
        for policy in [FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)] {
            let fresh = || {
                SimBuilder::new_shared(programs.clone())
                    .fetch_engine(engine)
                    .fetch_policy(policy)
                    .build()
                    .expect("valid configuration")
            };
            let mono = run_in_chunks(fresh(), CYCLES, 1, TAIL);
            for chunks in [2, 3, 4, 5, 7, 8] {
                assert_eq!(
                    run_in_chunks(fresh(), CYCLES, chunks, TAIL),
                    mono,
                    "{engine} × {policy} chunks={chunks}: stats diverged"
                );
            }
        }
    }
}

/// Chunk boundaries that land *inside* an event skip: the memory-bound
/// workload under STALL/FLUSH gates fetch for the 100-cycle memory latency,
/// so odd chunk counts over a non-round horizon are all but guaranteed to
/// cut skip windows mid-flight. The scheduler must clamp the skip at the
/// boundary and re-derive the identical classification (and stall charges)
/// on the next call, so chunked stats stay equal to the monolithic run.
#[test]
fn chunk_boundary_mid_skip_matches_monolithic() {
    const CYCLES: u64 = 9_001; // prime-ish horizon: boundaries avoid round cycles
    const TAIL: u64 = 500;
    let programs = Workload::mem2().programs_shared(2004).expect("programs");
    for policy in [
        FetchPolicy::icount(2, 8).with_stall(),
        FetchPolicy::icount(2, 8).with_flush(),
        FetchPolicy::round_robin(2, 8).with_stall(),
    ] {
        let fresh = || {
            SimBuilder::new_shared(programs.clone())
                .fetch_policy(policy)
                .build()
                .expect("valid configuration")
        };
        let mono = run_in_chunks(fresh(), CYCLES, 1, TAIL);
        assert!(
            mono.skipped_cycles() > 0,
            "{policy}: the scheduler never engaged, boundaries cannot land mid-skip"
        );
        for chunks in [2, 3, 4, 5, 7, 8] {
            assert_eq!(
                run_in_chunks(fresh(), CYCLES, chunks, TAIL),
                mono,
                "{policy} chunks={chunks}: stats diverged"
            );
        }
    }
}

/// The parallel `run_matrix` returns results byte-identical to the serial
/// reference: a plain loop of `run` over the same cells, in the documented
/// workload × policy × engine order. `RunResult` equality is bit-exact
/// (`f64 ==`), so this is the strongest possible check short of hashing.
#[test]
fn parallel_matches_serial_loop() {
    let workloads = [Workload::mix2(), Workload::ilp2()];
    let engines = FetchEngineKind::all();
    let policies = [FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)];
    let mut serial = Vec::new();
    for w in &workloads {
        for &p in &policies {
            for &e in &engines {
                serial.push(run(w, e, p, LEN));
            }
        }
    }
    assert_eq!(
        run_matrix(&workloads, &engines, &policies, LEN),
        serial,
        "parallel run_matrix diverged from the serial loop of run"
    );
}
