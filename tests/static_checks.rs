//! The repository's static-analysis gate, run as an ordinary test so
//! `cargo test` enforces it without extra CI plumbing:
//!
//! 1. the determinism linter (`smt-lint`) reports zero violations on the
//!    shipped tree, and still detects seeded violations of every enforced
//!    rule (no silent self-neutering);
//! 2. the escape ledger — every `lint:allow` site in the workspace — is
//!    pinned exactly: adding, moving or rewording an escape is a reviewed
//!    diff of this file, never a silent regression;
//! 3. `Cargo.lock` contains only workspace members (the zero-external-
//!    dependency policy, checked mechanically);
//! 4. every configuration the experiment suite simulates passes the
//!    semantic validator with zero errors.

use smt_lint::{
    check_deps, check_file, check_workspace, workspace_escapes, Rule, HOT_PATH_FILE,
    MODULE_SIZE_LIMIT, STATS_FILE, SWEEP_EXECUTOR,
};
use smtfetch::core::{FetchPolicy, SimConfig};
use smtfetch::isa::MAX_THREADS;

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let violations = check_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "smt-lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn linter_detects_seeded_violations() {
    // A HashMap in a simulation crate.
    let v = check_file(
        "crates/core/src/fake.rs",
        "use std::collections::HashMap;\npub fn f() { let _: HashMap<u32, u32>; }\n",
    );
    assert!(
        v.iter().any(|x| x.rule == Rule::NoHashCollections),
        "seeded HashMap not flagged: {v:?}"
    );

    // A banned collection smuggled in through a `use … as` rename.
    let v = check_file(
        "crates/core/src/fake.rs",
        "use std::collections::HashMap as Map;\npub fn f() { let _: Map<u32, u32>; }\n",
    );
    assert!(
        v.iter().any(|x| x.rule == Rule::NoUnorderedIteration),
        "seeded alias not flagged: {v:?}"
    );

    // Wall-clock time in a simulation crate, and in the experiment harness
    // (which is in CLOCK_CRATES so its results stay seed-pure).
    let seeded_clock = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let v = check_file("crates/mem/src/fake.rs", seeded_clock);
    assert!(v.iter().any(|x| x.rule == Rule::NoWallClock), "{v:?}");
    let v = check_file("crates/experiments/src/fake.rs", seeded_clock);
    assert!(v.iter().any(|x| x.rule == Rule::NoWallClock), "{v:?}");

    // An environment read in a simulation crate.
    let v = check_file(
        "crates/core/src/fake.rs",
        "pub fn f() -> bool { std::env::var_os(\"X\").is_some() }\n",
    );
    assert!(v.iter().any(|x| x.rule == Rule::NoEnvInCore), "{v:?}");

    // A raw threading primitive outside the audited sweep executor.
    let v = check_file(
        "crates/experiments/src/fake.rs",
        "pub fn f() { std::thread::spawn(|| {}); }\n",
    );
    assert!(
        v.iter()
            .any(|x| x.rule == Rule::NoNondeterministicThreading),
        "{v:?}"
    );

    // A truncating cast in the stats module.
    let v = check_file(STATS_FILE, "pub fn f(x: u64) -> u32 { x as u32 }\n");
    assert!(v.iter().any(|x| x.rule == Rule::NoLossyCast), "{v:?}");

    // A panic in library code without an allow escape.
    let v = check_file(
        "crates/bpred/src/fake.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert!(v.iter().any(|x| x.rule == Rule::NoPanic), "{v:?}");

    // A crate root that forgot to deny unsafe code.
    let v = check_file("crates/core/src/lib.rs", "pub fn f() {}\n");
    assert!(v.iter().any(|x| x.rule == Rule::DenyUnsafe), "{v:?}");

    // An allocation token in the pipeline hot path (advisory rule) —
    // both in the composition root and in a stage module.
    let seeded = "pub fn step(v: &[u32]) { let _scratch: Vec<u32> = v.to_vec().clone(); }\n";
    let v = check_file(HOT_PATH_FILE, seeded);
    assert!(v.iter().any(|x| x.rule == Rule::NoAllocInStep), "{v:?}");
    let v = check_file("crates/core/src/pipeline/fetch.rs", seeded);
    assert!(v.iter().any(|x| x.rule == Rule::NoAllocInStep), "{v:?}");

    // An oversized core module (advisory rule).
    let v = check_file(
        "crates/core/src/fake.rs",
        &"pub fn f() {}\n".repeat(MODULE_SIZE_LIMIT + 1),
    );
    assert!(v.iter().any(|x| x.rule == Rule::ModuleSize), "{v:?}");
}

/// The machine-checked escape ledger: every `lint:allow` / `lint:allow-file`
/// site in the workspace, pinned as (path, rule, file-level, justification)
/// in (path, line) order. A new escape, a moved escape, or a reworded
/// justification fails here and must be argued past this list instead of
/// slipping in silently. Line numbers are deliberately not pinned so that
/// unrelated edits above an escape don't churn this test; the count per
/// (path, rule) and the justification text are what the audit reviews.
///
/// Notable invariants the ledger encodes:
/// * the only `no-wall-clock` escape is the sweep executor's harness
///   timer;
/// * the only `no-env-in-core` escape is commit's debug-only stderr tracing;
/// * every `no-nondeterministic-threading` escape is inside the sweep
///   executor — the only place simulation work runs in parallel;
/// * every hot-path `no-alloc-in-step` escape is construction-time work:
///   the two copies in `Simulator::new` and the two column allocations in
///   `Window::presize`.
#[test]
fn escape_ledger_is_pinned() {
    let ledger = workspace_escapes(&workspace_root()).expect("escape scan");

    for e in &ledger {
        assert!(
            e.is_well_formed(),
            "malformed escape at {}:{} — rule {:?}, justification {:?}",
            e.path,
            e.line,
            e.rule_name,
            e.justification
        );
    }

    let pinned: &[(&str, &str, bool, &str)] = &[
        (
            "crates/bpred/src/assoc.rs",
            "no-panic",
            false,
            "ways.len() == cap > 0, so the set is never empty",
        ),
        (
            "crates/bpred/src/btb.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/bpred/src/counters.rs",
            "no-lossy-cast",
            false,
            "masked to two bits, cannot truncate",
        ),
        (
            "crates/bpred/src/counters.rs",
            "no-lossy-cast",
            false,
            "masked to two bits, cannot truncate",
        ),
        (
            "crates/bpred/src/ftb.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/bpred/src/gshare.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/bpred/src/gskew.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/bpred/src/gskew.rs",
            "no-lossy-cast",
            false,
            "bank < BANKS = 3, fits any width",
        ),
        (
            "crates/bpred/src/ras.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/bpred/src/stream.rs",
            "no-lossy-cast",
            false,
            "MAX_DEPTH = 16 fits u8",
        ),
        (
            "crates/bpred/src/stream.rs",
            "no-lossy-cast",
            false,
            "deliberate 32-bit path compression",
        ),
        (
            "crates/bpred/src/stream.rs",
            "no-lossy-cast",
            false,
            "MAX_DEPTH = 16 fits u32",
        ),
        (
            "crates/bpred/src/stream.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/bpred/src/tracecache.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/core/src/config.rs",
            "no-lossy-cast",
            false,
            "threads ≤ MAX_THREADS = 8",
        ),
        (
            "crates/core/src/frontend/gshare_btb.rs",
            "no-panic",
            false,
            "update only sees branch-class instructions",
        ),
        (
            "crates/core/src/frontend/gskew_ftb.rs",
            "no-panic",
            false,
            "update only sees branch-class instructions",
        ),
        (
            "crates/core/src/frontend/mod.rs",
            "no-panic",
            false,
            "the program scan returns only branches",
        ),
        (
            "crates/core/src/frontend/mod.rs",
            "no-lossy-cast",
            false,
            "dist < the BTB block-scan cap",
        ),
        (
            "crates/core/src/frontend/mod.rs",
            "no-lossy-cast",
            false,
            "max is the per-block fetch budget ≤ 16",
        ),
        (
            "crates/core/src/frontend/mod.rs",
            "no-panic",
            false,
            "the registry is compiled-in and total over FetchEngineKind",
        ),
        (
            "crates/core/src/frontend/mod.rs",
            "no-panic",
            false,
            "documented-panic preset; Table 3 geometry is valid",
        ),
        (
            "crates/core/src/frontend/trace_cache.rs",
            "no-panic",
            false,
            "update only sees branch-class instructions",
        ),
        (
            "crates/core/src/frontend/trace_cache.rs",
            "no-panic",
            false,
            "fill buffer checked non-empty before sealing",
        ),
        (
            "crates/core/src/pipeline/commit.rs",
            "no-panic",
            true,
            "stage-protocol invariants; violations must abort the simulation",
        ),
        (
            "crates/core/src/pipeline/commit.rs",
            "no-env-in-core",
            false,
            "debug-only stderr tracing; results never see it",
        ),
        (
            "crates/core/src/pipeline/decode_rename.rs",
            "no-panic",
            true,
            "stage-protocol invariants; violations must abort the simulation",
        ),
        (
            "crates/core/src/pipeline/fetch.rs",
            "no-panic",
            true,
            "stage-protocol invariants; violations must abort the simulation",
        ),
        (
            "crates/core/src/pipeline/issue.rs",
            "no-panic",
            true,
            "stage-protocol invariants; violations must abort the simulation",
        ),
        (
            "crates/core/src/pipeline/mod.rs",
            "no-panic",
            true,
            "stage-protocol invariants; violations must abort the simulation",
        ),
        (
            "crates/core/src/pipeline/recovery.rs",
            "no-panic",
            true,
            "stage-protocol invariants; violations must abort the simulation",
        ),
        (
            "crates/core/src/sim.rs",
            "no-panic",
            true,
            "construction-time invariants; inputs are validated first",
        ),
        (
            "crates/core/src/sim.rs",
            "no-alloc-in-step",
            false,
            "seeded RAS template copy, once per simulator construction",
        ),
        (
            "crates/core/src/sim.rs",
            "no-alloc-in-step",
            false,
            "memory-config copy, once per simulator construction",
        ),
        (
            "crates/core/src/thread.rs",
            "no-panic",
            false,
            "the fetch stage checked the FTQ head exists",
        ),
        (
            "crates/core/src/window.rs",
            "no-alloc-in-step",
            false,
            "column allocation, once per simulator construction",
        ),
        (
            "crates/core/src/window.rs",
            "no-alloc-in-step",
            false,
            "column allocation, once per simulator construction",
        ),
        (
            "crates/experiments/src/figures.rs",
            "no-panic",
            false,
            "compiled-in profile names are valid",
        ),
        (
            "crates/experiments/src/figures.rs",
            "no-panic",
            false,
            "single-benchmark workloads always build",
        ),
        (
            "crates/experiments/src/figures.rs",
            "no-panic",
            false,
            "compiled-in profile names are valid",
        ),
        (
            "crates/experiments/src/runner.rs",
            "no-panic",
            false,
            "validated config with 1..=8 threads",
        ),
        (
            "crates/experiments/src/runner.rs",
            "no-panic",
            false,
            "table 2 workloads are compiled-in and always build",
        ),
        (
            "crates/experiments/src/sweep.rs",
            "no-nondeterministic-threading",
            false,
            "worker-count default only; results are worker-count-invariant",
        ),
        (
            "crates/experiments/src/sweep.rs",
            "no-nondeterministic-threading",
            false,
            "the audited executor; index-claimed cells, order-independent merge",
        ),
        (
            "crates/experiments/src/sweep.rs",
            "no-wall-clock",
            false,
            "harness timer feeding CellStat observability; results never see it",
        ),
        (
            "crates/experiments/src/sweep.rs",
            "no-panic",
            false,
            "the atomic counter claims every cell index exactly once",
        ),
        (
            "crates/experiments/src/sweep.rs",
            "no-panic",
            false,
            "the atomic counter claims every cell index exactly once",
        ),
        (
            "crates/mem/src/cache.rs",
            "no-panic",
            false,
            "ways is non-empty, so min_by_key always yields a victim",
        ),
        (
            "crates/mem/src/hierarchy.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/mem/src/tlb.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/mem/src/tlb.rs",
            "no-panic",
            false,
            "preset geometry is valid by construction",
        ),
        (
            "crates/mem/src/tlb.rs",
            "no-panic",
            false,
            "entries checked non-empty before LRU eviction",
        ),
        (
            "crates/workloads/src/builder.rs",
            "no-lossy-cast",
            false,
            "bounded by min(24)",
        ),
        (
            "crates/workloads/src/builder.rs",
            "no-lossy-cast",
            false,
            "region ≤ 16 KB, so region/8 fits u32",
        ),
        (
            "crates/workloads/src/builder.rs",
            "no-lossy-cast",
            false,
            "region ≤ 16 KB, so region/8 fits u32",
        ),
        (
            "crates/workloads/src/builder.rs",
            "no-lossy-cast",
            false,
            "p_taken ∈ [0, 1], so at most 1000",
        ),
        (
            "crates/workloads/src/builder.rs",
            "no-lossy-cast",
            false,
            "remainder < dep_chains ≤ 24",
        ),
        (
            "crates/workloads/src/rng.rs",
            "no-lossy-cast",
            false,
            "draw < hi, asserted ≤ 2^32",
        ),
        (
            "crates/workloads/src/rng.rs",
            "no-lossy-cast",
            false,
            "draw < hi, asserted ≤ 2^16",
        ),
        (
            "crates/workloads/src/walker.rs",
            "no-panic",
            true,
            "the walker is the oracle; contract violations are simulator bugs and must abort",
        ),
        (
            "crates/workloads/src/walker.rs",
            "no-lossy-cast",
            false,
            "k < run, which is capped at the per-block fetch width",
        ),
        (
            "crates/workloads/src/workloads.rs",
            "no-panic",
            false,
            "table 2 names are compiled-in and valid",
        ),
        (
            "crates/workloads/src/workloads.rs",
            "no-panic",
            false,
            "a poisoned program cache is unrecoverable",
        ),
    ];

    let got: Vec<(&str, &str, bool, &str)> = ledger
        .iter()
        .map(|e| {
            (
                e.path.as_str(),
                e.rule_name.as_str(),
                e.file_level,
                e.justification.as_str(),
            )
        })
        .collect();
    assert_eq!(
        got, pinned,
        "the escape ledger changed — audit the diff and update the pin \
         (run `cargo run -p smt-lint -- --escapes` to see the live ledger)"
    );

    // Restate the confinement invariants directly, so a failure names them.
    for e in &ledger {
        if e.rule == Some(Rule::NoWallClock) || e.rule == Some(Rule::NoNondeterministicThreading) {
            assert!(
                e.path == SWEEP_EXECUTOR,
                "clock/threading escape at {} — confined to the sweep executor",
                e.path
            );
        }
    }
}

/// The zero-external-dependency policy, checked against `Cargo.lock`: every
/// locked package must be a workspace member. (PR 1 removed the last
/// external dev-dependency; this keeps the lockfile honest mechanically.)
#[test]
fn lockfile_contains_only_workspace_members() {
    let v = check_deps(&workspace_root()).expect("read Cargo.lock");
    assert!(v.is_empty(), "external packages in Cargo.lock: {v:?}");
    // And the check itself still bites: a fabricated lockfile entry fails.
    assert!(
        workspace_root().join("Cargo.lock").is_file(),
        "Cargo.lock missing — the dep-allowlist check would be vacuous"
    );
}

/// Pins the post-refactor decomposition of the simulator core: the cycle
/// loop lives in a slim composition root (`sim.rs`) that only sequences the
/// stage modules under `pipeline/`. A regrown monolith — new logic piling
/// into `sim.rs`, a stage module ballooning past the advisory ceiling, or a
/// stage file appearing/disappearing — fails here and must update this pin
/// deliberately.
#[test]
fn core_pipeline_decomposition_is_pinned() {
    let root = workspace_root();

    let mut stages: Vec<String> = std::fs::read_dir(root.join("crates/core/src/pipeline"))
        .expect("read pipeline/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    stages.sort();
    assert_eq!(
        stages,
        [
            "commit.rs",
            "decode_rename.rs",
            "fetch.rs",
            "issue.rs",
            "mod.rs",
            "recovery.rs",
            "sched.rs",
        ],
        "pipeline stage set changed — update the pin and DESIGN.md §10"
    );

    let sim = std::fs::read_to_string(root.join(HOT_PATH_FILE)).expect("read sim.rs");
    let sim_lines = sim.lines().count();
    assert!(
        sim_lines < 500,
        "sim.rs grew to {sim_lines} lines — stage logic belongs in pipeline/"
    );

    for name in &stages {
        let text = std::fs::read_to_string(root.join("crates/core/src/pipeline").join(name))
            .expect("read stage module");
        let lines = text.lines().count();
        assert!(
            lines <= MODULE_SIZE_LIMIT,
            "pipeline/{name} grew to {lines} lines (ceiling {MODULE_SIZE_LIMIT})"
        );
    }
}

#[test]
fn every_experiment_config_validates_clean() {
    // The experiment suite simulates the Table 3 baseline under the paper's
    // policy sweep (and STALL/FLUSH variants) for 1..=8 threads; each such
    // configuration must pass the validator with zero diagnostics.
    let mut policies = FetchPolicy::paper_sweep().to_vec();
    policies.push(FetchPolicy::icount(1, 8).with_stall());
    policies.push(FetchPolicy::icount(1, 8).with_flush());
    policies.push(FetchPolicy::round_robin(1, 8));
    policies.push(FetchPolicy::br_count(1, 8));
    policies.push(FetchPolicy::miss_count(1, 8));
    for policy in policies {
        let cfg = SimConfig::hpca2004(policy);
        for threads in 1..=MAX_THREADS {
            let diags = cfg.validate_for_threads(threads);
            assert!(diags.is_empty(), "{policy} × {threads} threads: {diags:?}");
        }
    }
}
