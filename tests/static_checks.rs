//! Repository checks run as ordinary tests, so `cargo test` enforces them
//! without extra CI plumbing:
//!
//! 1. `Cargo.lock` contains only workspace members (the zero-external-
//!    dependency policy, checked mechanically);
//! 2. the simulator core keeps its pipeline decomposition;
//! 3. every configuration the experiment suite simulates passes the
//!    semantic validator with zero errors.
//!
//! The determinism and robustness rules themselves are clippy lints: the
//! `[workspace.lints]` table, the per-package `[lints]` tables and the
//! `clippy.toml` files (DESIGN.md §12).

use smtfetch::core::{FetchPolicy, SimConfig};
use smtfetch::isa::MAX_THREADS;

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The lockfile lines that betray an external package. Registry and git
/// packages carry a `source = …` line; workspace members never do.
fn external_sources(lock: &str) -> Vec<&str> {
    lock.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("source ="))
        .collect()
}

/// The zero-external-dependency policy, checked against `Cargo.lock`.
#[test]
fn lockfile_contains_only_workspace_members() {
    let root = workspace_root();
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("read Cargo.lock");
    let ext = external_sources(&lock);
    assert!(ext.is_empty(), "external packages in Cargo.lock: {ext:?}");

    // One locked package per workspace member: the root plus `crates/*`.
    let members = 1 + std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().join("Cargo.toml").is_file())
        })
        .count();
    assert_eq!(lock.matches("[[package]]").count(), members, "{lock}");

    // The check still bites: a fabricated registry entry is rejected.
    let registry = r#"source = "registry+https://github.com/rust-lang/crates.io-index""#;
    let fabricated =
        format!("{lock}\n[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n{registry}\n");
    assert_eq!(external_sources(&fabricated), [registry]);
}

/// Pins the post-refactor decomposition of the simulator core: the cycle
/// loop lives in a slim composition root (`sim.rs`) that only sequences the
/// stage modules under `pipeline/`. A regrown monolith — new logic piling
/// into `sim.rs`, a stage module ballooning past 800 lines, or a
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

    let sim = std::fs::read_to_string(root.join("crates/core/src/sim.rs")).expect("read sim.rs");
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
            lines <= 800,
            "pipeline/{name} grew to {lines} lines (ceiling 800)"
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
