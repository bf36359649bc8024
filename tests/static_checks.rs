//! Repository checks run as ordinary tests, so `cargo test` enforces them
//! without extra CI plumbing:
//!
//! 1. `Cargo.lock` contains only workspace members (the zero-external-
//!    dependency policy, checked mechanically);
//! 2. the simulator core keeps its pipeline decomposition, and its stages
//!    reach the fetch engines only through `FrontEnd`'s methods;
//! 3. every configuration the experiment suite simulates passes the
//!    semantic validator with zero errors;
//! 4. `SimConfig` keeps exactly the knobs an experiment varies;
//! 5. the README's diagnostic-code table lists exactly the codes the
//!    program emits.
//!
//! The determinism and robustness rules themselves are clippy lints: the
//! `[workspace.lints]` table, the per-package `[lints]` tables and the
//! `clippy.toml` files (DESIGN.md §12).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use smtfetch::core::{FetchPolicy, SimConfig};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
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

/// The `FrontEnd` enum is the whole engine contract: no stage under
/// `pipeline/` matches on, or builds, one of its variants, so a new engine
/// hook goes through a `FrontEnd` method instead of an `if let` on one arm.
#[test]
fn pipeline_names_no_front_end_variant() {
    let dir = workspace_root().join("crates/core/src/pipeline");
    for entry in std::fs::read_dir(&dir).expect("read pipeline/") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read stage module");
        for (i, line) in text.lines().enumerate() {
            assert!(
                !line.contains("FrontEnd::"),
                "{}:{}: a pipeline stage names a `FrontEnd` variant: {}",
                path.display(),
                i + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn every_experiment_config_validates_clean() {
    // The experiment suite simulates the Table 3 baseline under the paper's
    // policy sweep (and STALL/FLUSH variants); each such configuration must
    // pass the validator with zero diagnostics.
    let mut policies = FetchPolicy::paper_sweep().to_vec();
    policies.push(FetchPolicy::icount(1, 8).with_stall());
    policies.push(FetchPolicy::icount(1, 8).with_flush());
    policies.push(FetchPolicy::round_robin(1, 8));
    policies.push(FetchPolicy::br_count(1, 8));
    policies.push(FetchPolicy::miss_count(1, 8));
    for policy in policies {
        let diags = SimConfig::hpca2004(policy).validate();
        assert!(diags.is_empty(), "{policy}: {diags:?}");
    }
}

/// Pins the configuration surface: the Table 3 machine is constants, and
/// `SimConfig` holds only the eight values an experiment varies (the four
/// fetch-policy fields and four front-end sizes). Both destructurings are
/// exhaustive, so a new knob fails to compile here until this pin, the
/// validator and the README's diagnostics table are updated on purpose.
#[test]
fn sim_config_knob_set_is_pinned() {
    let SimConfig {
        fetch_policy,
        fetch_buffer,
        ftq_depth,
        max_stream,
        max_ftb_block,
    } = SimConfig::default();
    let FetchPolicy {
        kind,
        threads_per_cycle,
        width,
        long_latency,
    } = fetch_policy;
    assert_eq!(
        format!("{kind}{long_latency}.{threads_per_cycle}.{width}"),
        "ICOUNT.1.8"
    );
    assert_eq!(
        (fetch_buffer, ftq_depth, max_stream, max_ftb_block),
        (32, 4, 64, 16)
    );
}

/// The diagnostic-code literals (`"E0004"`, …) in `src`'s code before its
/// `#[cfg(test)]` module, comments skipped.
fn code_literals(src: &str) -> impl Iterator<Item = String> + '_ {
    src.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| l.split('"').skip(1).step_by(2))
        .filter(|s| s.len() == 5 && s.starts_with("E0") && s[1..].parse::<u16>().is_ok())
        .map(str::to_string)
}

/// [`code_literals`] of every `.rs` file under `dir`, recursively.
fn emitted_codes(dir: &Path, codes: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            emitted_codes(&path, codes);
        } else if path.extension().is_some_and(|e| e == "rs") {
            codes.extend(code_literals(
                &std::fs::read_to_string(&path).expect("read"),
            ));
        }
    }
}

/// The README's diagnostic table and the codes the program emits agree in
/// both directions: every row not marked retired names a code some non-test
/// source emits, and every emitted code has such a row. Retiring a check
/// means marking its row, never deleting or renumbering it.
#[test]
fn diagnostic_codes_match_the_readme() {
    let root = workspace_root();
    let mut emitted = BTreeSet::new();
    emitted_codes(&root.join("crates"), &mut emitted);
    emitted_codes(&root.join("src"), &mut emitted);
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let live: BTreeSet<String> = readme
        .lines()
        .filter_map(|l| {
            let mut cells = l.strip_prefix("| ")?.split(" | ");
            let code = cells.next().filter(|c| c.starts_with("E0"))?;
            (!cells.next()?.starts_with("retired")).then(|| code.to_string())
        })
        .collect();
    assert!(!emitted.is_empty(), "no diagnostic code in crates/ or src/");
    assert_eq!(
        emitted, live,
        "emitted (left) vs README rows not retired (right)"
    );

    // The scan still bites: a code in a comment or a test module is not
    // emitted, one in library code is.
    let src = "// \"E0001\"\nlet d = \"E0002\";\n#[cfg(test)]\nlet t = \"E0003\";";
    assert_eq!(code_literals(src).collect::<Vec<_>>(), ["E0002"]);
}
