//! # smt-lint — token-level determinism and robustness linter
//!
//! A zero-dependency static analyzer enforcing the smtfetch workspace's
//! invariants. Since v2 every rule runs as a pass over the token stream of
//! the in-tree [`lexer`] (identifiers, literals including raw strings,
//! nested block comments, punctuation — all with exact spans), so a banned
//! token inside a string literal, raw string, or comment can never fire a
//! rule: the false-positive class of line-regex scanners is eliminated by
//! construction, not by escape hatches.
//!
//! ## Rule catalog
//!
//! Enforced (exit code 1, `cargo test` gate):
//!
//! * **`no-hash-collections`** — `HashMap`/`HashSet` are banned everywhere
//!   (iteration order is nondeterministic; seeded runs must be
//!   bit-reproducible). Use `BTreeMap`/`BTreeSet`/`Vec`.
//! * **`no-unordered-iteration`** — re-introductions of the banned
//!   collections through `use … as` renames or `type` aliases are tracked
//!   per file (to a fixpoint, so aliases of aliases are caught) and every
//!   occurrence of the alias is flagged.
//! * **`no-wall-clock`** — `SystemTime::now`, `Instant::now` and
//!   `thread_rng` are banned in the simulation crates and the experiment
//!   harness ([`CLOCK_CRATES`]): all time comes from the simulated clock,
//!   all randomness from the seeded workload RNG stream. The audited
//!   exception is the sweep executor's per-cell harness timer.
//! * **`no-env-in-core`** — `std::env` reads are banned in the simulation
//!   crates ([`SIM_CRATES`]): config structs are the only legal input, so
//!   a result is a function of (config, seed, code version) and nothing
//!   else.
//! * **`no-nondeterministic-threading`** — raw `std::thread` primitives
//!   (`spawn`, `scope`, `Builder`, `current`, `ThreadId`) and
//!   `available_parallelism` are banned outside the audited sweep executor
//!   ([`SWEEP_EXECUTOR`]); all simulation parallelism goes through the
//!   executor so parallel == serial stays provable.
//!   (The simulator's own `smt_isa::ThreadId` — a hardware context index —
//!   is unaffected: only the `thread::`-qualified path is matched.)
//! * **`no-lossy-cast`** — `as` casts to integer types narrower than 64
//!   bits are banned workspace-wide: a silent truncation anywhere — stats,
//!   predictor indexing, serialization — corrupts results without a
//!   diagnostic. Use `try_into`/`try_from` or carry an audited escape
//!   arguing why the value fits.
//! * **`no-panic`** — `.unwrap()`, `.expect(…)` and `panic!` are banned in
//!   library code outside tests; fallible constructors return
//!   `Result<_, Diagnostic>`. (`assert!` of internal invariants is allowed.)
//! * **`deny-unsafe`** — every crate root must carry
//!   `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]`.
//! * **`dep-allowlist`** — every package in `Cargo.lock` must be a
//!   workspace member (the PR 1 zero-external-dependency discipline,
//!   enforced mechanically; see [`check_deps`]).
//!
//! Advisory (printed by the CLI, never fail it):
//!
//! * **`no-alloc-in-step`** — heap-allocating tokens flagged in the
//!   pipeline hot path (see [`is_hot_path`]); the allocation-free property
//!   itself is *enforced* at runtime by the counting-allocator gate in
//!   `tests/alloc_gate.rs`, the lint is the early line-precise pointer.
//! * **`module-size`** — modules under `crates/core/src` with more than
//!   [`MODULE_SIZE_LIMIT`] non-test lines; keeps the simulator core
//!   decomposed.
//!
//! ## Escapes and the machine-checked ledger
//!
//! The escape hatch for the rare deliberate exception:
//!
//! * `// lint:allow(<rule>): <justification>` on the offending line or the
//!   line above;
//! * `// lint:allow-file(<rule>): <justification>` once per file to waive a
//!   rule for the whole file.
//!
//! Markers are recognised only inside ordinary (non-doc) comments — a
//! marker quoted in a doc comment or a string literal is prose, not an
//! escape. Every marker must name a known rule and carry a justification;
//! `smt-lint --escapes` (add `--json` for machines) emits the full ledger
//! (file, line, rule, justification), and `tests/static_checks.rs` pins the
//! exact ledger so any new escape is a reviewed diff, never a silent
//! regression.
//!
//! Run the CLI with `cargo run -p smt-lint` (exit code 1 on any enforced
//! violation or malformed escape, 2 on scan failure), or use
//! [`check_workspace`] / [`check_file`] / [`workspace_escapes`] from tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;

mod deps;
mod escapes;

pub use deps::check_deps;
pub use escapes::{collect_escapes, workspace_escapes, Escape};

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Token, TokenKind};

/// Crates whose behaviour must be a pure function of the seed: wall-clock
/// reads, ambient randomness and environment reads are banned here.
pub const SIM_CRATES: [&str; 5] = ["isa", "workloads", "bpred", "mem", "core"];

/// Crates subject to the `no-wall-clock` rule: the simulation crates plus
/// the experiment harness, whose results must also be pure functions of the
/// seed. (The sweep executor's per-cell harness timer is the audited
/// `lint:allow(no-wall-clock)` exception; timing otherwise lives only in
/// `smt-bench`.)
pub const CLOCK_CRATES: [&str; 6] = ["isa", "workloads", "bpred", "mem", "core", "experiments"];

/// The cycle-loop composition root, subject to the `no-alloc-in-step` rule
/// together with every pipeline stage module (see [`is_hot_path`]).
pub const HOT_PATH_FILE: &str = "crates/core/src/sim.rs";

/// Directory prefix of the pipeline stage modules, all of which are in the
/// steady-state hot path.
pub const HOT_PATH_DIR: &str = "crates/core/src/pipeline/";

/// The workload instruction generator, called by the fetch stage every
/// delivered instruction (and in bulk via `Walker::next_block`) — as hot as
/// the stages themselves.
pub const HOT_PATH_WALKER: &str = "crates/workloads/src/walker.rs";

/// The structure-of-arrays in-flight window, scanned by issue, commit and
/// squash every cycle and written by fetch every delivered instruction —
/// the data structure the stage loops spend their time in.
pub const HOT_PATH_WINDOW: &str = "crates/core/src/window.rs";

/// The statistics module — historically the seed scope of `no-lossy-cast`
/// (now workspace-wide), still named separately as the path where a silent
/// integer truncation would most directly corrupt reported results.
pub const STATS_FILE: &str = "crates/core/src/metrics.rs";

/// Directory whose modules are subject to the advisory `module-size` rule.
pub const MODULE_SIZE_DIR: &str = "crates/core/src/";

/// Advisory ceiling on non-test lines per module under [`MODULE_SIZE_DIR`].
pub const MODULE_SIZE_LIMIT: usize = 800;

/// The audited parallel executor: the only file allowed to touch raw
/// `std::thread` primitives (each use carries a line-level, ledger-pinned
/// escape).
pub const SWEEP_EXECUTOR: &str = "crates/experiments/src/sweep.rs";

/// Whether `path` is in the pipeline hot path whose steady-state cycle loop
/// must not allocate: the composition root (`sim.rs`), every stage module
/// under `crates/core/src/pipeline/`, the structure-of-arrays window the
/// stages scan, and the workload walker that fetch drives once per
/// delivered instruction.
pub fn is_hot_path(path: &str) -> bool {
    path == HOT_PATH_FILE
        || path == HOT_PATH_WALKER
        || path == HOT_PATH_WINDOW
        || path.starts_with(HOT_PATH_DIR)
}

/// Whether `path` is in scope of the `no-lossy-cast` rule: all workspace
/// library source (the same scope as `no-panic` — every `crates/*/src/**`
/// file plus the facade, excluding binaries, benches, tests and the lint
/// crate itself, whose token tables must name the narrow types).
pub fn is_lossy_cast_scope(path: &str) -> bool {
    is_library_source(path)
}

/// The lint rules, as stable machine-readable names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` banned (nondeterministic iteration order).
    NoHashCollections,
    /// `SystemTime::now`/`Instant::now`/`thread_rng` banned in sim crates.
    NoWallClock,
    /// `.unwrap()`/`.expect(`/`panic!` banned in library code outside tests.
    NoPanic,
    /// Crate roots must carry `#![forbid(unsafe_code)]` (or `deny`).
    DenyUnsafe,
    /// Heap-allocating tokens flagged in the pipeline hot path (advisory).
    NoAllocInStep,
    /// Core modules above the non-test line ceiling (advisory).
    ModuleSize,
    /// `std::env` reads banned in sim crates (config is the only input).
    NoEnvInCore,
    /// Aliases of the banned unordered collections tracked and flagged.
    NoUnorderedIteration,
    /// Narrowing `as` casts banned workspace-wide.
    NoLossyCast,
    /// Raw `std::thread` primitives banned outside the sweep executor.
    NoNondeterministicThreading,
    /// `Cargo.lock` packages must all be workspace members.
    DepAllowlist,
}

impl Rule {
    /// Every rule, in declaration (= severity-sort) order.
    pub const ALL: [Rule; 11] = [
        Rule::NoHashCollections,
        Rule::NoWallClock,
        Rule::NoPanic,
        Rule::DenyUnsafe,
        Rule::NoAllocInStep,
        Rule::ModuleSize,
        Rule::NoEnvInCore,
        Rule::NoUnorderedIteration,
        Rule::NoLossyCast,
        Rule::NoNondeterministicThreading,
        Rule::DepAllowlist,
    ];

    /// The rule's name, as used in `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoHashCollections => "no-hash-collections",
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoPanic => "no-panic",
            Rule::DenyUnsafe => "deny-unsafe",
            Rule::NoAllocInStep => "no-alloc-in-step",
            Rule::ModuleSize => "module-size",
            Rule::NoEnvInCore => "no-env-in-core",
            Rule::NoUnorderedIteration => "no-unordered-iteration",
            Rule::NoLossyCast => "no-lossy-cast",
            Rule::NoNondeterministicThreading => "no-nondeterministic-threading",
            Rule::DepAllowlist => "dep-allowlist",
        }
    }

    /// Parses a rule from its stable name (as written in `lint:allow(...)`).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Whether the rule is advisory: printed by the CLI, but not counted
    /// toward its failure exit code. (The allocation-free property itself is
    /// *enforced* by the counting-allocator test; the lint is an early,
    /// line-precise pointer to the likely culprit.)
    pub fn is_advisory(self) -> bool {
        matches!(self, Rule::NoAllocInStep | Rule::ModuleSize)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The offending token or a short description.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.what
        )
    }
}

/// Which crate (by directory name) a workspace-relative path belongs to, if
/// it is under `crates/<name>/`.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// Whether `path` contains a path segment equal to `seg`.
fn has_segment(path: &str, seg: &str) -> bool {
    path.split('/').any(|s| s == seg)
}

/// Whether `path` is library source subject to the `no-panic` rule:
/// `crates/<c>/src/**` or the workspace facade `src/lib.rs`, excluding
/// binaries, benches, examples and the linter itself.
fn is_library_source(path: &str) -> bool {
    if has_segment(path, "bin")
        || has_segment(path, "tests")
        || has_segment(path, "benches")
        || has_segment(path, "examples")
        || path.ends_with("/main.rs")
        || path == "src/main.rs"
    {
        return false;
    }
    match crate_of(path) {
        Some("lint") => false,
        Some(_) => has_segment(path, "src"),
        None => path == "src/lib.rs",
    }
}

/// Whether `path` is a crate root that must declare `unsafe_code` denial.
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs"
        || (path.starts_with("crates/")
            && path.ends_with("/src/lib.rs")
            && path.matches('/').count() == 3)
}

/// One code token (comments and whitespace filtered out), borrowing its
/// text from the source: the stream the rule passes match against.
#[derive(Clone, Copy)]
struct CodeTok<'a> {
    kind: TokenKind,
    text: &'a str,
    line: usize,
}

fn code_tokens<'a>(src: &'a str, toks: &[Token]) -> Vec<CodeTok<'a>> {
    toks.iter()
        .filter(|t| t.kind.is_code())
        .map(|t| CodeTok {
            kind: t.kind,
            text: t.text(src),
            line: t.line,
        })
        .collect()
}

/// Whether the code tokens starting at `i` spell out `pat` exactly.
/// Multi-character operators are written as consecutive single-character
/// tokens (`::` is `":", ":"`), matching the lexer's punctuation model.
fn seq(code: &[CodeTok<'_>], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| code.get(i + k).is_some_and(|t| t.text == *p))
}

/// Whether any position in the stream spells out `pat`.
fn seq_anywhere(code: &[CodeTok<'_>], pat: &[&str]) -> bool {
    (0..code.len()).any(|i| seq(code, i, pat))
}

/// Per-line flags marking `#[cfg(test)]`-gated regions (modules or items),
/// found by brace counting on the code-token stream. Index 0 is unused;
/// lines are 1-based.
fn test_region_flags(code: &[CodeTok<'_>], nlines: usize) -> Vec<bool> {
    let mut flags = vec![false; nlines + 2];
    let mut i = 0;
    while i < code.len() {
        if !seq(code, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        let mut end_line = start_line;
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i + 7;
        while j < code.len() {
            let t = &code[j];
            end_line = t.line;
            match t.text {
                "{" => {
                    depth += 1;
                    opened = true;
                }
                "}" => depth -= 1,
                ";" if !opened && depth == 0 => opened = true, // braceless item
                _ => {}
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        flags[start_line..=end_line.min(nlines)]
            .iter_mut()
            .for_each(|f| *f = true);
        i = j + 1;
    }
    flags
}

/// Collects the per-file alias set of the banned unordered collections:
/// names introduced by `use … HashMap as X` renames or `type X = …HashMap…;`
/// aliases, iterated to a fixpoint so aliases of aliases are caught too.
/// The base names themselves are excluded (they are `no-hash-collections`'
/// business).
fn unordered_aliases(code: &[CodeTok<'_>]) -> BTreeSet<String> {
    let mut banned: BTreeSet<String> = ["HashMap", "HashSet"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    loop {
        let mut grew = false;
        for i in 0..code.len() {
            let t = &code[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            // `<banned> as <alias>` — the rename form, inside `use` lists or
            // anywhere else someone smuggles it.
            if banned.contains(t.text)
                && code.get(i + 1).is_some_and(|n| n.text == "as")
                && code.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                grew |= banned.insert(code[i + 2].text.to_string());
            }
            // `type <alias> … = <rhs>;` where the RHS names a banned type.
            if t.text == "type" && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
                let alias = code[i + 1].text;
                let mut hit = false;
                let mut saw_eq = false;
                let mut j = i + 2;
                while let Some(n) = code.get(j) {
                    match n.text {
                        ";" => break,
                        "=" => saw_eq = true,
                        _ if saw_eq && n.kind == TokenKind::Ident && banned.contains(n.text) => {
                            hit = true
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if hit {
                    grew |= banned.insert(alias.to_string());
                }
            }
        }
        if !grew {
            break;
        }
    }
    banned.remove("HashMap");
    banned.remove("HashSet");
    banned
}

/// Integer types narrower than 64 bits: the `no-lossy-cast` targets. A cast
/// *to* one of these can silently truncate a wider counter; widening casts
/// (`as u64`, `as f64`) and pointer-size casts (`as usize`, lossless from
/// `u32`/`u64` on the 64-bit targets we support) are out of scope.
const NARROW_INT_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// `thread::`-qualified primitives banned by `no-nondeterministic-threading`.
const THREAD_PRIMITIVES: [&str; 5] = ["spawn", "scope", "Builder", "current", "ThreadId"];

/// Checks one file's contents against every rule applicable to its path.
///
/// `path` must be workspace-relative with forward slashes
/// (e.g. `crates/core/src/sim.rs`). All matching happens on the lexed token
/// stream: strings, raw strings and comments can never trigger a rule.
pub fn check_file(path: &str, contents: &str) -> Vec<Violation> {
    let toks = lex(contents);
    let escape_list = escapes::collect_from_tokens(path, contents, &toks);
    let code = code_tokens(contents, &toks);
    let nlines = contents.lines().count();

    let file_allows = |rule: Rule| {
        escape_list
            .iter()
            .any(|e| e.file_level && e.rule == Some(rule))
    };
    // A line-level marker covers its own line and the next one (marker
    // above the offending line); file-level markers cover everything.
    let allowed = |rule: Rule, line: usize| {
        escape_list
            .iter()
            .any(|e| e.rule == Some(rule) && (e.file_level || e.line == line || e.line + 1 == line))
    };

    let mut violations: Vec<Violation> = Vec::new();

    // deny-unsafe: whole-file property of crate roots, matched as the token
    // sequence of the inner attribute (a doc-comment mention is invisible).
    if is_crate_root(path)
        && !file_allows(Rule::DenyUnsafe)
        && !seq_anywhere(
            &code,
            &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
        )
        && !seq_anywhere(
            &code,
            &["#", "!", "[", "deny", "(", "unsafe_code", ")", "]"],
        )
    {
        violations.push(Violation {
            rule: Rule::DenyUnsafe,
            path: path.to_string(),
            line: 0,
            what: "crate root lacks #![forbid(unsafe_code)] (or deny)".to_string(),
        });
    }

    let in_lint_crate = crate_of(path) == Some("lint");
    let hash_applies = !in_lint_crate && !file_allows(Rule::NoHashCollections);
    let unordered_applies = !in_lint_crate && !file_allows(Rule::NoUnorderedIteration);
    let clock_applies = crate_of(path).is_some_and(|c| CLOCK_CRATES.contains(&c))
        && !file_allows(Rule::NoWallClock);
    let panic_applies = is_library_source(path) && !file_allows(Rule::NoPanic);
    let alloc_applies = is_hot_path(path) && !file_allows(Rule::NoAllocInStep);
    let env_applies =
        crate_of(path).is_some_and(|c| SIM_CRATES.contains(&c)) && !file_allows(Rule::NoEnvInCore);
    let thread_applies = !in_lint_crate && !file_allows(Rule::NoNondeterministicThreading);
    let lossy_applies = is_lossy_cast_scope(path) && !file_allows(Rule::NoLossyCast);

    // module-size: whole-file advisory keeping the simulator core
    // decomposed. Test modules don't count — they are co-located by
    // convention and don't add reader burden to the library code.
    if path.starts_with(MODULE_SIZE_DIR) && !file_allows(Rule::ModuleSize) {
        let flags = test_region_flags(&code, nlines);
        let non_test = (1..=nlines).filter(|&l| !flags[l]).count();
        if non_test > MODULE_SIZE_LIMIT {
            violations.push(Violation {
                rule: Rule::ModuleSize,
                path: path.to_string(),
                line: 0,
                what: format!(
                    "{non_test} non-test lines (advisory ceiling {MODULE_SIZE_LIMIT}) — consider splitting the module"
                ),
            });
        }
    }

    let any_token_pass = hash_applies
        || unordered_applies
        || clock_applies
        || panic_applies
        || alloc_applies
        || env_applies
        || thread_applies
        || lossy_applies;
    if !any_token_pass {
        violations.sort_by(|a, b| (a.line, a.rule, &a.what).cmp(&(b.line, b.rule, &b.what)));
        return violations;
    }

    let test_flags = test_region_flags(&code, nlines);
    let in_test = |line: usize| test_flags.get(line).copied().unwrap_or(false);
    let aliases = if unordered_applies {
        unordered_aliases(&code)
    } else {
        BTreeSet::new()
    };

    let mut push = |rule: Rule, line: usize, what: String| {
        if !allowed(rule, line) {
            violations.push(Violation {
                rule,
                path: path.to_string(),
                line,
                what,
            });
        }
    };

    for i in 0..code.len() {
        let t = &code[i];
        if hash_applies
            && t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            push(Rule::NoHashCollections, t.line, t.text.to_string());
        }
        if unordered_applies && t.kind == TokenKind::Ident && aliases.contains(t.text) {
            push(
                Rule::NoUnorderedIteration,
                t.line,
                format!("{} (alias of a banned unordered collection)", t.text),
            );
        }
        if clock_applies {
            if seq(&code, i, &["SystemTime", ":", ":", "now"]) {
                push(Rule::NoWallClock, t.line, "SystemTime::now".to_string());
            }
            if seq(&code, i, &["Instant", ":", ":", "now"]) {
                push(Rule::NoWallClock, t.line, "Instant::now".to_string());
            }
            if t.kind == TokenKind::Ident && t.text == "thread_rng" {
                push(Rule::NoWallClock, t.line, "thread_rng".to_string());
            }
        }
        if panic_applies && !in_test(t.line) {
            if seq(&code, i, &[".", "unwrap", "(", ")"]) {
                push(Rule::NoPanic, t.line, ".unwrap()".to_string());
            }
            if seq(&code, i, &[".", "expect", "("]) {
                push(Rule::NoPanic, t.line, ".expect(".to_string());
            }
            if seq(&code, i, &["panic", "!"]) {
                push(Rule::NoPanic, t.line, "panic!".to_string());
            }
        }
        if alloc_applies && !in_test(t.line) {
            if seq(&code, i, &["Vec", ":", ":", "new", "(", ")"]) {
                push(Rule::NoAllocInStep, t.line, "Vec::new()".to_string());
            }
            if seq(&code, i, &["VecDeque", ":", ":", "new", "(", ")"]) {
                push(Rule::NoAllocInStep, t.line, "VecDeque::new()".to_string());
            }
            if seq(&code, i, &[".", "clone", "(", ")"]) {
                push(Rule::NoAllocInStep, t.line, ".clone()".to_string());
            }
        }
        if env_applies && seq(&code, i, &["std", ":", ":", "env"]) {
            push(Rule::NoEnvInCore, t.line, "std::env".to_string());
        }
        if thread_applies {
            for prim in THREAD_PRIMITIVES {
                if seq(&code, i, &["thread", ":", ":", prim]) {
                    push(
                        Rule::NoNondeterministicThreading,
                        t.line,
                        format!("thread::{prim}"),
                    );
                }
            }
            if t.kind == TokenKind::Ident && t.text == "available_parallelism" {
                push(
                    Rule::NoNondeterministicThreading,
                    t.line,
                    "available_parallelism".to_string(),
                );
            }
        }
        if lossy_applies && !in_test(t.line) && t.kind == TokenKind::Ident && t.text == "as" {
            if let Some(ty) = code.get(i + 1) {
                if ty.kind == TokenKind::Ident && NARROW_INT_TYPES.contains(&ty.text) {
                    push(Rule::NoLossyCast, t.line, format!("as {}", ty.text));
                }
            }
        }
    }

    violations.sort_by(|a, b| (a.line, a.rule, &a.what).cmp(&(b.line, b.rule, &b.what)));
    violations.dedup();
    violations
}

/// Recursively collects `.rs` files under `dir`, in sorted (deterministic)
/// order, skipping build output and VCS internals.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file of the workspace rooted at `root`, as
/// `(workspace-relative path, absolute path)` pairs in deterministic order.
pub(crate) fn workspace_rs_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("workspace root {} is not a directory", root.display()),
        ));
    }
    let mut files = Vec::new();
    for top in ["src", "tests", "benches", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no .rs files found under {} — wrong root?", root.display()),
        ));
    }
    Ok(files
        .into_iter()
        .map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            (rel, file)
        })
        .collect())
}

/// Scans every `.rs` file of the workspace rooted at `root` (plus the
/// `Cargo.lock` dependency allowlist) and returns all violations, sorted by
/// path and line.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for (rel, file) in workspace_rs_files(root)? {
        let contents = fs::read_to_string(&file)?;
        violations.extend(check_file(&rel, &contents));
    }
    violations.extend(check_deps(root)?);
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_collections_flagged_in_sim_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == Rule::NoHashCollections));
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn hash_collections_flagged_even_in_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let v = check_file("crates/experiments/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoHashCollections);
    }

    #[test]
    fn hash_in_comments_and_strings_ignored() {
        let src = "// HashMap is banned\nfn f() { let s = \"HashMap\"; }\n/* HashSet */\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_in_raw_strings_and_nested_comments_ignored() {
        let src = "fn f() -> &'static str { r#\"HashMap<HashSet> \"quoted\"\"# }\n\
                   /* outer /* HashMap */ HashSet */\nfn g() {}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unordered_alias_via_use_rename_is_flagged() {
        let src = "use std::collections::HashMap as FastMap;\n\
                   fn f() { let m: FastMap<u32, u32> = FastMap::new(); }\n";
        let v = check_file("crates/core/src/x.rs", src);
        let aliases: Vec<_> = v
            .iter()
            .filter(|v| v.rule == Rule::NoUnorderedIteration)
            .collect();
        // Declaration line + use line (findings dedupe per line).
        assert_eq!(aliases.len(), 2, "{v:?}");
        // The underlying HashMap token is still the hash rule's business.
        assert!(v.iter().any(|v| v.rule == Rule::NoHashCollections));
    }

    #[test]
    fn unordered_alias_via_type_alias_is_flagged_to_fixpoint() {
        let src = "use std::collections::HashMap as M0;\n\
                   type M1 = M0<u32, u32>;\n\
                   type M2 = M1;\n\
                   fn f(m: M2) {}\n";
        let v = check_file("crates/bpred/src/x.rs", src);
        let flagged: BTreeSet<_> = v
            .iter()
            .filter(|v| v.rule == Rule::NoUnorderedIteration)
            .map(|v| v.line)
            .collect();
        // Alias occurrences on every line, including the chained M2 use.
        assert_eq!(flagged, BTreeSet::from([1, 2, 3, 4]), "{v:?}");
    }

    #[test]
    fn innocent_type_aliases_are_not_flagged() {
        let src = "type Cycle = u64;\nfn f(c: Cycle) {}\nuse std::io::Error as IoError;\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_only_flagged_in_clock_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(check_file("crates/mem/src/x.rs", src).len(), 1);
        // The experiment harness is clock-banned too (results must be pure
        // functions of the seed); only the audited sweep timer is allowed.
        assert_eq!(
            check_file("crates/experiments/src/sweep.rs", src)
                .iter()
                .filter(|v| v.rule == Rule::NoWallClock)
                .count(),
            1
        );
        assert!(check_file("crates/bench/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != Rule::NoWallClock));
    }

    #[test]
    fn env_reads_flagged_in_sim_crates_only() {
        let src = "fn f() -> bool { std::env::var_os(\"X\").is_some() }\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoEnvInCore);
        assert_eq!(v[0].what, "std::env");
        // The harness and bench crates may read env (worker counts etc).
        assert!(check_file("crates/experiments/src/x.rs", src).is_empty());
        assert!(check_file("crates/bench/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != Rule::NoEnvInCore));
        // The env! compile-time macro is not an env *read*.
        let src = "const DIR: &str = env!(\"CARGO_MANIFEST_DIR\");\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn threading_primitives_flagged_outside_sweep() {
        for (src, what) in [
            ("fn f() { std::thread::spawn(|| {}); }\n", "thread::spawn"),
            ("fn f() { std::thread::scope(|_| {}); }\n", "thread::scope"),
            (
                "fn f() { let n = std::thread::available_parallelism(); }\n",
                "available_parallelism",
            ),
            (
                "fn f() -> std::thread::ThreadId { std::thread::current().id() }\n",
                "thread::ThreadId",
            ),
        ] {
            let v = check_file("crates/core/src/x.rs", src);
            assert!(
                v.iter()
                    .any(|v| v.rule == Rule::NoNondeterministicThreading && v.what == what),
                "{what}: {v:?}"
            );
            // Root-level tests are covered too.
            assert!(
                check_file("tests/x.rs", src)
                    .iter()
                    .any(|v| v.rule == Rule::NoNondeterministicThreading),
                "{what} in tests"
            );
        }
        // The simulator's own ThreadId (a hardware context index) is fine.
        let src = "use smt_isa::ThreadId;\nfn f(t: ThreadId) {}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn lossy_casts_flagged_across_workspace_library_source() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        let v = check_file(HOT_PATH_FILE, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoLossyCast);
        assert_eq!(v[0].what, "as u32");
        assert_eq!(check_file(STATS_FILE, src).len(), 1);
        assert_eq!(check_file("crates/workloads/src/walker.rs", src).len(), 1);
        // Workspace-wide since the checkpoint PR: any library source file.
        assert_eq!(check_file("crates/core/src/config.rs", src).len(), 1);
        assert_eq!(check_file("crates/experiments/src/report.rs", src).len(), 1);
        // Test harnesses, binaries and the lint crate are out of scope.
        assert!(check_file("tests/golden.rs", src).is_empty());
        assert!(check_file("crates/experiments/src/bin/all.rs", src).is_empty());
        assert!(check_file("crates/lint/src/escapes.rs", src).is_empty());
        // Widening casts are always fine.
        let src = "fn f(x: u32) -> u64 { x as u64 + x as usize as u64 }\n";
        assert!(check_file(HOT_PATH_FILE, src).is_empty());
        // `as` outside a cast (use renames) is not flagged.
        let src = "use std::io::Error as E;\n";
        assert!(check_file(HOT_PATH_FILE, src).is_empty());
    }

    #[test]
    fn panics_flagged_in_library_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(check_file("crates/bpred/src/x.rs", src).len(), 1);
        assert!(check_file("crates/bpred/tests/x.rs", src).is_empty());
        assert!(check_file("crates/experiments/src/bin/all.rs", src).is_empty());
        assert!(check_file("tests/end_to_end.rs", src).is_empty());
    }

    #[test]
    fn panics_in_cfg_test_modules_ignored() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_after_cfg_test_module_closes_is_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn f() { panic!(\"x\") }\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn spaced_panic_calls_are_still_caught() {
        // The line-regex scanner missed `.unwrap ()`; the token pass doesn't.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap () }\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NoPanic);
    }

    #[test]
    fn line_allow_waives_that_line_and_rule_only() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(no-panic): caller checked\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
        let src =
            "// lint:allow(no-panic): caller checked\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
        // The wrong rule name does not waive.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(no-wall-clock)\n";
        assert_eq!(check_file("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn file_allow_waives_the_whole_file() {
        let src = "// lint:allow-file(no-panic): invariant aborts are deliberate\nfn f() { panic!() }\nfn g() { panic!() }\n";
        assert!(check_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn markers_in_strings_and_doc_comments_do_not_waive() {
        // A marker inside a string literal is data, not an escape.
        let src = "fn f() -> (&'static str, u32) {\n    (\"lint:allow(no-panic)\", None::<u32>.unwrap())\n}\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        // A marker inside a doc comment is prose, not an escape.
        let src = "/// Escape with `lint:allow(no-panic)` markers.\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = check_file("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn crate_roots_require_unsafe_denial() {
        let v = check_file("crates/core/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::DenyUnsafe);
        assert_eq!(v[0].line, 0);
        assert!(check_file("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n").is_empty());
        assert!(check_file("crates/core/src/lib.rs", "#![deny(unsafe_code)]\n").is_empty());
        // A doc-comment mention of the attribute does not satisfy the rule.
        let v = check_file(
            "crates/core/src/lib.rs",
            "//! Carries `#![forbid(unsafe_code)]`… except it doesn't.\npub fn f() {}\n",
        );
        assert_eq!(v.len(), 1);
        // Non-root files are not subject to the rule.
        assert!(check_file("crates/core/src/sim.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn assert_is_not_flagged() {
        let src = "fn f(n: usize) { assert!(n > 0, \"positive\"); }\n";
        assert!(check_file("crates/bpred/src/x.rs", src).is_empty());
    }

    #[test]
    fn alloc_tokens_flagged_in_hot_path_only() {
        let src = "fn step() { let v: Vec<u32> = Vec::new(); let w = v.clone(); }\n";
        let v = check_file(HOT_PATH_FILE, src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == Rule::NoAllocInStep));
        // Every pipeline stage module is hot path too.
        let v = check_file("crates/core/src/pipeline/issue.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == Rule::NoAllocInStep));
        // The same tokens anywhere else are not this rule's business.
        assert!(check_file("crates/core/src/metrics.rs", src).is_empty());
    }

    #[test]
    fn hot_path_covers_sim_and_pipeline_stages() {
        assert!(is_hot_path(HOT_PATH_FILE));
        assert!(is_hot_path("crates/core/src/pipeline/mod.rs"));
        assert!(is_hot_path("crates/core/src/pipeline/fetch.rs"));
        assert!(is_hot_path("crates/core/src/pipeline/sched.rs"));
        assert!(is_hot_path(HOT_PATH_WALKER));
        assert!(is_hot_path(HOT_PATH_WINDOW));
        assert!(!is_hot_path("crates/core/src/config.rs"));
        assert!(!is_hot_path("crates/core/src/frontend/mod.rs"));
        assert!(!is_hot_path("crates/workloads/src/builder.rs"));
        // The lossy-cast scope is all workspace library source, minus the
        // lint crate (its token tables must name the narrow types).
        assert!(is_lossy_cast_scope(HOT_PATH_FILE));
        assert!(is_lossy_cast_scope(STATS_FILE));
        assert!(is_lossy_cast_scope("crates/core/src/config.rs"));
        assert!(is_lossy_cast_scope("crates/experiments/src/report.rs"));
        assert!(!is_lossy_cast_scope("crates/lint/src/lib.rs"));
        assert!(!is_lossy_cast_scope("tests/golden.rs"));
    }

    #[test]
    fn alloc_rule_honours_escapes_and_test_regions() {
        let src = "fn new(b: &Vec<u32>) { let a = b.clone(); } // lint:allow(no-alloc-in-step): construction only\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let v: Vec<u32> = Vec::new(); }\n}\n";
        assert!(check_file(HOT_PATH_FILE, src).is_empty());
    }

    #[test]
    fn only_the_alloc_and_size_rules_are_advisory() {
        assert!(Rule::NoAllocInStep.is_advisory());
        assert!(Rule::ModuleSize.is_advisory());
        for rule in [
            Rule::NoHashCollections,
            Rule::NoWallClock,
            Rule::NoPanic,
            Rule::DenyUnsafe,
            Rule::NoEnvInCore,
            Rule::NoUnorderedIteration,
            Rule::NoLossyCast,
            Rule::NoNondeterministicThreading,
            Rule::DepAllowlist,
        ] {
            assert!(!rule.is_advisory(), "{rule} must stay enforced");
        }
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn oversized_core_modules_flagged() {
        let src = "fn f() {}\n".repeat(MODULE_SIZE_LIMIT + 1);
        let v = check_file("crates/core/src/big.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ModuleSize);
        assert_eq!(v[0].line, 0);
        // Only core modules are in scope.
        assert!(check_file("crates/bpred/src/big.rs", &src).is_empty());
        // At the ceiling is fine.
        let src = "fn f() {}\n".repeat(MODULE_SIZE_LIMIT);
        assert!(check_file("crates/core/src/big.rs", &src).is_empty());
    }

    #[test]
    fn module_size_ignores_test_regions_and_honours_escape() {
        // A short library section plus a huge co-located test module is fine.
        let tests = "    fn t() {}\n".repeat(MODULE_SIZE_LIMIT + 1);
        let src = format!("fn lib() {{}}\n#[cfg(test)]\nmod tests {{\n{tests}}}\n");
        assert!(check_file("crates/core/src/big.rs", &src).is_empty());
        // The file-level escape waives the rule.
        let src = format!(
            "// lint:allow-file(module-size): generated table\n{}",
            "fn f() {}\n".repeat(MODULE_SIZE_LIMIT + 1)
        );
        assert!(check_file("crates/core/src/big.rs", &src).is_empty());
    }

    #[test]
    fn violation_display_is_greppable() {
        let v = Violation {
            rule: Rule::NoPanic,
            path: "crates/core/src/x.rs".into(),
            line: 7,
            what: ".unwrap()".into(),
        };
        assert_eq!(
            v.to_string(),
            "crates/core/src/x.rs:7: [no-panic] .unwrap()"
        );
    }
}
