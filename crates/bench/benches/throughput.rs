//! Simulator throughput baseline: how many *simulated* cycles and committed
//! instructions per wall-clock second the model sustains on the figure-5
//! workload matrix, written to `BENCH_SIM.json` so regressions are diffable.
//!
//! Run it with:
//!
//! ```text
//! cargo bench -p smt-bench --bench throughput -- \
//!     [--cycles N] [--jobs N] [--out PATH] [--baseline PATH] [--smoke]
//! ```
//!
//! * `--cycles N` — measured cycles per cell (default 40 000; warmup is a
//!   quarter of it).
//! * `--jobs N` — worker count for the whole-matrix parallel timing row
//!   (default `SMT_JOBS` or 1).
//! * `--out PATH` — where to write the JSON report (default `SMT_BENCH_OUT`
//!   or `BENCH_SIM.json`; relative paths resolve against the workspace
//!   root, not cargo's bench cwd).
//! * `--baseline PATH` — compare against a previous report; prints a
//!   `WARNING` for any cell whose committed-instructions throughput dropped
//!   more than 15% and, without `--gate`, always exits 0 (the baseline is
//!   advisory: absolute wall-time depends on the host).
//! * `--gate` — with `--baseline`, exit 1 if any cell fell more than 30%
//!   below the baseline. The wide margin absorbs host noise; a genuine
//!   hot-path regression shows up far larger than 30%.
//! * `--smoke` — small matrix (one ILP workload plus the MEM cells) for CI.
//!   The measurement length is *not* shortened: smoke cells must be
//!   statistically comparable to the checked-in full-run baseline, and a
//!   truncated warmup window sits on the cold ramp of the IPC curve.
//!
//! Per cell the report holds the *best of [`SAMPLES_PER_CELL`] samples*
//! (minimum wall time — the least noisy estimator for CPU-bound code):
//! simulated cycles/sec, committed instructions/sec, the stddev of the
//! per-sample committed-instructions rate (how noisy this cell was on this
//! host), and IPC as a sanity anchor. A trailing `matrix` row times one
//! full serial sweep and one `--jobs N` sweep through the production
//! `run_matrix_parallel` executor.
//!
//! **Re-blessing the baseline**: after an intentional performance change
//! (or on new hardware), run `cargo bench -p smt-bench --bench throughput`
//! from the workspace root — it rewrites `BENCH_SIM.json` in place — and
//! commit the new file together with the change that explains it.

use std::fmt::Write as _;
use std::time::Instant;

use smt_core::{FetchEngineKind, FetchPolicy, SimBuilder, Simulator};
use smt_experiments::{run_matrix_parallel, Jobs, RunLength};
use smt_workloads::Workload;

/// Seed shared with the experiment suite (results are deterministic).
const SEED: u64 = 2004;

/// Timed samples per cell; the minimum is reported.
const SAMPLES_PER_CELL: u32 = 3;

struct Options {
    measure_cycles: u64,
    jobs: Jobs,
    out: String,
    baseline: Option<String>,
    smoke: bool,
    gate: bool,
}

fn parse_args() -> Options {
    let mut o = Options {
        measure_cycles: 40_000,
        jobs: Jobs::from_env().expect("invalid SMT_JOBS"),
        out: std::env::var("SMT_BENCH_OUT").unwrap_or_else(|_| "BENCH_SIM.json".to_string()),
        baseline: None,
        smoke: false,
        gate: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--cycles" => o.measure_cycles = value("--cycles").parse().expect("--cycles: integer"),
            "--jobs" => {
                let n = value("--jobs").parse().expect("--jobs: integer");
                o.jobs = Jobs::new(n).expect("--jobs: 1..=256");
            }
            "--out" => o.out = value("--out"),
            "--baseline" => o.baseline = Some(value("--baseline")),
            "--gate" => o.gate = true,
            "--smoke" => o.smoke = true,
            "--bench" => {} // passed through by `cargo bench`
            other => panic!("unknown argument {other:?}"),
        }
    }
    o
}

struct CellResult {
    workload: String,
    engine: String,
    policy: String,
    cycles_per_sec: f64,
    insts_per_sec: f64,
    /// Population stddev of the per-sample committed-instructions rate —
    /// the cell's measurement noise on this host.
    insts_per_sec_stddev: f64,
    ipc: f64,
}

fn build(w: &Workload, engine: FetchEngineKind, policy: FetchPolicy) -> Simulator {
    // Shared programs: all cells for one workload reference the same
    // cached `Arc<Program>`s, so cell setup cost excludes program synthesis.
    let programs = w
        .programs_shared(SEED)
        .expect("table 2 workloads always build");
    SimBuilder::new_shared(programs)
        .fetch_engine(engine)
        .fetch_policy(policy)
        .build()
        .expect("valid configuration")
}

/// Times one cell: warm the microarchitectural state, then take the best of
/// [`SAMPLES_PER_CELL`] measured windows (stats reset per sample so the
/// committed count belongs to the timed window alone).
fn time_cell(
    w: &Workload,
    engine: FetchEngineKind,
    policy: FetchPolicy,
    len: RunLength,
) -> CellResult {
    let mut sim = build(w, engine, policy);
    sim.run_cycles(len.warmup_cycles);
    let mut best_secs = f64::INFINITY;
    let mut best_committed = 0u64;
    let mut rates = [0.0f64; SAMPLES_PER_CELL as usize];
    for rate in &mut rates {
        sim.reset_stats();
        let start = Instant::now();
        sim.run_cycles(len.measure_cycles);
        let secs = start.elapsed().as_secs_f64().max(1e-12);
        *rate = sim.stats().total_committed() as f64 / secs;
        if secs < best_secs {
            best_secs = secs;
            best_committed = sim.stats().total_committed();
        }
    }
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let variance = rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rates.len() as f64;
    CellResult {
        workload: w.name().to_string(),
        engine: engine.to_string(),
        policy: policy.to_string(),
        cycles_per_sec: len.measure_cycles as f64 / best_secs,
        insts_per_sec: best_committed as f64 / best_secs,
        insts_per_sec_stddev: variance.sqrt(),
        ipc: best_committed as f64 / len.measure_cycles as f64,
    }
}

/// Renders the report. Each cell sits on its own line with a fixed key
/// order, which is all the baseline parser below relies on.
fn render_json(
    len: RunLength,
    cells: &[CellResult],
    jobs: Jobs,
    serial_secs: f64,
    parallel_secs: f64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"smtfetch-bench-sim/2\",");
    let _ = writeln!(s, "  \"measure_cycles\": {},", len.measure_cycles);
    let _ = writeln!(s, "  \"warmup_cycles\": {},", len.warmup_cycles);
    let _ = writeln!(s, "  \"samples_per_cell\": {SAMPLES_PER_CELL},");
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"policy\": \"{}\", \
             \"sim_cycles_per_sec\": {:.1}, \"committed_insts_per_sec\": {:.1}, \
             \"committed_insts_per_sec_stddev\": {:.1}, \"ipc\": {:.4}}}",
            c.workload,
            c.engine,
            c.policy,
            c.cycles_per_sec,
            c.insts_per_sec,
            c.insts_per_sec_stddev,
            c.ipc
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"matrix\": {{\"cells\": {}, \"serial_secs\": {:.3}, \"jobs\": {}, \
         \"parallel_secs\": {:.3}}}",
        cells.len(),
        serial_secs,
        jobs.get(),
        parallel_secs
    );
    s.push_str("}\n");
    s
}

/// Minimal field extractors for our own one-cell-per-line JSON (the
/// workspace is dependency-free, so no serde).
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(line.len() - start);
    line[start..start + end].parse().ok()
}

/// Compares committed-instruction throughput against a previous report.
///
/// Regressions beyond 15% print a `WARNING`; regressions beyond 30% are
/// *gate failures*, returned as a count so `--gate` can fail the run. To
/// accept an intentional slowdown, re-bless the baseline (see the module
/// docs).
fn compare_with_baseline(baseline: &str, cells: &[CellResult]) -> u32 {
    const TOLERANCE: f64 = 0.85;
    const GATE_TOLERANCE: f64 = 0.70;
    let mut warned = 0u32;
    let mut gate_failures = 0u32;
    for line in baseline.lines() {
        let (Some(w), Some(e), Some(p), Some(base)) = (
            json_str(line, "workload"),
            json_str(line, "engine"),
            json_str(line, "policy"),
            json_num(line, "committed_insts_per_sec"),
        ) else {
            continue;
        };
        let Some(cell) = cells
            .iter()
            .find(|c| c.workload == w && c.engine == e && c.policy == p)
        else {
            continue;
        };
        if base > 0.0 && cell.insts_per_sec < base * GATE_TOLERANCE {
            println!(
                "GATE: {w} | {e} | {p}: committed insts/sec fell \
                 {base:.0} -> {:.0} (more than 30% below baseline)",
                cell.insts_per_sec
            );
            gate_failures += 1;
        } else if base > 0.0 && cell.insts_per_sec < base * TOLERANCE {
            println!(
                "WARNING: {w} | {e} | {p}: committed insts/sec fell \
                 {base:.0} -> {:.0} (more than 15% below baseline)",
                cell.insts_per_sec
            );
            warned += 1;
        }
    }
    if warned == 0 && gate_failures == 0 {
        println!("baseline check: no cell more than 15% below baseline");
    } else {
        println!(
            "baseline check: {} cell(s) regressed ({gate_failures} beyond the 30% gate)",
            warned + gate_failures
        );
    }
    gate_failures
}

/// Cargo runs bench binaries with the *package* directory as cwd
/// (`crates/bench`), not the workspace root the user invoked from. Resolve
/// relative report paths against the workspace root so `--out
/// BENCH_SIM.json` lands where the checked-in baseline lives.
fn resolve(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

fn main() {
    let o = parse_args();
    let len = RunLength {
        warmup_cycles: o.measure_cycles / 4,
        measure_cycles: o.measure_cycles,
    };
    let workloads = if o.smoke {
        vec![Workload::ilp2()]
    } else {
        Workload::ilp_suite()
    };
    let engines = FetchEngineKind::all();
    let policies = [FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)];

    println!(
        "simulator throughput, figure-5 matrix ({} workloads x {} engines x {} policies, \
         {} measured cycles/cell)",
        workloads.len(),
        engines.len(),
        policies.len(),
        len.measure_cycles
    );
    let mut cells = Vec::new();
    for w in &workloads {
        for &policy in &policies {
            for &engine in &engines {
                let c = time_cell(w, engine, policy, len);
                println!(
                    "{:<8} {:<12} {:<12} {:>12.0} cyc/s {:>12.0} insts/s  ipc {:.3}",
                    c.workload, c.engine, c.policy, c.cycles_per_sec, c.insts_per_sec, c.ipc
                );
                cells.push(c);
            }
        }
    }

    // Skip-heavy MEM cells (kept in --smoke too, so the gated bench-smoke
    // covers the event-driven scheduler's fast path): the memory-bound
    // workload spends most of its time in ~100-cycle stall windows, under
    // plain ICOUNT and under the long-latency STALL/FLUSH gates.
    let mem2 = Workload::mem2();
    for policy in [
        FetchPolicy::icount(2, 8),
        FetchPolicy::icount(2, 8).with_stall(),
        FetchPolicy::icount(1, 8).with_flush(),
    ] {
        let c = time_cell(&mem2, FetchEngineKind::GshareBtb, policy, len);
        println!(
            "{:<8} {:<12} {:<12} {:>12.0} cyc/s {:>12.0} insts/s  ipc {:.3}",
            c.workload, c.engine, c.policy, c.cycles_per_sec, c.insts_per_sec, c.ipc
        );
        cells.push(c);
    }

    // Window-churn cell: eight threads hammering the shared instruction
    // window keeps push/pop/squash traffic — the structure-of-arrays hot
    // path — dominant, where the MEM cells above mostly exercise the
    // event-skip scheduler instead.
    let mix8 = Workload::mix8();
    let c = time_cell(
        &mix8,
        FetchEngineKind::GshareBtb,
        FetchPolicy::icount(2, 8),
        len,
    );
    println!(
        "{:<8} {:<12} {:<12} {:>12.0} cyc/s {:>12.0} insts/s  ipc {:.3}",
        c.workload, c.engine, c.policy, c.cycles_per_sec, c.insts_per_sec, c.ipc
    );
    cells.push(c);

    // Whole-matrix wall time through the production sweep executor: one
    // serial pass, one at the requested worker count.
    let start = Instant::now();
    let serial = run_matrix_parallel(&workloads, &engines, &policies, len, Jobs::SERIAL);
    let serial_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel = run_matrix_parallel(&workloads, &engines, &policies, len, o.jobs);
    let parallel_secs = start.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
    println!(
        "matrix: {} cells, serial {serial_secs:.3} s, --jobs {} {parallel_secs:.3} s",
        cells.len(),
        o.jobs.get()
    );

    let json = render_json(len, &cells, o.jobs, serial_secs, parallel_secs);
    let out = resolve(&o.out);
    std::fs::write(&out, &json).expect("write BENCH_SIM.json");
    println!("wrote {}", out.display());

    let mut gate_failed = false;
    if let Some(path) = &o.baseline {
        match std::fs::read_to_string(resolve(path)) {
            Ok(baseline) => {
                let gate_failures = compare_with_baseline(&baseline, &cells);
                if gate_failures > 0 {
                    println!(
                        "bench gate: {gate_failures} cell(s) more than 30% below baseline; \
                         re-bless BENCH_SIM.json if the slowdown is intentional"
                    );
                    gate_failed = true;
                }
            }
            Err(e) => println!("baseline check skipped: cannot read {path}: {e}"),
        }
    }
    if o.gate && gate_failed {
        std::process::exit(1);
    }
}
