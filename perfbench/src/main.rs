//! End-to-end and per-layer benchmark of the simulator on three
//! paper-figure workloads (see `README.md` beside this package).
//!
//! ```text
//! perfbench --workload <ilp_fig5|mem_fig7|wide_fig6> [--seed N] [--seconds S] [--trace 0|1]
//!           [--program-seed N] [--spans-dir DIR] [--rustc VERSION] [--commit SHA]
//! ```
//!
//! Each workload is a serial list of simulator cells run in this one thread,
//! in an order drawn from `--seed`, on programs synthesised from
//! `--program-seed` (default 2004, the seed of every EXPERIMENTS.md table).
//! Per cell: `Workload::programs_shared` + `SimBuilder::build` (set-up),
//! warmup `run_cycles`, `reset_stats`, measured `run_cycles`.
//!
//! * `--trace 0` sets up and warms every cell, then runs rounds over all
//!   cells, one measured window per cell per round on a fresh clone of its
//!   warmed simulator, until `--seconds` have passed (3 to 25 rounds), and
//!   prints the end-to-end metrics from per-cell medians.
//! * `--trace 1` runs each cell's measured window once untraced and once in
//!   timed chunks, then the layer replays, and prints the per-layer
//!   metrics. Spans are written to `--spans-dir` at exit.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod cells;
mod claims;
mod probe;
mod replay;
mod stats;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use smt_core::{SimBuilder, SimStats, Simulator};
use smt_workloads::Program;

use crate::cells::{Cell, Spec, MEASURE_CYCLES, WARMUP_CYCLES};
use crate::probe::Probe;
use crate::stats::{median, tail_percentile};
use crate::trace::{SpanId, Tracer};

/// The seed every experiment of the repository uses.
const PAPER_SEED: u64 = 2004;
/// Cycles per timed chunk of a traced measured window.
const CHUNK_CYCLES: u64 = 1_000;
/// Bounds on the rounds of measured windows in an untraced run.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 25;

/// Knobs that change what a cell runs or how; the benchmark refuses to run
/// with any of them set.
const GUARDED_ENV: [&str; 8] = [
    "SMT_WARM_START",
    "SMT_MEMO_DIR",
    "SMT_MEMO_CAP",
    "SMT_WARM_CAP",
    "SMT_EXP_CYCLES",
    "SMT_SWEEP_REPORT",
    "SMT_DEBUG_HIST",
    "SMT_JOBS",
];

struct Args {
    workload: String,
    seed: u64,
    program_seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<PathBuf>,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: PAPER_SEED,
        program_seed: PAPER_SEED,
        seconds: 10.0,
        trace: false,
        spans_dir: None,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--program-seed" => {
                a.program_seed = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans-dir" => a.spans_dir = Some(PathBuf::from(value)),
            "--rustc" => a.rustc = value,
            "--commit" => a.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            cells::NAMES.join(", ")
        ));
    }
    Ok(a)
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One cell's outcome.
struct CellRun {
    stats: SimStats,
    /// `programs_shared` + `SimBuilder::build`, the first time.
    setup_ns: u64,
    /// One `SimBuilder::build` per round.
    build_ns: Vec<u64>,
    warmup_ns: u64,
    /// One duration per untraced measured window.
    measure_ns: Vec<u64>,
    /// The traced window and its chunks (traced runs only).
    traced_ns: u64,
    chunk_ns: Vec<u64>,
}

fn median_ns(v: &[u64]) -> f64 {
    let v: Vec<f64> = v.iter().map(|&n| n as f64).collect();
    median(&v)
}

/// A tracer and the span new spans nest under; `None` in untraced runs.
type Trace<'a> = Option<(&'a mut Tracer, SpanId)>;

fn open(trace: &mut Trace<'_>, name: &'static str) -> Option<SpanId> {
    trace
        .as_mut()
        .map(|(t, parent)| t.open(name, String::new(), Some(*parent)))
}

fn close(trace: &mut Trace<'_>, span: Option<SpanId>) -> u64 {
    match (trace.as_mut(), span) {
        (Some((t, _)), Some(span)) => t.close(span),
        _ => 0,
    }
}

fn build(cell: &Cell, programs: Vec<Arc<Program>>) -> Result<(Simulator, u64), String> {
    let t = Instant::now();
    let sim = SimBuilder::new_shared(programs)
        .fetch_engine(cell.engine)
        .fetch_policy(cell.policy)
        .build()
        .map_err(|e| e.to_string())?;
    Ok((sim, ns_since(t)))
}

/// Set-up and warmup: returns the warmed simulator, statistics reset.
fn start(cell: &Cell, seed: u64, trace: &mut Trace<'_>) -> Result<(Simulator, CellRun), String> {
    let t_setup = Instant::now();
    let setup = open(trace, "setup");
    let programs = cell
        .workload
        .programs_shared(seed)
        .map_err(|e| e.to_string())?;
    let (mut sim, build_ns) = build(cell, programs)?;
    close(trace, setup);
    let setup_ns = ns_since(t_setup);

    let t_warmup = Instant::now();
    let warmup = open(trace, "warmup");
    sim.run_cycles(WARMUP_CYCLES);
    sim.reset_stats();
    close(trace, warmup);
    let run = CellRun {
        stats: SimStats::default(),
        setup_ns,
        build_ns: vec![build_ns],
        warmup_ns: ns_since(t_warmup),
        measure_ns: Vec::new(),
        traced_ns: 0,
        chunk_ns: Vec::new(),
    };
    Ok((sim, run))
}

/// One measured window on a fresh clone of the warmed simulator. The first
/// window's statistics must pass [`check`]; every later one must equal it.
fn window(cell: &Cell, warm: &Simulator, run: &mut CellRun) -> Result<(), String> {
    let mut sim = warm.clone();
    let t = Instant::now();
    sim.run_cycles(MEASURE_CYCLES);
    run.measure_ns.push(ns_since(t));
    if run.measure_ns.len() == 1 {
        check(cell, sim.stats())?;
        run.stats = sim.stats().clone();
    } else if sim.stats() != &run.stats {
        return Err("repeated measured windows gave different statistics".into());
    }
    Ok(())
}

/// The measured window once more, in timed chunks; the chunking must leave
/// the statistics bit-identical to the untraced window's.
fn traced_window(warm: &Simulator, run: &mut CellRun, trace: &mut Trace<'_>) -> Result<(), String> {
    let mut sim = warm.clone();
    let t = Instant::now();
    let mut left = MEASURE_CYCLES;
    while left > 0 {
        let n = left.min(CHUNK_CYCLES);
        let chunk = open(trace, "chunk");
        sim.run_cycles(n);
        run.chunk_ns.push(close(trace, chunk));
        left -= n;
    }
    run.traced_ns = ns_since(t);
    if sim.stats() != &run.stats {
        return Err("traced and untraced statistics differ".into());
    }
    Ok(())
}

/// The output checks every cell must pass.
fn check(cell: &Cell, s: &SimStats) -> Result<(), String> {
    if s.cycles != MEASURE_CYCLES {
        return Err(format!(
            "measured {} cycles, asked for {MEASURE_CYCLES}",
            s.cycles
        ));
    }
    for t in 0..cell.workload.num_threads() {
        if s.stalls.total(t) != s.cycles {
            return Err(format!(
                "thread {t}: stall buckets sum to {} of {} cycles",
                s.stalls.total(t),
                s.cycles
            ));
        }
    }
    if s.total_committed() == 0 {
        return Err("committed no instruction".into());
    }
    let width = f64::from(cell.policy.width);
    if s.ipc() > width || s.ipfc() > width {
        return Err(format!(
            "IPC {} or IPFC {} exceeds the fetch width {width}",
            s.ipc(),
            s.ipfc()
        ));
    }
    Ok(())
}

/// Runs `f` for `cell`, turning an error or a panic into a reported failure.
fn attempt<T>(cell: &Cell, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into())) {
        Ok(v) => Some(v),
        Err(why) => {
            eprintln!("perfbench: cell {} failed: {why}", cell.label());
            None
        }
    }
}

/// Every cell, set up and warmed, in the spec's order; `None` for a cell
/// that failed.
type Cells = Vec<Option<(Simulator, CellRun)>>;

fn runs(cells: &Cells) -> impl Iterator<Item = &CellRun> {
    cells.iter().flatten().map(|(_, run)| run)
}

fn failed(cells: &Cells) -> usize {
    cells.iter().filter(|c| c.is_none()).count()
}

/// Sum over cells of the median measured-window time.
fn measure_ns(cells: &Cells) -> f64 {
    runs(cells).map(|r| median_ns(&r.measure_ns)).sum()
}

fn claim_results(spec: &Spec, cells: &Cells) -> claims::Results {
    let mut r = claims::Results::new();
    for (cell, slot) in spec.cells.iter().zip(cells) {
        if let Some((_, run)) = slot {
            r.insert(
                (
                    cell.workload.name().to_string(),
                    cell.engine.to_string(),
                    cell.policy.to_string(),
                ),
                claims::Point {
                    ipc: run.stats.ipc(),
                    ipfc: run.stats.ipfc(),
                },
            );
        }
    }
    r
}

fn print_cells(spec: &Spec, cells: &Cells) {
    for (cell, slot) in spec.cells.iter().zip(cells) {
        if let Some((_, run)) = slot {
            let s = &run.stats;
            eprintln!(
                "perfbench: {:<28} ipc {:.4} ipfc {:.4} skipped {:>5.1}% measured {:>7.1} ms x{}",
                cell.label(),
                s.ipc(),
                s.ipfc(),
                100.0 * ratio(s.skipped_cycles() as f64, s.cycles as f64),
                median_ns(&run.measure_ns) / 1e6,
                run.measure_ns.len()
            );
        }
    }
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn named<const N: usize>(m: [(&str, f64, &'static str); N]) -> Metrics {
    m.into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect()
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn end_to_end(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let seed = args.program_seed;
    let mut cells: Cells = spec
        .cells
        .iter()
        .map(|c| attempt(c, || start(c, seed, &mut None)))
        .collect();
    let table2 = spec.table2();
    let mut synth_ns: Vec<Vec<u64>> = vec![Vec::new(); table2.len()];
    // Rounds over all cells until `--seconds` have passed, so each cell's
    // windows, and the set-up samples, are spread over the whole run.
    let mut probe = Probe::new();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && t0.elapsed().as_secs_f64() < args.seconds)
    {
        for (w, samples) in table2.iter().zip(&mut synth_ns) {
            let t = Instant::now();
            let programs = w.programs(seed).map_err(|e| e.to_string())?;
            samples.push(ns_since(t));
            drop(std::hint::black_box(programs));
        }
        for (cell, slot) in spec.cells.iter().zip(&mut cells) {
            let Some((warm, run)) = slot else { continue };
            let ok = attempt(cell, || {
                if rounds > 0 {
                    let programs = cell
                        .workload
                        .programs_shared(seed)
                        .map_err(|e| e.to_string())?;
                    let (sim, ns) = build(cell, programs)?;
                    run.build_ns.push(ns);
                    drop(std::hint::black_box(sim));
                }
                window(cell, warm, run)
            });
            if ok.is_none() {
                *slot = None;
            }
            probe.sample();
        }
        rounds += 1;
    }
    print_cells(spec, &cells);
    let (held, total) = claims::evaluate(spec.name, &claim_results(spec, &cells));
    eprintln!("perfbench: {rounds} rounds, paper claims held {held} of {total}");
    // Every host time below is on the nominal host (see `probe`).
    let nominal = probe.to_nominal();
    let measure = measure_ns(&cells) * nominal;
    let insts: u64 = runs(&cells).map(|r| r.stats.total_committed()).sum();
    let cycles: u64 = runs(&cells).map(|r| r.stats.cycles).sum();
    let wall_ns: f64 = nominal
        * runs(&cells)
            .map(|r| (r.setup_ns + r.warmup_ns) as f64 + median_ns(&r.measure_ns))
            .sum::<f64>();
    let setup_ns: f64 = nominal
        * (synth_ns.iter().map(|v| median_ns(v)).sum::<f64>()
            + runs(&cells).map(|r| median_ns(&r.build_ns)).sum::<f64>());
    eprintln!(
        "perfbench: probe median {:.3} ms (nominal {:.3} ms); host-clock sim_minsts_per_s {:.4}, wall_s {:.4}",
        probe.median_ns() / 1e6,
        probe::NOMINAL_NS / 1e6,
        ratio(insts as f64, measure / nominal) * 1e3,
        wall_ns / nominal / 1e9
    );
    let rss = stats::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Outcome {
        attempted: spec.cells.len(),
        failed: failed(&cells),
        metrics: named([
            // Per nanosecond x 1e3 = millions per second.
            (
                "sim_minsts_per_s",
                ratio(insts as f64, measure) * 1e3,
                "Minst/s",
            ),
            (
                "sim_mcycles_per_s",
                ratio(cycles as f64, measure) * 1e3,
                "Mcycle/s",
            ),
            ("wall_s", wall_ns / 1e9, "s"),
            ("setup_s", setup_ns / 1e9, "s"),
            ("peak_rss_mib", rss, "MiB"),
            ("paper_claims_held", held as f64, "count"),
        ]),
    })
}

/// Pooled modelled counters of a pass, for the per-layer metrics.
fn counter_metrics(spec: &Spec, cells: &Cells, m: &mut Metrics) {
    let mut sum = SimStats::default();
    let (mut thread_cycles, mut ge8, mut fetch_cycles_dist) = (0u64, 0.0, 0u64);
    let mut buckets = [0u64; 7];
    let mut log_ipc = Vec::new();
    for (cell, slot) in spec.cells.iter().zip(cells) {
        let Some((_, run)) = slot else { continue };
        let s = &run.stats;
        sum.cycles += s.cycles;
        sum.fetch_cycles += s.fetch_cycles;
        sum.fetched += s.fetched;
        sum.fetched_wrong_path += s.fetched_wrong_path;
        sum.committed[0] += s.total_committed();
        sum.squashed += s.squashed;
        sum.cond_branches += s.cond_branches;
        sum.cond_mispredicts += s.cond_mispredicts;
        sum.control_mispredicts += s.control_mispredicts;
        sum.blocks_predicted += s.blocks_predicted;
        sum.fetch_buffer_stalls += s.fetch_buffer_stalls;
        sum.bank_conflicts += s.bank_conflicts;
        sum.hist_mismatches += s.hist_mismatches;
        sum.flushes += s.flushes;
        sum.skip_mem_wait += s.skip_mem_wait;
        sum.skip_issue_wait += s.skip_issue_wait;
        sum.skip_ftq_wait += s.skip_ftq_wait;
        sum.skip_policy_idle += s.skip_policy_idle;
        let dist = s.distribution.cycles();
        ge8 += s.distribution.frac_at_least(8) * dist as f64;
        fetch_cycles_dist += dist;
        let st = &s.stalls;
        for t in 0..cell.workload.num_threads() {
            thread_cycles += s.cycles;
            for (b, v) in buckets.iter_mut().zip([
                st.icache_miss[t],
                st.bank_conflict[t],
                st.fetch_starved[t],
                st.rob_full[t],
                st.issue_width[t],
                st.dcache_miss[t],
                st.residual[t],
            ]) {
                *b += v;
            }
        }
        log_ipc.push(s.ipc().ln());
    }
    let cycles = sum.cycles as f64;
    let kinsts = sum.committed[0] as f64 / 1e3;
    let of_cycles = |v: u64| ratio(v as f64, cycles);
    let tc = thread_cycles as f64;
    m.extend(named([
        (
            "sched.skip_frac",
            of_cycles(sum.skipped_cycles()),
            "fraction",
        ),
        (
            "sched.skip_mem_frac",
            of_cycles(sum.skip_mem_wait),
            "fraction",
        ),
        (
            "sched.skip_issue_frac",
            of_cycles(sum.skip_issue_wait),
            "fraction",
        ),
        (
            "sched.skip_ftq_frac",
            of_cycles(sum.skip_ftq_wait),
            "fraction",
        ),
        (
            "sched.skip_policy_frac",
            of_cycles(sum.skip_policy_idle),
            "fraction",
        ),
        ("frontend.ipfc", sum.ipfc(), "inst/cycle"),
        ("frontend.cond_accuracy", sum.branch_accuracy(), "fraction"),
        (
            "frontend.mispredicts_pki",
            ratio(sum.control_mispredicts as f64, kinsts),
            "1/kinst",
        ),
        (
            "frontend.insts_per_block",
            ratio(sum.fetched as f64, sum.blocks_predicted as f64),
            "inst",
        ),
        (
            "frontend.hist_mismatches",
            sum.hist_mismatches as f64,
            "count",
        ),
        (
            "fetch.wrong_path_frac",
            sum.wrong_path_fraction(),
            "fraction",
        ),
        (
            "fetch.ge8_frac",
            ratio(ge8, fetch_cycles_dist as f64),
            "fraction",
        ),
        (
            "fetch.bank_conflicts_pki",
            ratio(sum.bank_conflicts as f64, kinsts),
            "1/kinst",
        ),
        (
            "fetch.buffer_full_frac",
            of_cycles(sum.fetch_buffer_stalls),
            "fraction",
        ),
        (
            "recovery.squashed_pki",
            ratio(sum.squashed as f64, kinsts),
            "1/kinst",
        ),
        ("recovery.flushes", sum.flushes as f64, "count"),
    ]));
    let names = [
        "stall.icache_frac",
        "stall.bank_frac",
        "stall.starved_frac",
        "stall.rob_full_frac",
        "stall.issue_frac",
        "stall.dcache_frac",
        "stall.residual_frac",
    ];
    for (name, b) in names.into_iter().zip(buckets) {
        m.push((name.to_string(), ratio(b as f64, tc), "fraction"));
    }
    let geomean = ratio(log_ipc.iter().sum(), log_ipc.len() as f64).exp();
    m.push(("core.ipc_geomean".to_string(), geomean, "inst/cycle"));
}

fn per_layer(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let seed = args.program_seed;
    let mut tracer = Tracer::new();
    let root = tracer.open("workload", spec.name.to_string(), None);
    let mut cells: Cells = Vec::with_capacity(spec.cells.len());
    let mut probe = Probe::new();
    for cell in &spec.cells {
        let span = tracer.open("cell", cell.label(), Some(root));
        let mut trace = Some((&mut tracer, span));
        cells.push(attempt(cell, || {
            let (warm, mut run) = start(cell, seed, &mut trace)?;
            window(cell, &warm, &mut run)?;
            traced_window(&warm, &mut run, &mut trace)?;
            Ok((warm, run))
        }));
        tracer.close(span);
        probe.sample();
    }
    print_cells(spec, &cells);
    let replays = replay::run(&spec.table2(), args.program_seed, &mut tracer, root)?;
    tracer.close(root);
    if let Some(dir) = &args.spans_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = dir.join(format!(
            "{}-seed{}-programs{}.jsonl",
            spec.name, args.seed, args.program_seed
        ));
        std::fs::write(&file, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!("perfbench: spans written to {}", file.display());
    }

    let untraced_ns = measure_ns(&cells);
    let traced_ns: u64 = runs(&cells).map(|r| r.traced_ns).sum();
    let chunks: Vec<f64> = runs(&cells)
        .flat_map(|r| r.chunk_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let (tail_pct, tail_us) = tail_percentile(&chunks).unwrap_or((0.0, 0.0));
    if tail_pct != 99.0 {
        return Err(format!(
            "{} chunks support p{tail_pct}, not p99",
            chunks.len()
        ));
    }
    let chunk_ns: u64 = runs(&cells).flat_map(|r| &r.chunk_ns).sum();
    let cycles: u64 = runs(&cells).map(|r| r.stats.cycles).sum();
    let stepped: u64 = runs(&cells)
        .map(|r| r.stats.cycles - r.stats.skipped_cycles())
        .sum();
    let build_ns: u64 = runs(&cells).map(|r| r.build_ns[0]).sum();
    let r = &replays;
    let mut m = named([
        ("workloads.synth_ms", r.synth_ns / 1e6, "ms"),
        ("workloads.walk_ns_per_inst", r.walk.ns_per_op(), "ns"),
        ("core.build_ms", build_ns as f64 / 1e6, "ms"),
        (
            "core.ns_per_sim_cycle",
            ratio(chunk_ns as f64, cycles as f64),
            "ns",
        ),
        (
            "core.ns_per_stepped_cycle",
            ratio(chunk_ns as f64, stepped as f64),
            "ns",
        ),
        ("core.chunk_us_p50", median(&chunks), "us"),
        ("core.chunk_us_p99", tail_us, "us"),
        ("core.chunk_samples", chunks.len() as f64, "count"),
        // The traced run's times are host-clock times; this is the factor
        // the end-to-end run divides out.
        ("host.probe_ms", probe.median_ns() / 1e6, "ms"),
    ]);
    counter_metrics(spec, &cells, &mut m);
    for (name, layer) in [
        ("gshare", r.gshare),
        ("gskew", r.gskew),
        ("btb", r.btb),
        ("ftb", r.ftb),
        ("stream", r.stream),
    ] {
        m.push((format!("bpred.{name}_ns_per_op"), layer.ns_per_op(), "ns"));
        m.push((
            format!("bpred.{name}_hit_rate"),
            layer.hit_rate(),
            "fraction",
        ));
    }
    m.extend(named([
        ("mem.fetch_ns_per_op", r.mem_fetch.ns_per_op(), "ns"),
        ("mem.load_ns_per_op", r.mem_data.ns_per_op(), "ns"),
        ("mem.l1i_miss_rate", r.l1i.miss_rate(), "fraction"),
        ("mem.l1d_miss_rate", r.l1d.miss_rate(), "fraction"),
        ("mem.l2_miss_rate", r.l2.miss_rate(), "fraction"),
        (
            "trace_overhead_frac",
            ratio(traced_ns as f64, untraced_ns) - 1.0,
            "fraction",
        ),
    ]));
    Ok(Outcome {
        attempted: spec.cells.len(),
        failed: failed(&cells),
        metrics: m,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (never expected) is written as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the measured path");
        return ExitCode::from(2);
    }
    let Some(mut spec) = cells::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            cells::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    spec.shuffle(args.seed);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"program_seed\": {}, \"trace\": {}, \"cells\": {}, \"warmup_cycles\": {}, \"measure_cycles\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}}}}}",
        json_str(spec.name),
        args.seed,
        args.program_seed,
        u8::from(args.trace),
        spec.cells.len(),
        WARMUP_CYCLES,
        MEASURE_CYCLES,
        json_str(&args.rustc),
        json_str(&args.commit),
    );
    let outcome = if args.trace {
        per_layer(&spec, &args)
    } else {
        end_to_end(&spec, &args)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
