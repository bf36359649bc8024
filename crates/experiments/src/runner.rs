//! Running simulator configurations and collecting results.

use std::sync::Arc;

use smt_core::{FetchEngineKind, FetchPolicy, SimBuilder, SimConfig, SimStats, Simulator};
use smt_workloads::{Program, Workload};

use crate::sweep::{sweep_cells, Jobs, Sweep};

/// How long to simulate each configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLength {
    /// Cycles simulated before statistics start (predictor/cache warmup).
    pub warmup_cycles: u64,
    /// Cycles measured after warmup.
    pub measure_cycles: u64,
}

impl RunLength {
    /// The default evaluation length: 30k warmup + 120k measured cycles.
    pub const DEFAULT: RunLength = RunLength {
        warmup_cycles: 30_000,
        measure_cycles: 120_000,
    };

    /// A short length for smoke tests.
    pub const SMOKE: RunLength = RunLength {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
    };

    /// Reads an override from `SMT_EXP_CYCLES` (measured cycles; warmup is
    /// a quarter of it), falling back to [`RunLength::DEFAULT`].
    pub fn from_env() -> RunLength {
        match std::env::var("SMT_EXP_CYCLES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(c) if c > 0 => RunLength {
                warmup_cycles: c / 4,
                measure_cycles: c,
            },
            _ => RunLength::DEFAULT,
        }
    }
}

/// The outcome of one simulated configuration.
///
/// Equality is bit-exact on every metric (the fields are deterministic
/// functions of the seed), which is what the parallel-vs-serial equivalence
/// tests and the golden-snapshot harness compare.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name (e.g. `"4_MIX"`).
    pub workload: String,
    /// Fetch engine name.
    pub engine: String,
    /// Fetch policy name (e.g. `"ICOUNT.1.16"`).
    pub policy: String,
    /// Fetch throughput (instructions per fetch cycle).
    pub ipfc: f64,
    /// Commit throughput (instructions per cycle).
    pub ipc: f64,
    /// Conditional direction-prediction accuracy.
    pub branch_accuracy: f64,
    /// Fraction of fetched instructions on the wrong path.
    pub wrong_path: f64,
    /// Fraction of fetch cycles delivering ≥ 4 instructions.
    pub frac_ge4: f64,
    /// Fraction of fetch cycles delivering ≥ 8 instructions.
    pub frac_ge8: f64,
    /// Fraction of fetch cycles delivering exactly 8 instructions.
    pub frac_eq8: f64,
    /// Fraction of fetch cycles delivering ≥ 16 instructions.
    pub frac_ge16: f64,
    /// Per-thread IPC, in workload thread order.
    pub per_thread_ipc: Vec<f64>,
    /// Fairness: min over max of per-thread IPC (1 = perfectly balanced,
    /// → 0 when some thread starves).
    pub fairness: f64,
    /// Measured cycles the event-driven scheduler skipped rather than
    /// stepped (sum of the four per-reason counters; deterministic, like
    /// every other field).
    pub skipped_cycles: u64,
}

impl RunResult {
    fn from_stats(
        workload: &Workload,
        engine: FetchEngineKind,
        policy: FetchPolicy,
        s: &SimStats,
    ) -> Self {
        RunResult {
            workload: workload.name().to_string(),
            engine: engine.to_string(),
            policy: policy.to_string(),
            ipfc: s.ipfc(),
            ipc: s.ipc(),
            branch_accuracy: s.branch_accuracy(),
            wrong_path: s.wrong_path_fraction(),
            frac_ge4: s.distribution.frac_at_least(4),
            frac_ge8: s.distribution.frac_at_least(8),
            frac_eq8: s.distribution.frac_exactly(8),
            frac_ge16: s.distribution.frac_at_least(16),
            per_thread_ipc: (0..workload.num_threads())
                .map(|t| s.committed[t] as f64 / s.cycles.max(1) as f64)
                .collect(),
            fairness: {
                let per: Vec<f64> = (0..workload.num_threads())
                    .map(|t| s.committed[t] as f64 / s.cycles.max(1) as f64)
                    .collect();
                let max = per.iter().cloned().fold(0.0, f64::max);
                let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
                if max > 0.0 {
                    min / max
                } else {
                    0.0
                }
            },
            skipped_cycles: s.skipped_cycles(),
        }
    }
}

/// The seed every experiment uses (reproducibility).
pub const EXP_SEED: u64 = 2004;

/// Builds a simulator warmed past `warmup_cycles` with statistics reset,
/// ready for the measurement phase.
fn warmed_simulator(
    programs: Vec<Arc<Program>>,
    engine: FetchEngineKind,
    cfg: &SimConfig,
    warmup_cycles: u64,
) -> Simulator {
    let mut sim = SimBuilder::new_shared(programs)
        .fetch_engine(engine)
        .config(cfg.clone())
        .build()
        .expect("1..=8 threads and a validated config"); // lint:allow(no-panic): validated config with 1..=8 threads
    sim.run_cycles(warmup_cycles);
    sim.reset_stats();
    sim
}

/// The shared body of [`run`] / [`run_with_config`]: preflight, warm up,
/// measure, report.
fn run_measured(
    workload: &Workload,
    engine: FetchEngineKind,
    cfg: SimConfig,
    len: RunLength,
) -> RunResult {
    let policy = cfg.fetch_policy;
    preflight(&cfg, workload.num_threads());
    // Shared programs: every sweep cell for this workload reuses the same
    // cached `Arc<Program>`s instead of re-synthesising them per cell.
    let programs = workload
        .programs_shared(EXP_SEED)
        .expect("table 2 workloads always build"); // lint:allow(no-panic): table 2 workloads are compiled-in and always build
    let mut sim = warmed_simulator(programs, engine, &cfg, len.warmup_cycles);
    // Borrowed stats: sweeps summarize each cell without copying SimStats.
    let stats = sim.run_cycles(len.measure_cycles);
    report_stalls(workload, engine, policy, stats);
    RunResult::from_stats(workload, engine, policy, stats)
}

/// Prints the run's per-thread stall-attribution table to stderr when
/// `SMT_SWEEP_REPORT` is 2 or higher. Pure function of the stats: enabling
/// it cannot perturb results or golden snapshots (stdout is untouched).
fn report_stalls(workload: &Workload, engine: FetchEngineKind, policy: FetchPolicy, s: &SimStats) {
    if crate::sweep::report_level() >= 2 {
        eprintln!(
            "{}",
            crate::report::render_stall_breakdown(
                &format!("{} / {engine} / {policy}", workload.name()),
                s,
                workload.num_threads(),
            )
        );
    }
}

/// Validates `cfg` for `threads` hardware contexts, printing every
/// diagnostic (warnings included) to stderr.
///
/// Exits the process with status 2 when the configuration has errors:
/// experiment binaries run this — directly and through [`run`] /
/// [`run_with_config`] — before any cycle is simulated, so a bad
/// configuration fails fast with stable diagnostic codes instead of
/// producing garbage numbers.
pub fn preflight(cfg: &SimConfig, threads: usize) {
    let diags = cfg.validate_for_threads(threads);
    for d in &diags {
        eprintln!("{d}");
    }
    if smt_core::has_errors(&diags) {
        eprintln!("smt-experiments: configuration rejected by validator");
        std::process::exit(2);
    }
}

/// [`preflight`] for the Table 3 default configuration at every hardware
/// thread count — the one-line sanity gate each experiment binary runs
/// first.
pub fn preflight_default() {
    for threads in 1..=smt_isa::MAX_THREADS {
        preflight(&SimConfig::default(), threads);
    }
}

/// Runs one `(workload, engine, policy)` configuration.
///
/// # Panics
///
/// Panics if the workload's programs cannot be built (impossible for the
/// built-in Table 2 workloads).
pub fn run(
    workload: &Workload,
    engine: FetchEngineKind,
    policy: FetchPolicy,
    len: RunLength,
) -> RunResult {
    let cfg = SimConfig {
        fetch_policy: policy,
        ..SimConfig::default()
    };
    run_measured(workload, engine, cfg, len)
}

/// Runs one configuration with a fully custom [`smt_core::SimConfig`].
///
/// # Panics
///
/// Panics if the workload's programs cannot be built.
pub fn run_with_config(
    workload: &Workload,
    engine: FetchEngineKind,
    cfg: smt_core::SimConfig,
    len: RunLength,
) -> RunResult {
    run_measured(workload, engine, cfg, len)
}

/// Runs the full cross product `workloads × policies × engines`, serially.
///
/// Results are ordered with the workload outermost, then the policy, then
/// the engine innermost — the nesting the paper's grouped-bar figures use
/// (rows grouped by `(workload, policy)`, one bar per engine). This order
/// is part of the API contract and is locked by the golden ordering test;
/// [`run_matrix_parallel`] returns the identical order for any worker count.
pub fn run_matrix(
    workloads: &[Workload],
    engines: &[FetchEngineKind],
    policies: &[FetchPolicy],
    len: RunLength,
) -> Vec<RunResult> {
    run_matrix_parallel(workloads, engines, policies, len, Jobs::SERIAL)
}

/// [`run_matrix`] on a pool of `jobs` workers.
///
/// Each cell is an independent deterministic simulation, and the executor
/// addresses output slots by cell index ([`sweep_cells`]), so the returned
/// vector is bit-for-bit identical to the serial [`run_matrix`] — same
/// order, same values — regardless of `jobs`.
pub fn run_matrix_parallel(
    workloads: &[Workload],
    engines: &[FetchEngineKind],
    policies: &[FetchPolicy],
    len: RunLength,
    jobs: Jobs,
) -> Vec<RunResult> {
    run_matrix_sweep(workloads, engines, policies, len, jobs).results
}

/// [`run_matrix_parallel`], additionally returning per-cell observability
/// stats (label, simulated cycles, wall-time, worker id) for progress and
/// straggler reports.
pub fn run_matrix_sweep(
    workloads: &[Workload],
    engines: &[FetchEngineKind],
    policies: &[FetchPolicy],
    len: RunLength,
    jobs: Jobs,
) -> Sweep<RunResult> {
    // Stable cell order: workload × policy × engine (see `run_matrix`).
    let cells: Vec<(&Workload, FetchEngineKind, FetchPolicy)> = workloads
        .iter()
        .flat_map(|w| {
            policies
                .iter()
                .flat_map(move |&p| engines.iter().map(move |&e| (w, e, p)))
        })
        .collect();
    let mut sweep = sweep_cells(
        cells.len(),
        jobs,
        len.measure_cycles,
        |i| {
            let (w, e, p) = &cells[i];
            format!("{} {} {}", w.name(), e, p)
        },
        |i| {
            let (w, e, p) = cells[i];
            run(w, e, p, len)
        },
    );
    // The executor has no view into the result type; fill in the per-cell
    // skip counts (for the skip-rate column of the progress report) here.
    for (stat, result) in sweep.stats.iter_mut().zip(&sweep.results) {
        stat.skipped = result.skipped_cycles;
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_sane_metrics() {
        let r = run(
            &Workload::mix2(),
            FetchEngineKind::GshareBtb,
            FetchPolicy::icount(1, 8),
            RunLength::SMOKE,
        );
        assert!(r.ipc > 0.0 && r.ipc <= 8.0, "ipc {}", r.ipc);
        assert!(r.ipfc > 0.0 && r.ipfc <= 8.0, "ipfc {}", r.ipfc);
        assert!(r.branch_accuracy > 0.5);
        assert_eq!(r.workload, "2_MIX");
        assert_eq!(r.policy, "ICOUNT.1.8");
    }

    #[test]
    fn matrix_covers_cross_product() {
        let rs = run_matrix(
            &[Workload::mix2()],
            &[FetchEngineKind::GshareBtb, FetchEngineKind::Stream],
            &[FetchPolicy::icount(1, 8)],
            RunLength::SMOKE,
        );
        assert_eq!(rs.len(), 2);
        assert_ne!(rs[0].engine, rs[1].engine);
    }

    #[test]
    fn matrix_order_is_workload_policy_engine() {
        // Doc and behaviour agree: workload outermost, policy, then engine.
        let rs = run_matrix(
            &[Workload::mix2()],
            &[FetchEngineKind::GshareBtb, FetchEngineKind::Stream],
            &[FetchPolicy::icount(1, 8), FetchPolicy::icount(1, 16)],
            RunLength::SMOKE,
        );
        let order: Vec<(String, String)> = rs
            .iter()
            .map(|r| (r.policy.clone(), r.engine.clone()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("ICOUNT.1.8".into(), "gshare+BTB".into()),
                ("ICOUNT.1.8".into(), "stream".into()),
                ("ICOUNT.1.16".into(), "gshare+BTB".into()),
                ("ICOUNT.1.16".into(), "stream".into()),
            ]
        );
    }

    #[test]
    fn parallel_matrix_matches_serial_bit_for_bit() {
        let workloads = [Workload::mix2()];
        let engines = [FetchEngineKind::GshareBtb, FetchEngineKind::Stream];
        let policies = [FetchPolicy::icount(1, 8)];
        let serial = run_matrix(&workloads, &engines, &policies, RunLength::SMOKE);
        for jobs in [2usize, 4] {
            let parallel = run_matrix_parallel(
                &workloads,
                &engines,
                &policies,
                RunLength::SMOKE,
                Jobs::new(jobs).expect("valid"),
            );
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn matrix_sweep_reports_per_cell_stats() {
        let sweep = run_matrix_sweep(
            &[Workload::mix2()],
            &[FetchEngineKind::GshareBtb],
            &[FetchPolicy::icount(1, 8)],
            RunLength::SMOKE,
            Jobs::SERIAL,
        );
        assert_eq!(sweep.stats.len(), 1);
        assert_eq!(sweep.stats[0].label, "2_MIX gshare+BTB ICOUNT.1.8");
        assert_eq!(sweep.stats[0].sim_cycles, RunLength::SMOKE.measure_cycles);
        assert_eq!(sweep.stats[0].worker, 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(
            &Workload::ilp2(),
            FetchEngineKind::Stream,
            FetchPolicy::icount(2, 8),
            RunLength::SMOKE,
        );
        let b = run(
            &Workload::ilp2(),
            FetchEngineKind::Stream,
            FetchPolicy::icount(2, 8),
            RunLength::SMOKE,
        );
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.ipfc, b.ipfc);
    }
}
