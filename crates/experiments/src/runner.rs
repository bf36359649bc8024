//! Running simulator configurations and collecting results.

use std::sync::Arc;

use smt_core::{FetchEngineKind, FetchPolicy, SimBuilder, SimConfig, SimStats, Simulator};
use smt_workloads::{Program, Workload};

use crate::sweep::sweep_indexed;

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

    /// Reads an override from `SMT_EXP_CYCLES` ([`RunLength::parse_cycles`]).
    /// Prints the problem and exits with status 2 when the variable is set
    /// but invalid, rather than silently running the default length.
    pub fn from_env() -> RunLength {
        let value = std::env::var_os("SMT_EXP_CYCLES").map(|v| v.to_string_lossy().into_owned());
        match RunLength::parse_cycles(value.as_deref()) {
            Ok(len) => len,
            Err(err) => {
                eprintln!("smt-experiments: {err}");
                std::process::exit(2);
            }
        }
    }

    /// The run length for an `SMT_EXP_CYCLES` value: unset gives
    /// [`RunLength::DEFAULT`]; a positive integer gives that many measured
    /// cycles after a quarter as many warmup cycles; anything else is an
    /// error.
    pub fn parse_cycles(value: Option<&str>) -> Result<RunLength, String> {
        let Some(v) = value else {
            return Ok(RunLength::DEFAULT);
        };
        match v.parse::<u64>() {
            Ok(c) if c > 0 => Ok(RunLength {
                warmup_cycles: c / 4,
                measure_cycles: c,
            }),
            _ => Err(format!(
                "SMT_EXP_CYCLES={v:?} is not a positive number of measured cycles (e.g. 4000)"
            )),
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
    #[expect(clippy::expect_used, reason = "validated config, 1..=8 threads")]
    let mut sim = SimBuilder::new_shared(programs)
        .fetch_engine(engine)
        .config(cfg.clone())
        .build()
        .expect("1..=8 threads and a validated config");
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
    #[expect(clippy::expect_used, reason = "table 2 workloads always build")]
    let programs = workload
        .programs_shared(EXP_SEED)
        .expect("table 2 workloads always build");
    let mut sim = warmed_simulator(programs, engine, &cfg, len.warmup_cycles);
    // Borrowed stats: sweeps summarize each cell without copying SimStats.
    let stats = sim.run_cycles(len.measure_cycles);
    RunResult::from_stats(workload, engine, policy, stats)
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

/// Runs the full cross product `workloads × policies × engines` in
/// parallel ([`sweep_indexed`]).
///
/// Results are ordered with the workload outermost, then the policy, then
/// the engine innermost — the nesting the paper's grouped-bar figures use
/// (rows grouped by `(workload, policy)`, one bar per engine). This order
/// is part of the API contract and is locked by the golden ordering test.
/// Each cell is an independent deterministic simulation, so the result is
/// bit-for-bit that of a serial loop of [`run`] over the same cells.
pub fn run_matrix(
    workloads: &[Workload],
    engines: &[FetchEngineKind],
    policies: &[FetchPolicy],
    len: RunLength,
) -> Vec<RunResult> {
    let cells: Vec<(&Workload, FetchEngineKind, FetchPolicy)> = workloads
        .iter()
        .flat_map(|w| {
            policies
                .iter()
                .flat_map(move |&p| engines.iter().map(move |&e| (w, e, p)))
        })
        .collect();
    sweep_indexed(cells.len(), |i| {
        let (w, e, p) = cells[i];
        run(w, e, p, len)
    })
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
        let policy = FetchPolicy::icount(1, 8);
        let parallel = run_matrix(&workloads, &engines, &[policy], RunLength::SMOKE);
        let serial: Vec<RunResult> = engines
            .iter()
            .map(|&e| run(&workloads[0], e, policy, RunLength::SMOKE))
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn cycles_override_parses_or_rejects() {
        assert_eq!(RunLength::parse_cycles(None), Ok(RunLength::DEFAULT));
        assert_eq!(
            RunLength::parse_cycles(Some("4000")),
            Ok(RunLength {
                warmup_cycles: 1_000,
                measure_cycles: 4_000,
            })
        );
        for bad in ["4k", "0", "-1", "", " 4000", "1e4"] {
            let err = RunLength::parse_cycles(Some(bad)).unwrap_err();
            assert!(err.contains("SMT_EXP_CYCLES"), "{bad:?}: {err}");
        }
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
