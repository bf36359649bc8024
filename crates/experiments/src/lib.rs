//! # smt-experiments — the paper's evaluation, regenerated
//!
//! One runner per table and figure of *"A Low-Complexity, High-Performance
//! Fetch Unit for Simultaneous Multithreading Processors"* (HPCA 2004):
//!
//! | artifact | function | binary |
//! |---|---|---|
//! | Table 1 | [`figures::table1`] | `cargo run -p smt-experiments --bin table1` |
//! | Table 2 | [`figures::table2`] | `table2` |
//! | Table 3 | [`figures::table3`] | `table3` |
//! | Figure 2 | [`figures::figure2`] | `figure2` |
//! | Figure 4 | [`figures::figure4`] | `figure4` |
//! | Figure 5 | [`figures::figure5`] | `figure5` |
//! | Figure 6 | [`figures::figure6`] | `figure6` |
//! | Figure 7 | [`figures::figure7`] | `figure7` |
//! | Figure 8 | [`figures::figure8`] | `figure8` |
//! | §3.3 numbers | [`figures::superscalar`] | `superscalar` |
//!
//! Beyond the paper: `policies` (ICOUNT vs BRCOUNT/MISSCOUNT/STALL/FLUSH
//! with fairness), `tracecache` (stream fetch vs a trace cache), and
//! `ablations` (FTQ depth, fetch-buffer size, block caps).
//!
//! `cargo run --release -p smt-experiments --bin all` regenerates everything
//! and writes a markdown report. Set `SMT_EXP_CYCLES` to change the
//! simulated length (default 120k measured cycles after 30k warmup).
//!
//! Sweeps run on a deterministic parallel executor ([`sweep`]): every
//! binary takes `--jobs N` (or the `SMT_JOBS` environment variable,
//! defaulting to the machine's available parallelism), and results are
//! bit-for-bit identical for any worker count. Set `SMT_SWEEP_REPORT=1` to
//! print per-cell timing/straggler reports to stderr.
//!
//! # Example
//!
//! ```
//! use smt_experiments::{figures, Jobs, RunLength};
//!
//! let fig2 = figures::figure2(RunLength::SMOKE, Jobs::SERIAL);
//! assert_eq!(fig2.results.len(), 2);
//! println!("{}", fig2.text);
//! ```

#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod runner;
pub mod sweep;

pub use figures::{all, Experiment};
pub use report::{
    render_grouped_bars, render_markdown, render_stall_breakdown, render_sweep_stats, render_table,
    Metric,
};
pub use runner::{
    preflight, preflight_default, run, run_matrix, run_matrix_parallel, run_matrix_sweep,
    RunLength, RunResult, EXP_SEED,
};
pub use sweep::{report_level, sweep_cells, sweep_indexed, CellStat, Jobs, JobsError, Sweep};
