//! # smt-experiments — the paper's evaluation, regenerated
//!
//! One runner per table and figure of *"A Low-Complexity, High-Performance
//! Fetch Unit for Simultaneous Multithreading Processors"* (HPCA 2004), and
//! three studies beyond it, all registered by ID in one table:
//!
//! | artifact | function | ID |
//! |---|---|---|
//! | Table 1 | [`figures::table1`] | `table1` |
//! | Table 2 | [`figures::table2`] | `table2` |
//! | Table 3 | [`figures::table3`] | `table3` |
//! | Figure 2 | [`figures::figure2`] | `figure2` |
//! | Figure 4 | [`figures::figure4`] | `figure4` |
//! | Figure 5 | [`figures::figure5`] | `figure5` |
//! | Figure 6 | [`figures::figure6`] | `figure6` |
//! | Figure 7 | [`figures::figure7`] | `figure7` |
//! | Figure 8 | [`figures::figure8`] | `figure8` |
//! | §3.3 numbers | [`figures::superscalar`] | `superscalar` |
//! | beyond: stream fetch vs a trace cache | [`figures::tracecache`] | `tracecache` |
//! | beyond: ICOUNT vs BRCOUNT/MISSCOUNT/STALL/FLUSH, with fairness | [`figures::policies`] | `policies` |
//! | beyond: FTQ depth, fetch-buffer size, block caps | [`figures::ablations`] | `ablations` |
//!
//! `cargo run --release -p smt-experiments --bin all` regenerates every
//! artifact and writes a markdown report to `target/experiments.md`;
//! `--bin all -- figure7 table1` runs and prints only the named ones. Set
//! `SMT_EXP_CYCLES` to change the simulated length (default 120k measured
//! cycles after 30k warmup).
//!
//! Sweeps run their cells on every available core through one parallel map
//! ([`sweep_indexed`]), whose results equal a serial loop's.
//!
//! # Example
//!
//! ```
//! use smt_experiments::{figures, RunLength};
//!
//! let fig2 = figures::figure2(RunLength::SMOKE);
//! assert_eq!(fig2.results.len(), 2);
//! println!("{}", fig2.text);
//! ```

#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod runner;
pub mod sweep;

pub use figures::Experiment;
pub use report::{
    render_grouped_bars, render_markdown, render_markdown_table, render_stall_breakdown,
    render_table, Metric,
};
pub use runner::{run, run_matrix, RunLength, RunResult, EXP_SEED};
pub use sweep::sweep_indexed;
