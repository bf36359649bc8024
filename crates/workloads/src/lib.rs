//! # smt-workloads — synthetic SPECint2000 benchmark clones
//!
//! The HPCA 2004 paper evaluates on traces of the twelve SPECint2000
//! benchmarks (Table 1), combined into ten multithreaded workloads
//! (Table 2). Those Alpha traces are unavailable, so this crate builds the
//! closest synthetic equivalent: **statistical benchmark clones** — programs
//! generated from per-benchmark profiles that calibrate the distributional
//! properties the paper's evaluation actually exercises (average basic-block
//! size, branch-behaviour mix, taken-branch rate, memory working-set size
//! and pointer-chase fraction, dependence density).
//!
//! The pieces:
//!
//! * [`BenchmarkProfile`] — per-benchmark calibration (Table 1);
//! * [`ProgramBuilder`] — synthesizes a static [`Program`] from a profile;
//! * [`Walker`] — deterministically walks a program, producing the
//!   correct-path dynamic instruction stream (and synthesizing wrong-path
//!   instructions for the simulator's speculative fetch);
//! * [`Workload`] — the ten Table 2 workloads (2/4/6/8 × ILP/MEM/MIX).
//!
//! # Example
//!
//! ```
//! use smt_workloads::{Walker, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let programs = Workload::mix2().programs(42)?;   // gzip + twolf
//! let mut w = Walker::new(programs[0].clone(), 0);
//! let stats = w.measure(100_000);
//! // gzip's Table 1 basic-block size is 11.02.
//! assert!(stats.avg_bb_size() > 7.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod behavior;
mod builder;
mod program;
mod rng;
mod spec;
mod walker;
mod workloads;

pub use builder::ProgramBuilder;
pub use program::Program;
pub use rng::Srng;
pub use spec::BenchmarkProfile;
pub use walker::{DynStats, Walker};
pub use workloads::{UnknownBenchmarkError, Workload, WorkloadClass};
