//! # smtfetch — a reproduction of the HPCA 2004 SMT fetch-unit study
//!
//! This facade crate re-exports the full public API of the `smtfetch`
//! workspace, which reproduces Falcón, Ramirez & Valero, *"A Low-Complexity,
//! High-Performance Fetch Unit for Simultaneous Multithreading Processors"*
//! (HPCA 2004):
//!
//! * [`isa`] — the abstract instruction model;
//! * [`workloads`] — synthetic SPECint2000 benchmark clones and the paper's
//!   multithreaded workloads (Table 1, Table 2);
//! * [`bpred`] — branch-prediction substrates (gshare, gskew, BTB, FTB,
//!   stream predictor, RAS);
//! * [`mem`] — the cache hierarchy (Table 3);
//! * [`core`] — the SMT out-of-order pipeline with decoupled 1.X / 2.X fetch
//!   architectures and the ICOUNT fetch policy;
//! * [`experiments`] — runners that regenerate every table and figure of the
//!   paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use smtfetch::core::{FetchEngineKind, FetchPolicy, SimBuilder};
//! use smtfetch::workloads::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate the paper's gzip–twolf 2_MIX workload for 20k cycles with the
//! // stream front-end fetching from one thread, 16 instructions per cycle.
//! let mut sim = SimBuilder::new(Workload::mix2().programs(42)?)
//!     .fetch_engine(FetchEngineKind::Stream)
//!     .fetch_policy(FetchPolicy::icount(1, 16))
//!     .build()?;
//! let stats = sim.run_cycles(20_000);
//! assert!(stats.ipc() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use smt_bpred as bpred;
pub use smt_core as core;
pub use smt_experiments as experiments;
pub use smt_isa as isa;
pub use smt_mem as mem;
pub use smt_workloads as workloads;
