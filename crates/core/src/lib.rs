//! # smt-core — the SMT processor simulator
//!
//! An execution-driven, cycle-level simulator of the SMT processor the
//! HPCA 2004 paper evaluates: a 9-stage pipeline with a **decoupled
//! front-end** (prediction stage → per-thread FTQs → fetch stage), an
//! 8-wide out-of-order back end (Table 3 resources), and the paper's two
//! fetch architectures:
//!
//! * **1.X** (Figure 1) — fine-grained, non-simultaneous sharing: one
//!   thread fetches per cycle through a single I-cache port;
//! * **2.X** (Figure 3) — simultaneous sharing: two threads per cycle,
//!   with dual predictor ports, bank-conflict logic and a merge network.
//!
//! Front-ends: gshare+BTB (baseline), gskew+FTB, the stream fetch unit and
//! a trace-cache comparator ([`FetchEngineKind`]), the four arms of the
//! internal `FrontEnd` enum. Thread priority: ICOUNT or round-robin
//! ([`FetchPolicy`]).
//!
//! # Example
//!
//! ```
//! use smt_core::{FetchEngineKind, FetchPolicy, SimBuilder};
//! use smt_workloads::Workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = SimBuilder::new(Workload::mix2().programs(42)?)
//!     .fetch_engine(FetchEngineKind::Stream)
//!     .fetch_policy(FetchPolicy::icount(1, 16))
//!     .build()?;
//! let stats = sim.run_cycles(10_000);
//! println!("IPC = {:.2}, IPFC = {:.2}", stats.ipc(), stats.ipfc());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod diag;
mod frontend;
mod metrics;
mod pipeline;
mod sim;
mod thread;
mod window;

pub use config::{
    FetchEngineKind, FetchPolicy, LongLatencyAction, PolicyKind, SimConfig, DECODE_WIDTH,
    FU_COUNTS, IQ_SIZES, REGS_FP, REGS_INT, ROB_SIZE,
};
pub use diag::Diagnostic;
pub use frontend::{GshareBtb, GskewFtb, LINE_BYTES};
pub use metrics::StallBreakdown;
pub use metrics::{FetchDistribution, SimStats};
pub use sim::{BuildError, SimBuilder, Simulator};
