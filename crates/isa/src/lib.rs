//! # smt-isa — abstract instruction-set model
//!
//! Timing-relevant instruction model for the `smtfetch` simulator, which
//! reproduces Falcón, Ramirez & Valero, *"A Low-Complexity, High-Performance
//! Fetch Unit for Simultaneous Multithreading Processors"* (HPCA 2004).
//!
//! The paper simulates DEC Alpha binaries; the simulator only ever consumes
//! the *timing-relevant* properties of an instruction: its address, its class
//! (integer/floating-point/memory/branch), its register dependences, and — for
//! branches — its outcome and target. This crate defines exactly that model:
//!
//! * [`Addr`] — byte addresses in a flat instruction/data space, with
//!   cache-line and bank arithmetic ([`INST_BYTES`] = 4, as on Alpha).
//! * [`ArchReg`] / [`RegClass`] — architectural register names.
//! * [`InstClass`] / [`BranchKind`] — instruction classes and branch flavours.
//! * [`StaticInst`] — one instruction of the *static* program (the
//!   "basic-block dictionary" of the paper's modified SMTSIM).
//! * [`DynInst`] — one *dynamic* instruction flowing down the pipeline.
//! * [`FetchBlock`] — a front-end fetch request: the unit of work placed in a
//!   fetch target queue (FTQ) by the prediction stage.
//!
//! Configuration diagnostics live in `smt-core`, whose `SimConfig` is the
//! only configuration a caller supplies.
//!
//! # Example
//!
//! ```
//! use smt_isa::{Addr, InstClass, BranchKind};
//!
//! let pc = Addr::new(0x1000);
//! assert_eq!(pc.line(64), Addr::new(0x1000));
//! assert_eq!(pc.insts_to_line_end(64), 16);
//! assert!(InstClass::Branch(BranchKind::Cond).is_branch());
//! ```

#![warn(missing_docs)]

mod addr;
mod block;
mod inst;
mod presized;
mod reg;

pub use addr::{Addr, INST_BYTES};
pub use block::{EndBranch, FetchBlock};
pub use inst::{BranchKind, DynInst, InstClass, MemAccess, StaticInst, StaticInstId};
pub use presized::Presized;
pub use reg::{ArchReg, RegClass, NUM_ARCH_FP, NUM_ARCH_INT};

/// Identifier of a hardware thread context (0-based).
///
/// The paper evaluates workloads of 2, 4, 6 and 8 threads; we allow up to
/// [`MAX_THREADS`].
pub type ThreadId = usize;

/// Maximum number of hardware thread contexts supported by the model.
pub const MAX_THREADS: usize = 8;

/// A simulation cycle count.
pub type Cycle = u64;

/// A count or offset of instructions inside the in-flight machine: FTQ
/// consumption offsets, per-cycle fetch budgets, window-occupancy deltas.
///
/// One deliberate type for every such count keeps the arithmetic around the
/// FTQ head free of narrowing `as` casts: convert with [`inst_idx`] instead
/// of `as`, so a count that somehow escaped its geometric bound saturates
/// visibly rather than truncating silently.
pub type InstIdx = u32;

/// Converts an integer count into an [`InstIdx`] without a lossy cast.
///
/// Saturates at `InstIdx::MAX` instead of truncating. Every call site in the
/// simulator is bounded by fetch-block or window geometry (tens to a few
/// thousand), so saturation is unreachable in practice and exists only to
/// keep the conversion total and panic-free.
#[inline]
pub fn inst_idx<T: TryInto<InstIdx>>(v: T) -> InstIdx {
    v.try_into().unwrap_or(InstIdx::MAX)
}
