//! # smt-mem — the memory hierarchy of Table 3
//!
//! Timing models for the caches, TLBs and main memory the HPCA 2004
//! simulator uses:
//!
//! * `Cache` — set-associative tag arrays with LRU and dirty eviction
//!   (L1I/L1D: 32 KB, 2-way; L2: 1 MB, 2-way, 10 cycles);
//! * `MshrFile` — bounded outstanding-miss tracking with hit-under-miss
//!   merging (the paper's non-blocking caches, "an MSHR for each thread");
//! * [`Tlb`] — 48-entry I-TLB / 128-entry D-TLB;
//! * [`MemoryHierarchy`] — the assembled hierarchy with a 100-cycle main
//!   memory.
//!
//! [`MemoryHierarchy::hpca2004`] is the one constructor of the hierarchy;
//! each Table 3 value is a named constant (`HPCA2004_*`). The component
//! constructors cannot fail: they assert their geometry with a message.
//!
//! # Example
//!
//! ```
//! use smt_mem::{FetchOutcome, MemoryHierarchy};
//! use smt_isa::Addr;
//!
//! let mut mem = MemoryHierarchy::hpca2004(2);
//! let pc = Addr::new(0x40_0000);
//! assert!(matches!(mem.fetch(pc, 0), FetchOutcome::Miss { .. }));
//! assert_eq!(mem.fetch(pc, 500), FetchOutcome::Hit);
//! ```

#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod mshr;
mod tlb;

pub use cache::{CacheConfig, CacheStats};
pub use hierarchy::{DataOutcome, FetchOutcome, MemoryHierarchy};

pub use tlb::Tlb;
