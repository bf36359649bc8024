//! # smt-bpred — branch-prediction substrates
//!
//! The prediction structures of the three SMT front-ends the HPCA 2004 paper
//! compares:
//!
//! | front-end | direction | target / block | extras |
//! |---|---|---|---|
//! | gshare+BTB | [`Gshare`] (64K, 16-bit hist) | [`Btb`] (2K, 4-way) | [`ReturnStack`] |
//! | gskew+FTB | [`Gskew`] (3×32K, 15-bit hist) | [`Ftb`] (2K, 4-way) | [`ReturnStack`] |
//! | stream | — (streams end at taken branches) | [`StreamPredictor`] (1K+4K, 4-way, DOLC 16-2-4-10) | [`ReturnStack`] |
//!
//! All predictor tables are shared among hardware threads, while history
//! registers ([`GlobalHistory`]), path registers ([`StreamPath`]) and return
//! stacks are per-thread — exactly the split Table 3 of the paper marks as
//! "replicated per thread".
//!
//! # Example
//!
//! ```
//! use smt_bpred::{Gshare, GlobalHistory};
//! use smt_isa::Addr;
//!
//! let mut gshare = Gshare::hpca2004();
//! let mut hist = GlobalHistory::new(16);
//! let pc = Addr::new(0x4_0000);
//! let pred = gshare.predict(pc, hist);
//! // ... at resolve time, with the checkpointed history:
//! gshare.update(pc, hist, true);
//! hist.push(true);
//! # let _ = pred;
//! ```

#![warn(missing_docs)]

mod assoc;
mod btb;
mod counters;
mod ftb;
mod gshare;
mod gskew;
mod history;
mod ras;
mod stream;
mod tracecache;

pub use btb::{Btb, BtbEntry};
pub use ftb::{Ftb, FtbEnd, FtbPrediction, ObservedEnd};
pub use gshare::Gshare;
pub use gskew::Gskew;
pub use history::GlobalHistory;
pub use ras::{RasCheckpoint, ReturnStack};
pub use stream::{Dolc, ObservedStream, StreamEnd, StreamPath, StreamPrediction, StreamPredictor};
pub use tracecache::{Trace, TraceCache, TraceSegment};
