//! The pipeline-stage decomposition of the cycle loop.
//!
//! Each stage is a struct owning its own scratch buffers and exposing
//! `fn tick(&mut self, ctx: &mut PipelineCtx)` ([`PipelineStage`]); the
//! shared machine state — threads, queues, register files, memory, stats —
//! lives in [`PipelineCtx`]. `Simulator::step` calls the stages in reverse
//! pipeline order (commit side first), exactly as the monolithic loop did,
//! so stage decomposition is behavior-preserving by construction.
//!
//! The stages also *attribute stalls*: as each stage runs it marks, per
//! thread, which bottleneck it observed this cycle (bits in
//! [`PipelineCtx::stall_flags`]); [`attribute_stalls`] then charges each
//! active thread's cycle to exactly one [`StallBreakdown`] bucket (highest
//! severity wins) or to the idle/overlap residual, so the buckets plus the
//! residual always sum to total cycles per thread.

pub(crate) mod commit;
pub(crate) mod decode_rename;
pub(crate) mod fetch;
pub(crate) mod issue;
pub(crate) mod recovery;
pub(crate) mod sched;

use std::collections::VecDeque;

use smt_isa::{Addr, Cycle, InstClass, Presized, MAX_THREADS};
use smt_mem::MemoryHierarchy;

use crate::config::{LongLatencyAction, PolicyKind, SimConfig};
use crate::frontend::AnyFrontEnd;
use crate::metrics::SimStats;
use crate::thread::ThreadState;
use crate::window::PhysReg;

pub(crate) use commit::CommitStage;
pub(crate) use decode_rename::{DecodeStage, DispatchStage, RenameStage};
pub(crate) use fetch::{FetchStage, PredictStage};
pub(crate) use issue::IssueStage;
pub(crate) use recovery::ResolveStage;

/// A data access slower than this many cycles counts as a long-latency
/// (memory) miss for the STALL/FLUSH mechanisms and the MISSCOUNT metric —
/// above the 10-cycle L2 hit, below the 100-cycle memory access.
pub(crate) const LONG_LATENCY: u64 = 30;

/// One pipeline stage: owns its scratch, ticks once per cycle against the
/// shared context.
pub(crate) trait PipelineStage {
    /// Advances the stage one cycle.
    fn tick(&mut self, ctx: &mut PipelineCtx);

    /// The stage's event-horizon report (DESIGN.md §14): without mutating
    /// anything, decide whether [`PipelineStage::tick`] would change machine
    /// state *this* cycle (`ev.act()`), and if not, register the earliest
    /// future cycle at which this stage's inputs can change on their own
    /// (`ev.event(at, reason)`) plus the per-thread stall bits the stage
    /// would charge on every idle cycle until then (`ev.flag`). The
    /// scheduler jumps to the minimum reported event when no stage acts;
    /// a stage whose unblocking depends solely on another stage acting
    /// reports nothing.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut sched::EventHorizon);
}

// Per-thread stall-observation bits, set by the stages as they run and
// consumed (then cleared) by `attribute_stalls` at the end of the cycle.
/// Fetch blocked on an I-cache miss (or a miss was taken this cycle).
pub(crate) const STALL_ICACHE_MISS: u8 = 1 << 0;
/// Fetch lost an I-cache bank to a higher-priority thread (2.X only).
pub(crate) const STALL_BANK_CONFLICT: u8 = 1 << 1;
/// Thread was fetch-ready but the policy served other threads first.
pub(crate) const STALL_FETCH_STARVED: u8 = 1 << 2;
/// Dispatch blocked because the shared ROB was full.
pub(crate) const STALL_ROB_FULL: u8 = 1 << 3;
/// A ready instruction could not issue: functional units exhausted.
pub(crate) const STALL_ISSUE_WIDTH: u8 = 1 << 4;
/// Commit blocked behind an outstanding data-cache miss.
pub(crate) const STALL_DCACHE_MISS: u8 = 1 << 5;

/// Issue-queue entry.
///
/// Besides the identifying `(tid, seq)` pair, the entry caches everything
/// the issue scan needs from the in-flight instruction — renamed sources,
/// class, memory address, wrong-path bit — all of which are immutable after
/// dispatch. The per-cycle wakeup scan therefore runs over the contiguous
/// queue `Vec` alone, never chasing into the per-thread window deques; the
/// window entry is only touched on actual issue (to record `issued` /
/// `done_at`). Sound because a queue entry cannot outlive its window
/// instruction: squash and flush purge the queues in the same call that
/// rolls the window back, and commit only retires already-issued heads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IqEntry {
    pub(crate) tid: usize,
    pub(crate) seq: u64,
    pub(crate) entered: Cycle,
    /// Cached earliest cycle this entry could issue — an *exact* bound, not
    /// a heuristic: `entered + 1` until the sources are examined, then the
    /// max source `ready_at` once every source is finite (finite `ready_at`
    /// values never change while a consumer is in flight: the producer's
    /// register cannot be reallocated before the consumer commits). Entries
    /// with an unresolved (`u64::MAX`) source are re-examined every cycle.
    /// Lets the issue scan skip operand-blocked entries with one compare
    /// instead of `ready_at` loads, without changing the issue order or
    /// timing by a single cycle.
    pub(crate) wake: Cycle,
    /// Renamed source registers, fixed at dispatch.
    pub(crate) src_phys: [Option<PhysReg>; 2],
    /// Instruction class (selects latency and, for loads/stores, the data
    /// cache path).
    pub(crate) class: InstClass,
    /// Wrong-path bit (wrong-path loads never arm STALL/FLUSH).
    pub(crate) wrong_path: bool,
    /// Data address for loads and stores.
    pub(crate) mem_addr: Option<Addr>,
}

/// Pipeline-latch entry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LatchEntry {
    pub(crate) tid: usize,
    pub(crate) seq: u64,
    pub(crate) entered: Cycle,
}

/// Thread ids in fetch-priority order: a fixed-size list so the per-cycle
/// priority computation needs no heap.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Priorities {
    tids: [usize; MAX_THREADS],
    len: usize,
}

impl Priorities {
    pub(crate) fn order(&self) -> &[usize] {
        &self.tids[..self.len]
    }
}

/// I-cache banks touched so far this cycle. The per-cycle fetch budget is at
/// most 16 instructions (one 64-byte line, two if the start is unaligned) per
/// port, so a small fixed array covers every reachable configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BankSet {
    banks: [u64; 8],
    len: usize,
}

impl BankSet {
    pub(crate) fn new() -> Self {
        BankSet {
            banks: [0; 8],
            len: 0,
        }
    }

    pub(crate) fn contains(&self, bank: u64) -> bool {
        self.banks[..self.len].contains(&bank)
    }

    pub(crate) fn push(&mut self, bank: u64) {
        debug_assert!(self.len < self.banks.len(), "more lines than fetch width");
        if self.len < self.banks.len() {
            self.banks[self.len] = bank;
            self.len += 1;
        }
    }
}

/// The shared machine state every stage ticks against: configuration, the
/// front-end engine, per-thread state, the inter-stage queues, register
/// files, memory, and statistics. What used to be loose fields on the
/// monolithic `Simulator` — stages now borrow it mutably one at a time.
#[derive(Clone, Debug)]
pub(crate) struct PipelineCtx {
    pub(crate) cfg: SimConfig,
    pub(crate) frontend: AnyFrontEnd,
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) cycle: Cycle,
    pub(crate) fetch_buffer: Presized<VecDeque<LatchEntry>>,
    pub(crate) decode_latch: Presized<VecDeque<LatchEntry>>,
    pub(crate) rename_latch: Presized<VecDeque<LatchEntry>>,
    pub(crate) iq_int: Presized<Vec<IqEntry>>,
    pub(crate) iq_ls: Presized<Vec<IqEntry>>,
    pub(crate) iq_fp: Presized<Vec<IqEntry>>,
    /// Cycle at which statistics were last reset (for warmup exclusion).
    pub(crate) stats_since: Cycle,
    pub(crate) free_int: Presized<Vec<PhysReg>>,
    pub(crate) free_fp: Presized<Vec<PhysReg>>,
    /// Cycle at which each physical register's value is ready.
    pub(crate) ready_at: Vec<Cycle>,
    pub(crate) rob_occ: u32,
    /// Per-thread entry count across the six pre-issue structures (fetch
    /// buffer, decode/rename latches, three issue queues) — the ICOUNT
    /// metric, maintained incrementally at each insert/remove so the
    /// per-cycle priority computation does not rescan every queue. A debug
    /// assertion in [`PipelineCtx::priorities`] cross-checks it against the
    /// full recount on every use.
    pub(crate) preissue: [u32; MAX_THREADS],
    /// Per-thread stall-observation bits for the cycle in progress
    /// (`STALL_*` constants), consumed by [`attribute_stalls`].
    pub(crate) stall_flags: [u8; MAX_THREADS],
    pub(crate) stats: SimStats,
}

impl PipelineCtx {
    /// Total entries across the six pre-issue structures (the quantity the
    /// incremental `preissue` counters track, summed over threads).
    pub(crate) fn preissue_live(&self) -> usize {
        self.fetch_buffer.len()
            + self.decode_latch.len()
            + self.rename_latch.len()
            + self.iq_int.len()
            + self.iq_ls.len()
            + self.iq_fp.len()
    }

    /// Per-thread pre-issue instruction counts recomputed from the queues —
    /// the reference the incremental `preissue` counters are checked against
    /// (debug builds) on every ICOUNT priority computation.
    pub(crate) fn icounts(&self) -> [u32; MAX_THREADS] {
        let mut c = [0u32; MAX_THREADS];
        for e in self
            .fetch_buffer
            .iter()
            .chain(self.decode_latch.iter())
            .chain(self.rename_latch.iter())
        {
            c[e.tid] += 1;
        }
        for e in self
            .iq_int
            .iter()
            .chain(self.iq_ls.iter())
            .chain(self.iq_fp.iter())
        {
            c[e.tid] += 1;
        }
        c
    }

    /// Per-thread pre-issue *branch* counts (the BRCOUNT metric).
    pub(crate) fn brcounts(&self) -> [u32; MAX_THREADS] {
        let mut c = [0u32; MAX_THREADS];
        let mut count = |tid: usize, seq: u64| {
            // The branch bit lives in the control flags, so the metric scan
            // never touches the payload column.
            if let Some(ctl) = self.threads[tid].window.ctl(seq) {
                if ctl.is_branch() {
                    c[tid] += 1;
                }
            }
        };
        for e in self
            .fetch_buffer
            .iter()
            .chain(self.decode_latch.iter())
            .chain(self.rename_latch.iter())
        {
            count(e.tid, e.seq);
        }
        for e in self
            .iq_int
            .iter()
            .chain(self.iq_ls.iter())
            .chain(self.iq_fp.iter())
        {
            count(e.tid, e.seq);
        }
        c
    }

    /// Thread ids in fetch-priority order under the configured policy.
    ///
    /// Each thread's sort key is packed into one `u64` — the policy metric
    /// in the high bits, the *rotated* thread id below it, the thread id
    /// itself in the low byte for recovery — so the per-cycle sort compares
    /// single words. The rotated id is unique per thread, so keys are unique
    /// and the unstable (allocation-free) sort is deterministic; the metric
    /// is bounded by the window size (≪ 2⁴⁸), so the fields never collide.
    pub(crate) fn priorities(&self) -> Priorities {
        let n = self.threads.len();
        let mut tids = [0usize; MAX_THREADS];
        if n == 1 {
            return Priorities { tids, len: 1 };
        }
        #[expect(clippy::cast_possible_truncation, reason = "remainder < n, a usize")]
        let rot = (self.cycle % n as u64) as usize;
        let now = self.cycle;
        let pack = |metric: u64, t: usize| {
            debug_assert!(metric < 1 << 48);
            (metric << 16) | ((((t + n - rot) % n) as u64) << 8) | t as u64
        };
        let mut keys = [0u64; MAX_THREADS];
        match self.cfg.fetch_policy.kind {
            PolicyKind::Icount => {
                debug_assert_eq!(
                    self.icounts(),
                    self.preissue,
                    "incremental ICOUNT counters diverged from the queues"
                );
                for (t, k) in keys.iter_mut().enumerate().take(n) {
                    *k = pack(self.preissue[t] as u64, t);
                }
            }
            PolicyKind::RoundRobin => {
                // A pure rotation: construct the order directly.
                for (i, slot) in tids.iter_mut().enumerate().take(n) {
                    *slot = (rot + i) % n;
                }
                return Priorities { tids, len: n };
            }
            PolicyKind::BrCount => {
                let bc = self.brcounts();
                for (t, k) in keys.iter_mut().enumerate().take(n) {
                    *k = pack(bc[t] as u64, t);
                }
            }
            PolicyKind::MissCount => {
                for (t, th) in self.threads.iter().enumerate() {
                    let mc = th.outstanding_misses.iter().filter(|&&r| r > now).count();
                    keys[t] = pack(mc as u64, t);
                }
            }
        }
        keys[..n].sort_unstable();
        for (slot, &k) in tids.iter_mut().zip(keys.iter()).take(n) {
            *slot = (k & 0xff) as usize;
        }
        Priorities { tids, len: n }
    }

    /// Whether STALL/FLUSH gating blocks `tid` from front-end service.
    pub(crate) fn gated(&self, tid: usize) -> bool {
        self.cfg.fetch_policy.long_latency != LongLatencyAction::None
            && self.threads[tid]
                .mem_stall_until
                .is_some_and(|until| until > self.cycle)
    }

    /// Which issue queue serves an instruction class (0 = int, 1 = L/S,
    /// 2 = fp).
    pub(crate) fn queue_for(class: InstClass) -> usize {
        match class {
            InstClass::Load | InstClass::Store => 1,
            InstClass::FpAlu => 2,
            _ => 0,
        }
    }

    /// Marks a stall observation for `tid` this cycle.
    #[inline]
    pub(crate) fn note_stall(&mut self, tid: usize, bit: u8) {
        self.stall_flags[tid] |= bit;
    }
}

/// End-of-cycle stall accounting: charges each active thread's cycle to
/// exactly one breakdown bucket — the most severe bottleneck any stage
/// observed for it this cycle — or to the idle/overlap residual, then
/// clears the observation bits. One increment per thread per cycle, so per
/// thread the buckets plus the residual always sum to total cycles.
///
/// Severity order (commit side outranks fetch side, since a blocked commit
/// stalls the thread regardless of how well fetch is going): data-cache
/// miss > ROB full > issue width > I-cache miss > bank conflict >
/// fetch-policy starvation.
pub(crate) fn attribute_stalls(ctx: &mut PipelineCtx) {
    let n = ctx.threads.len();
    for tid in 0..n {
        let flags = ctx.stall_flags[tid];
        ctx.stall_flags[tid] = 0;
        let s = &mut ctx.stats.stalls;
        let bucket = if flags & STALL_DCACHE_MISS != 0 {
            &mut s.dcache_miss
        } else if flags & STALL_ROB_FULL != 0 {
            &mut s.rob_full
        } else if flags & STALL_ISSUE_WIDTH != 0 {
            &mut s.issue_width
        } else if flags & STALL_ICACHE_MISS != 0 {
            &mut s.icache_miss
        } else if flags & STALL_BANK_CONFLICT != 0 {
            &mut s.bank_conflict
        } else if flags & STALL_FETCH_STARVED != 0 {
            &mut s.fetch_starved
        } else {
            &mut s.residual
        };
        bucket[tid] += 1;
    }
}
