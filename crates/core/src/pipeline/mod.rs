//! The pipeline stages of the cycle loop, as plain functions over one
//! shared [`PipelineCtx`].
//!
//! Every stage is one tick function (`commit(ctx)`) that advances it one
//! cycle and returns whether it *acted*: changed machine state beyond its
//! stall observations. [`tick`] runs the ticks in reverse pipeline order
//! (commit side first) and reports whether any acted; after a cycle in
//! which none did, [`sched::advance`] skips to the earliest timer that
//! [`sched::next_event`] lists (DESIGN.md §14).
//!
//! The stages also *attribute stalls*: as each stage runs it marks, per
//! thread, which bottleneck it observed this cycle (bits in
//! [`PipelineCtx::stall_flags`]); [`end_cycles`] then charges each
//! active thread's cycle to exactly one [`StallBreakdown`] bucket (highest
//! severity wins) or to the idle/overlap residual, so the buckets plus the
//! residual always sum to total cycles per thread.
//!
//! [`StallBreakdown`]: crate::metrics::StallBreakdown

// The stages use `expect` to assert invariants the stage order itself
// guarantees (e.g. "caller checked" FTQ heads, rename maps populated at
// dispatch). Construction is fallible and validated; once built, these are
// genuine internal invariants, not input errors.
#![expect(
    clippy::expect_used,
    reason = "pipeline invariants; violations must abort the simulation"
)]

pub(crate) mod commit;
pub(crate) mod decode_rename;
pub(crate) mod fetch;
pub(crate) mod issue;
pub(crate) mod recovery;
pub(crate) mod sched;

use smt_isa::{inst_idx, Addr, Cycle, InstClass, Presized, RegClass, MAX_THREADS};
use smt_mem::MemoryHierarchy;

use crate::config::{LongLatencyAction, PolicyKind, SimConfig, REGS_FP, REGS_INT};
use crate::frontend::FrontEnd;
use crate::metrics::SimStats;
use crate::thread::ThreadState;
use crate::window::PhysReg;

use commit::commit;
use decode_rename::{decode, dispatch, rename};
pub(crate) use decode_rename::{FrontFifo, LatchEntry};
use fetch::{fetch, predict};
use issue::issue;
use recovery::resolve;
pub(crate) use sched::advance;

/// A data access slower than this many cycles counts as a long-latency
/// (memory) miss for the STALL/FLUSH mechanisms and the MISSCOUNT metric —
/// above the 10-cycle L2 hit, below the 100-cycle memory access.
pub(crate) const LONG_LATENCY: u64 = 30;

// Per-thread stall-observation bits, set by the stages as they run and
// consumed (then cleared) by `end_cycles` at the end of the cycle.
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

/// Issue-queue entry (40 bytes).
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
///
/// The entry carries no dispatch cycle: dispatch ticks after issue, so an
/// entry is first scanned the cycle after it arrives and is always old
/// enough to issue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IqEntry {
    pub(crate) seq: u64,
    /// Cached earliest cycle this entry could issue — an *exact* bound, not
    /// a heuristic: the cycle after dispatch until the sources are
    /// examined, then the max source `ready_at` once every source is finite
    /// (finite `ready_at` values never change while a consumer is in
    /// flight: the producer's register cannot be reallocated before the
    /// consumer commits). Entries with an unresolved (`u64::MAX`) source
    /// are re-examined every cycle. Lets the issue scan skip
    /// operand-blocked entries with one compare instead of `ready_at`
    /// loads, without changing the issue order or timing by a single cycle.
    pub(crate) wake: Cycle,
    /// Data address of a load or store (`Addr::NULL` for other classes).
    pub(crate) mem_addr: Addr,
    /// Renamed source registers, fixed at dispatch; a missing source names
    /// [`PipelineCtx::zero_reg`], whose `ready_at` is always 0.
    pub(crate) src_phys: [PhysReg; 2],
    /// Instruction class (selects latency and, for loads/stores, the data
    /// cache path).
    pub(crate) class: InstClass,
    /// Wrong-path bit (wrong-path loads never arm STALL/FLUSH).
    pub(crate) wrong_path: bool,
    pub(crate) tid: u8,
}

const _: () = assert!(std::mem::size_of::<IqEntry>() == 40);

/// Thread ids in fetch-priority order, selected lazily: each `next()` picks
/// the smallest remaining packed key, so a stage that serves one or two
/// threads pays for one or two selections instead of a sort.
///
/// Each thread's key is one `u64` — the policy metric in the high bits, the
/// *rotated* thread id (`t - rot`, modulo `n`) below it, the thread id
/// itself in the low byte for recovery. The rotated id is unique per
/// thread, so keys are unique and the selection order is the sorted order;
/// the metric is bounded by the window size (≪ 2⁴⁸), so the fields never
/// collide. Round-robin is metric 0, which leaves the pure rotation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Priorities {
    keys: [u64; MAX_THREADS],
    len: usize,
}

impl Priorities {
    /// Packs the keys of threads `0..n` from their metrics under rotation
    /// `rot < n`.
    pub(crate) fn new(metrics: &[u32; MAX_THREADS], n: usize, rot: usize) -> Self {
        let mut keys = [0u64; MAX_THREADS];
        for (t, k) in keys.iter_mut().enumerate().take(n) {
            let r = t + n - rot;
            let r = if r >= n { r - n } else { r };
            *k = (u64::from(metrics[t]) << 16) | ((r as u64) << 8) | t as u64;
        }
        Priorities { keys, len: n }
    }
}

impl Iterator for Priorities {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let live = &self.keys[..self.len];
        let (i, &k) = live.iter().enumerate().min_by_key(|&(_, &k)| k)?;
        self.len -= 1;
        self.keys[i] = self.keys[self.len];
        Some((k & 0xff) as usize)
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

/// The whole machine every stage ticks against: configuration, the
/// front-end engine, per-thread state, the inter-stage queues, register
/// files, memory, and statistics.
#[derive(Clone, Debug)]
pub(crate) struct PipelineCtx {
    pub(crate) cfg: SimConfig,
    pub(crate) frontend: FrontEnd,
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) cycle: Cycle,
    /// Fetch buffer, decode latch and rename latch, in fetch order.
    pub(crate) front: FrontFifo,
    /// The issue queues, indexed by [`PipelineCtx::queue_for`].
    pub(crate) iq: [Presized<Vec<IqEntry>>; 3],
    /// Cycle at which statistics were last reset (for warmup exclusion).
    pub(crate) stats_since: Cycle,
    /// Free physical registers, indexed by [`PipelineCtx::file_for`].
    pub(crate) free: [Presized<Vec<PhysReg>>; 2],
    /// Cycle at which each physical register's value is ready, plus one
    /// trailing entry for [`PipelineCtx::zero_reg`] that stays 0.
    pub(crate) ready_at: Vec<Cycle>,
    pub(crate) rob_occ: u32,
    /// Per-thread entry count across the pre-issue structures (the front
    /// FIFO and the issue queues) — the ICOUNT
    /// metric, maintained incrementally at each insert/remove so the
    /// per-cycle priority computation does not rescan every queue. A debug
    /// assertion in [`PipelineCtx::priorities`] cross-checks it against the
    /// full recount on every use.
    pub(crate) preissue: [u32; MAX_THREADS],
    /// Per-thread stall-observation bits for the cycle in progress
    /// (`STALL_*` constants), consumed by [`end_cycles`].
    pub(crate) stall_flags: [u8; MAX_THREADS],
    pub(crate) stats: SimStats,
    /// Threads whose long-latency load requested a FLUSH this cycle, as
    /// `(tid, load seq)`: the issue tick processes them after every queue
    /// has issued (the flush mutates the queues). Allocated and dropped
    /// last: perfbench's `setup_s` is sensitive to where this small buffer
    /// lands among the big tables in the allocator's heap (`mem_fig7` took
    /// about 40% longer with it allocated before the front FIFO).
    pub(crate) pending_flushes: Presized<Vec<(usize, u64)>>,
}

impl PipelineCtx {
    /// The register a missing issue-queue source names: one past the last
    /// physical register, never allocated, so its `ready_at` stays 0.
    pub(crate) fn zero_reg(&self) -> PhysReg {
        REGS_INT + REGS_FP
    }

    /// The earliest cycle both sources of `e` are ready.
    #[inline]
    pub(crate) fn sources_ready(&self, e: &IqEntry) -> Cycle {
        let [a, b] = e.src_phys;
        self.ready_at[a as usize].max(self.ready_at[b as usize])
    }

    /// Total entries across the pre-issue structures (the quantity the
    /// incremental `preissue` counters track, summed over threads).
    pub(crate) fn preissue_live(&self) -> usize {
        self.front.len() + self.iq.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Per-thread pre-issue instruction counts recomputed from the queues —
    /// the reference the incremental `preissue` counters are checked against
    /// (debug builds) on every ICOUNT priority computation.
    pub(crate) fn icounts(&self) -> [u32; MAX_THREADS] {
        let mut c = [0u32; MAX_THREADS];
        for e in self.front.iter() {
            c[e.tid] += 1;
        }
        for e in self.iq.iter().flat_map(|q| q.iter()) {
            c[usize::from(e.tid)] += 1;
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
        for e in self.front.iter() {
            count(e.tid, e.seq);
        }
        for e in self.iq.iter().flat_map(|q| q.iter()) {
            count(usize::from(e.tid), e.seq);
        }
        c
    }

    /// Thread ids in fetch-priority order under the configured policy
    /// (see [`Priorities`]).
    pub(crate) fn priorities(&self) -> Priorities {
        let n = self.threads.len();
        if n == 1 {
            return Priorities::new(&[0; MAX_THREADS], 1, 0);
        }
        #[expect(clippy::cast_possible_truncation, reason = "remainder < n, a usize")]
        let rot = (self.cycle % n as u64) as usize;
        let metrics = match self.cfg.fetch_policy.kind {
            PolicyKind::Icount => {
                debug_assert_eq!(
                    self.icounts(),
                    self.preissue,
                    "incremental ICOUNT counters diverged from the queues"
                );
                self.preissue
            }
            PolicyKind::RoundRobin => [0; MAX_THREADS],
            PolicyKind::BrCount => self.brcounts(),
            PolicyKind::MissCount => {
                let mut m = [0; MAX_THREADS];
                for (t, th) in self.threads.iter().enumerate() {
                    let live = th.outstanding_misses.iter().filter(|&&r| r > self.cycle);
                    m[t] = inst_idx(live.count());
                }
                m
            }
        };
        Priorities::new(&metrics, n, rot)
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

    /// Which free list holds a register class's physical registers (0 =
    /// int, 1 = fp).
    pub(crate) fn file_for(class: RegClass) -> usize {
        match class {
            RegClass::Int => 0,
            RegClass::Fp => 1,
        }
    }

    /// Marks a stall observation for `tid` this cycle.
    #[inline]
    pub(crate) fn note_stall(&mut self, tid: usize, bit: u8) {
        self.stall_flags[tid] |= bit;
    }
}

/// One cycle of every stage, in reverse pipeline order — the idiom that
/// advances each in-flight instruction at most one stage per cycle without
/// intra-cycle forwarding. Returns whether any stage acted; the cycle's
/// stall bits stay set for [`end_cycles`].
pub(crate) fn tick(ctx: &mut PipelineCtx) -> bool {
    // Resolve must precede commit: a mispredicted branch that completes
    // this cycle must squash and redirect before it can retire. `|`, not
    // `||`: every stage ticks.
    resolve(ctx)
        | commit(ctx)
        | issue(ctx)
        | dispatch(ctx)
        | rename(ctx)
        | decode(ctx)
        | fetch(ctx)
        | predict(ctx)
}

/// Ends the ticked cycle and `cycles - 1` idle copies of it (a skip):
/// charges each active thread's cycles to exactly one breakdown bucket —
/// the most severe bottleneck any stage observed for it
/// ([`StallBreakdown::charge`]) — or to the idle/overlap residual, clears
/// the observation bits, and advances the clock. Per thread the buckets
/// plus the residual therefore always sum to total cycles.
///
/// [`StallBreakdown::charge`]: crate::metrics::StallBreakdown::charge
pub(crate) fn end_cycles(ctx: &mut PipelineCtx, cycles: u64) {
    for tid in 0..ctx.threads.len() {
        ctx.stats.stalls.charge(tid, ctx.stall_flags[tid], cycles);
        ctx.stall_flags[tid] = 0;
    }
    ctx.cycle += cycles;
    ctx.stats.cycles = ctx.cycle - ctx.stats_since;
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::Srng;

    /// The order the sort-based computation this iterator replaced gave:
    /// pack with a `% n` rotation, sort, read the tids back; round-robin
    /// built the rotation directly.
    fn sorted_order(kind: PolicyKind, metrics: &[u32], rot: usize) -> Vec<usize> {
        let n = metrics.len();
        if kind == PolicyKind::RoundRobin {
            return (0..n).map(|i| (rot + i) % n).collect();
        }
        let mut keys: Vec<u64> = (0..n)
            .map(|t| (u64::from(metrics[t]) << 16) | ((((t + n - rot) % n) as u64) << 8) | t as u64)
            .collect();
        keys.sort_unstable();
        keys.iter().map(|k| (k & 0xff) as usize).collect()
    }

    /// Lazy selection yields the sorted order for every policy, random
    /// metrics (small ranges force ties), every rotation and n = 1..=8.
    #[test]
    fn priority_selection_matches_the_sort() {
        let kinds = [
            PolicyKind::Icount,
            PolicyKind::RoundRobin,
            PolicyKind::BrCount,
            PolicyKind::MissCount,
        ];
        let mut rng = Srng::new(0x5E1E_C7ED);
        for kind in kinds {
            for n in 1..=MAX_THREADS {
                for rot in 0..n {
                    for _ in 0..32 {
                        let hi = *rng.pick(&[1u64, 3, 64, 1 << 20]);
                        let mut metrics = [0u32; MAX_THREADS];
                        if kind != PolicyKind::RoundRobin {
                            for m in metrics.iter_mut().take(n) {
                                *m = rng.range_u32(0, hi);
                            }
                        }
                        let got: Vec<usize> = Priorities::new(&metrics, n, rot).collect();
                        assert_eq!(
                            got,
                            sorted_order(kind, &metrics[..n], rot),
                            "{kind} n={n} rot={rot} metrics={metrics:?}"
                        );
                    }
                }
            }
        }
    }
}
