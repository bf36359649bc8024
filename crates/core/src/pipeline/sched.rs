//! Event-driven cycle skipping: the next-interesting-event scheduler
//! (DESIGN.md §14).
//!
//! Between steps, every pipeline stage answers two questions through its
//! horizon function (`commit_horizon`, `issue_horizon`, …): *can you
//! change machine state this cycle?* and, if not, *what is the earliest
//! future cycle at which your inputs change on their own?* Self-scheduled changes are always timer expiries —
//! a load's `done_at`, an I-block's miss return, a STALL/FLUSH gate, an
//! issue-queue operand becoming ready, an MSHR fill — so when no stage can
//! act, the machine is frozen until the minimum reported expiry and the
//! scheduler jumps straight to it.
//!
//! The jump is behavior-invariant by construction: a cycle in which no
//! stage acts only runs `attribute_stalls`, and every stall bit a stage
//! would set on such a cycle is a pure function of state that cannot change
//! before the horizon (the stages record those bits in
//! [`EventHorizon::flag`], and [`apply`] charges them once per skipped
//! cycle through the same `StallBreakdown::charge` that `attribute_stalls`
//! uses). The stall-partition invariant `stalls.total(tid) == cycles`
//! therefore holds through skipped regions, and a skip clamped at a chunk
//! boundary re-derives the identical classification when the resumed
//! simulator calls the scheduler again on the same frozen state.
//!
//! No stage is special-cased: the contract covers every fetch policy
//! (RR/ICOUNT/BRCOUNT/MISSCOUNT, with or without STALL/FLUSH) and every
//! front-end engine, and skips backend-frozen windows — latches occupied,
//! dispatch blocked on a full ROB, a data miss at the ROB head — that a
//! whole-machine-idle predicate could never touch.

use smt_isa::{Cycle, MAX_THREADS};

use super::commit::commit_horizon;
use super::decode_rename::{decode_horizon, dispatch_horizon, rename_horizon};
use super::fetch::{fetch_horizon, predict_horizon};
use super::issue::issue_horizon;
use super::recovery::resolve_horizon;
use super::PipelineCtx;

/// Why the scheduler skipped: the classification of the binding (earliest)
/// event. The discriminant is the tie-break priority — when several sources
/// expire on the same cycle, the skip is charged to the highest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SkipReason {
    /// An issue-side expiry: operand readiness in an issue queue, a
    /// non-load completion, or a decode-redirect resolution timer.
    IssueWait = 0,
    /// An I-cache miss return the FTQ head is blocked on.
    FtqWait = 1,
    /// A data-side memory expiry: a load's completion at the ROB head or
    /// an MSHR fill return.
    MemWait = 2,
    /// A STALL/FLUSH long-latency gate: fetch deliberately idle until the
    /// offending load returns.
    PolicyIdle = 3,
}

impl SkipReason {
    /// Tie-break priority (mirrors the discriminant; spelled as a match so
    /// the hot path needs no numeric cast).
    fn priority(self) -> u8 {
        match self {
            SkipReason::IssueWait => 0,
            SkipReason::FtqWait => 1,
            SkipReason::MemWait => 2,
            SkipReason::PolicyIdle => 3,
        }
    }
}

/// Accumulates one scheduling decision: whether any stage can act this
/// cycle, the minimum future event with its classification, the per-thread
/// stall bits that hold on every cycle of the idle window, and whether the
/// full fetch buffer blocks an otherwise-ready fetch (charged to
/// `fetch_buffer_stalls` per skipped cycle, as the fetch stage would).
#[derive(Debug)]
pub(crate) struct EventHorizon {
    now: Cycle,
    acted: bool,
    wake: Cycle,
    reason: SkipReason,
    flags: [u8; MAX_THREADS],
    buffer_full: bool,
}

impl EventHorizon {
    pub(crate) fn new(now: Cycle) -> Self {
        EventHorizon {
            now,
            acted: false,
            wake: u64::MAX,
            reason: SkipReason::IssueWait,
            flags: [0; MAX_THREADS],
            buffer_full: false,
        }
    }

    /// The reporting stage would mutate machine state this cycle: the
    /// scheduler must step, not skip.
    #[inline]
    pub(crate) fn act(&mut self) {
        self.acted = true;
    }

    #[inline]
    pub(crate) fn acted(&self) -> bool {
        self.acted
    }

    /// Registers a self-scheduled state change at cycle `at` (strictly in
    /// the future). Minimum wins; on a tie the higher-priority reason does.
    #[inline]
    pub(crate) fn event(&mut self, at: Cycle, reason: SkipReason) {
        debug_assert!(at > self.now, "horizon event must be in the future");
        if at < self.wake || (at == self.wake && reason.priority() > self.reason.priority()) {
            self.wake = at;
            self.reason = reason;
        }
    }

    /// Records a stall bit that holds for `tid` on every cycle of the idle
    /// window (the bit the stage would `note_stall` each stepped cycle).
    #[inline]
    pub(crate) fn flag(&mut self, tid: usize, bit: u8) {
        self.flags[tid] |= bit;
    }

    /// Records that fetch is blocked solely by a full fetch buffer (the
    /// condition behind the per-cycle `fetch_buffer_stalls` counter).
    #[inline]
    pub(crate) fn buffer_full(&mut self) {
        self.buffer_full = true;
    }
}

/// Tries to jump to the next interesting event: returns the number of
/// cycles skipped (stats updated as if each had been stepped), or 0 if some
/// stage can act this cycle and a real step is required.
///
/// Stages are polled cheapest-first so busy cycles bail out after one or
/// two O(1)/O(threads) probes; the issue-queue scan — the only O(queue)
/// probe — runs last.
pub(crate) fn fast_forward(ctx: &mut PipelineCtx, max: u64) -> u64 {
    if max == 0 {
        return 0;
    }
    let mut ev = EventHorizon::new(ctx.cycle);
    macro_rules! poll {
        ($($horizon:ident),*) => {$(
            $horizon(ctx, &mut ev);
            if ev.acted() {
                return 0;
            }
        )*};
    }
    poll!(
        decode_horizon,
        rename_horizon,
        commit_horizon,
        predict_horizon,
        fetch_horizon,
        resolve_horizon,
        dispatch_horizon,
        issue_horizon
    );
    // The memory model reports its own horizon: pending MSHR fills on
    // either side. It is a conservative bound — an expiry that enables no
    // stage merely splits the skip, and the re-derived classification
    // charges the remainder identically. The front-end engines need no
    // horizon: their tables only move inside predict/train calls.
    if let Some(at) = ctx.mem.next_event(ctx.cycle) {
        ev.event(at, SkipReason::MemWait);
    }
    apply(ctx, &ev, max)
}

/// Executes a skip decided by [`fast_forward`]: charges each thread's
/// recorded stall bits once per skipped cycle (issue-width and
/// bank-conflict bits require an acting stage and thus cannot occur in an
/// idle window), advances the clock, and books the skip under its reason
/// counter. Returns the skip length, 0 if no finite future event exists.
fn apply(ctx: &mut PipelineCtx, ev: &EventHorizon, max: u64) -> u64 {
    if ev.wake == u64::MAX {
        // Fully blocked with no self-scheduled event (unreachable with the
        // synthetic workloads): fall back to stepping.
        return 0;
    }
    debug_assert!(ev.wake > ctx.cycle);
    let skip = (ev.wake - ctx.cycle).min(max);
    for tid in 0..ctx.threads.len() {
        debug_assert_eq!(
            ctx.stall_flags[tid], 0,
            "stall flags must be consumed before the scheduler runs"
        );
        ctx.stats.stalls.charge(tid, ev.flags[tid], skip);
    }
    if ev.buffer_full {
        ctx.stats.fetch_buffer_stalls += skip;
    }
    ctx.cycle += skip;
    ctx.stats.cycles = ctx.cycle - ctx.stats_since;
    match ev.reason {
        SkipReason::IssueWait => ctx.stats.skip_issue_wait += skip,
        SkipReason::FtqWait => ctx.stats.skip_ftq_wait += skip,
        SkipReason::MemWait => ctx.stats.skip_mem_wait += skip,
        SkipReason::PolicyIdle => ctx.stats.skip_policy_idle += skip,
    }
    skip
}
