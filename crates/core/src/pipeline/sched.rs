//! Event-driven cycle skipping: step a cycle, and if no stage acted in it,
//! skip to the next timer (DESIGN.md §14).
//!
//! Every tick reports whether it changed machine state ([`tick`]). A cycle
//! in which none acts leaves the machine as it found it: only the clock,
//! the stall buckets and the buffer-full counter move. From then on the
//! state changes only when a timer expires — a load's `done_at`, an
//! I-block's miss return, a STALL/FLUSH gate, an issue-queue operand
//! becoming ready — and [`next_event`] lists every one. The memory
//! hierarchy keeps no timer of its own: every fill a stalled stage waits on
//! is one of these, and an MSHR-full retry is itself an act. Until the
//! earliest, each cycle would repeat the idle one exactly, so
//! [`advance`] charges the idle cycle's stall bits and buffer-full
//! increment once per cycle up to it and jumps the clock there.
//!
//! The stall-partition invariant `stalls.total(tid) == cycles` therefore
//! holds through skips, and a skip clamped at a chunk boundary re-derives
//! the identical charges when the resumed run steps the same idle cycle
//! again. No stage, policy or front-end engine is special-cased: the skip
//! covers backend-frozen windows — latches occupied, dispatch blocked on a
//! full ROB, a data miss at the ROB head — as well as whole-machine idle.

use smt_isa::Cycle;

use crate::config::LongLatencyAction;
use crate::window::InFlightCtl;

use super::{end_cycles, tick, PipelineCtx};

/// Why the scheduler skipped: the kind of the earliest timer. Declared in
/// tie-break order — when several timers expire on the same cycle, the skip
/// is booked under the greatest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SkipReason {
    /// An issue-side expiry: operand readiness in an issue queue, a
    /// non-load completion, or a decode-redirect resolution timer.
    IssueWait,
    /// An I-cache miss return the FTQ head is blocked on.
    FtqWait,
    /// A data-side memory expiry: a load's completion at the ROB head or
    /// at a pending redirect.
    MemWait,
    /// A STALL/FLUSH long-latency gate: fetch deliberately idle until the
    /// offending load returns.
    PolicyIdle,
}

/// The earliest cycle after `now` at which a machine in which no stage can
/// act changes on its own, and the reason a skip to it is booked under;
/// `None` if no timer is pending. Every timer that can unblock a stage is
/// listed; one that unblocks nothing merely splits a skip, and the resumed
/// run charges the remainder identically.
pub(crate) fn next_event(ctx: &PipelineCtx, now: Cycle) -> Option<(Cycle, SkipReason)> {
    let mut next: Option<(Cycle, SkipReason)> = None;
    let mut event = |at: Cycle, reason: SkipReason| {
        debug_assert!(at > now, "a timer of an idle machine lies in the future");
        if next.is_none_or(|(w, r)| at < w || (at == w && reason > r)) {
            next = Some((at, reason));
        }
    };
    let completion = |c: &InFlightCtl| {
        if c.is_load() {
            SkipReason::MemWait
        } else {
            SkipReason::IssueWait
        }
    };
    let gating = ctx.cfg.fetch_policy.long_latency != LongLatencyAction::None;
    for th in &ctx.threads {
        // The ROB head's completion (commit).
        if let Some(head) = th.window.front().filter(|h| h.dispatched() && h.issued()) {
            event(head.done_at, completion(head));
        }
        // A pending redirect's decode timer or completion (resolve).
        if let Some(c) = th.pending_redirect.and_then(|seq| th.window.ctl(seq)) {
            if c.decode_redirect() {
                event(c.fetched_at + 2, SkipReason::IssueWait);
            }
            if c.issued() {
                event(c.done_at, completion(c));
            }
        }
        // The miss return a blocked FTQ head waits on (fetch).
        if let Some(ready) = th.iblock_until.filter(|&r| r > now && !th.ftq.is_empty()) {
            event(ready, SkipReason::FtqWait);
        }
        // A STALL/FLUSH gate's expiry (predict and fetch).
        if let Some(until) = th.mem_stall_until.filter(|&u| gating && u > now) {
            event(until, SkipReason::PolicyIdle);
        }
    }
    // Operands that become ready at a known cycle (issue). An unresolved
    // (`u64::MAX`) source waits on its producer's own entry.
    for e in ctx.iq.iter().flat_map(|q| q.iter()) {
        let ready = ctx.sources_ready(e);
        if ready != u64::MAX {
            event(ready, SkipReason::IssueWait);
        }
    }
    next
}

/// Steps one cycle and, if no stage acted in it, skips on to the earliest
/// timer, `max` cycles at most in all. Every cycle of the idle window,
/// the stepped one included, is charged as the stepped one was and booked
/// under the timer's reason. Returns the cycles advanced.
pub(crate) fn advance(ctx: &mut PipelineCtx, max: u64) -> u64 {
    let buffer_stalls = ctx.stats.fetch_buffer_stalls;
    let next = if tick(ctx) {
        None
    } else {
        next_event(ctx, ctx.cycle)
    };
    // No timer after an idle cycle is unreachable with the synthetic
    // workloads; such a cycle is stepped on its own, like a busy one.
    let Some((wake, reason)) = next else {
        end_cycles(ctx, 1);
        return 1;
    };
    let cycles = (wake - ctx.cycle).min(max);
    let stats = &mut ctx.stats;
    // The idle cycle's buffer-full increment, if it made one, repeats.
    if stats.fetch_buffer_stalls > buffer_stalls {
        stats.fetch_buffer_stalls += cycles - 1;
    }
    *match reason {
        SkipReason::IssueWait => &mut stats.skip_issue_wait,
        SkipReason::FtqWait => &mut stats.skip_ftq_wait,
        SkipReason::MemWait => &mut stats.skip_mem_wait,
        SkipReason::PolicyIdle => &mut stats.skip_policy_idle,
    } += cycles;
    end_cycles(ctx, cycles);
    cycles
}

#[cfg(test)]
mod tests {
    use smt_workloads::Workload;

    use super::*;
    use crate::config::{FetchEngineKind, FetchPolicy};
    use crate::sim::SimBuilder;

    /// Every cycle the scheduler skips is idle: a pure-stepping twin, ticked
    /// in lockstep with the skipping run, acts on none of the cycles the
    /// skipping run books as skipped — so `next_event` misses no timer — and
    /// both runs end with equal statistics once the skip counters are
    /// cleared. Memory-bound cells under FLUSH and STALL, and a plain
    /// ICOUNT mix, for every engine. Skips are booked under the timer that
    /// ends them: every run waits on the FTQ, and a gated run waits on its
    /// gate more than on the load behind it.
    #[test]
    fn skipped_cycles_are_idle_in_a_stepping_twin() {
        const CYCLES: u64 = 10_000;
        let cells = [
            (Workload::mem2(), FetchPolicy::icount(1, 8).with_flush()),
            (Workload::mem2(), FetchPolicy::icount(2, 8).with_stall()),
            (Workload::mix4(), FetchPolicy::icount(2, 8)),
        ];
        for (workload, policy) in cells {
            let programs = workload.programs_shared(2004).expect("programs");
            for engine in FetchEngineKind::all_with_trace_cache() {
                let cell = format!("{workload} × {engine} × {policy}");
                let mut run = SimBuilder::new_shared(programs.clone())
                    .fetch_engine(engine)
                    .fetch_policy(policy)
                    .build()
                    .expect("build")
                    .ctx;
                let mut twin = run.clone();
                while run.cycle < CYCLES {
                    let (skipped_before, left) = (run.stats.skipped_cycles(), CYCLES - run.cycle);
                    let cycles = advance(&mut run, left);
                    let skipped = run.stats.skipped_cycles() - skipped_before;
                    assert!(skipped == 0 || skipped == cycles, "{cell}");
                    for _ in 0..cycles {
                        let acted = tick(&mut twin);
                        assert!(
                            skipped == 0 || !acted,
                            "{cell}: the twin acted on skipped cycle {}",
                            twin.cycle
                        );
                        end_cycles(&mut twin, 1);
                    }
                }
                let mut stats = run.stats.clone();
                assert!(stats.skipped_cycles() > 0, "{cell}: nothing skipped");
                // I-cache misses end skips at the FTQ timer, and a
                // STALL/FLUSH gate outlasts the load it waits on.
                assert!(stats.skip_ftq_wait > 0, "{cell}: no FTQ wait booked");
                if policy.long_latency != LongLatencyAction::None {
                    assert!(
                        stats.skip_policy_idle > stats.skip_mem_wait,
                        "{cell}: policy-idle {} <= mem-wait {}",
                        stats.skip_policy_idle,
                        stats.skip_mem_wait
                    );
                }
                stats.skip_issue_wait = 0;
                stats.skip_ftq_wait = 0;
                stats.skip_mem_wait = 0;
                stats.skip_policy_idle = 0;
                assert_eq!(stats, twin.stats, "{cell}: the runs diverged");
            }
        }
    }
}
