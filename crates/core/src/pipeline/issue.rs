//! The issue/execute stage: wakes ready instructions in the three issue
//! queues, models functional-unit limits and the data cache, and arms the
//! long-latency STALL/FLUSH mechanisms.

// The pipeline stages use `expect` to assert invariants that the stage
// protocol itself guarantees (e.g. "caller checked" FTQ heads, rename maps
// populated at dispatch). Construction is fallible and validated; once
// built, these are genuine internal invariants, not input errors.
// lint:allow-file(no-panic): stage-protocol invariants; violations must abort the simulation

use smt_isa::{InstClass, Presized};
use smt_mem::DataOutcome;

use crate::config::LongLatencyAction;

use super::recovery::flush_after_load;
use super::sched::{EventHorizon, SkipReason};
use super::{PipelineCtx, PipelineStage, LONG_LATENCY, STALL_ISSUE_WIDTH};

/// The issue stage: one pass per issue queue (int, load/store, fp), then
/// any FLUSH events the load/store pass requested.
#[derive(Clone, Debug)]
pub(crate) struct IssueStage {
    /// Threads whose long-latency load requested a FLUSH this cycle,
    /// processed after all queues issue (the flush mutates queues).
    pending_flushes: Presized<Vec<(usize, u64)>>,
}

impl IssueStage {
    pub(crate) fn new(fu_ls: usize) -> Self {
        IssueStage {
            pending_flushes: Presized::vec(fu_ls),
        }
    }
}

impl PipelineStage for IssueStage {
    fn tick(&mut self, ctx: &mut PipelineCtx) {
        self.issue_queue(ctx, 0);
        self.issue_queue(ctx, 1);
        self.issue_queue(ctx, 2);
        // Take/restore rather than drain-by-value so the buffer keeps its
        // capacity across cycles (flush_after_load never requests flushes).
        let mut flushes = std::mem::take(&mut self.pending_flushes);
        for &(tid, load_seq) in flushes.iter() {
            flush_after_load(ctx, tid, load_seq);
        }
        flushes.clear();
        self.pending_flushes = flushes;
    }

    /// Issue acts as soon as any queue entry's operands are ready (even an
    /// MSHR-full load retry touches the data cache); an entry whose sources
    /// become ready at a finite future cycle is an issue-wait event. Sources
    /// are recomputed from `ready_at` rather than read from the cached
    /// `wake` field, which the skipped ticks would have refreshed.
    /// Unresolved (`u64::MAX`) sources report nothing: the producer's own
    /// queue entry bounds the wait.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut EventHorizon) {
        debug_assert!(self.pending_flushes.is_empty(), "flushes drain every tick");
        let now = ctx.cycle;
        for queue in [&ctx.iq_int, &ctx.iq_ls, &ctx.iq_fp] {
            for e in queue.iter() {
                let mut ready = e.entered + 1;
                for &p in e.src_phys.iter().flatten() {
                    ready = ready.max(ctx.ready_at[p as usize]);
                }
                if ready <= now {
                    ev.act();
                    return;
                }
                if ready != u64::MAX {
                    ev.event(ready, SkipReason::IssueWait);
                }
            }
        }
    }
}

impl IssueStage {
    fn issue_queue(&mut self, ctx: &mut PipelineCtx, which: usize) {
        let now = ctx.cycle;
        let fu_limit = match which {
            0 => ctx.cfg.fu_int,
            1 => ctx.cfg.fu_ls,
            _ => ctx.cfg.fu_fp,
        };
        let mut queue = std::mem::take(match which {
            0 => &mut ctx.iq_int,
            1 => &mut ctx.iq_ls,
            _ => &mut ctx.iq_fp,
        });
        // In-place two-pointer compaction: `kept` trails the read index, so
        // surviving entries shift down in order and the queue Vec is reused
        // without a per-cycle allocation.
        let mut kept = 0usize;
        let mut issued = 0u32;
        let len = queue.len();
        for idx in 0..len {
            if issued == fu_limit || queue[idx].entered >= now {
                // Entries append in dispatch order, so `entered` is
                // non-decreasing along the queue, and an exhausted FU limit
                // stays exhausted: the whole tail is kept verbatim.
                if issued == fu_limit {
                    // Aged entries left waiting behind the FU limit observe
                    // an issue-width stall this cycle.
                    for te in &queue[idx..len] {
                        if te.entered < now {
                            ctx.note_stall(te.tid, STALL_ISSUE_WIDTH);
                        }
                    }
                }
                if kept != idx {
                    queue.copy_within(idx..len, kept);
                }
                kept += len - idx;
                break;
            }
            // Operand-blocked entries park behind their cached wake-up
            // cycle: one compare, no window deref (see `IqEntry::wake`).
            // Compaction copies only happen once an earlier entry has left
            // the queue (`kept != idx`); the steady-state prefix of waiting
            // entries is scanned in place.
            if queue[idx].wake > now {
                if kept != idx {
                    queue[kept] = queue[idx];
                }
                kept += 1;
                continue;
            }
            // Queue entries never outlive their window instructions (squash
            // and flush purge the queues eagerly), so the cached operand
            // and class fields are always live.
            debug_assert!(ctx.threads[queue[idx].tid]
                .window
                .ctl(queue[idx].seq)
                .is_some());
            let mut ready_cycle = 0u64;
            let mut unresolved = false;
            for &p in queue[idx].src_phys.iter().flatten() {
                let r = ctx.ready_at[p as usize];
                unresolved |= r == u64::MAX;
                ready_cycle = ready_cycle.max(r);
            }
            if ready_cycle > now {
                // An unresolved source (producer not yet issued) must be
                // re-examined next cycle; a finite bound is exact and lets
                // the entry sleep until it arrives.
                if kept != idx {
                    queue[kept] = queue[idx];
                }
                queue[kept].wake = if unresolved { now + 1 } else { ready_cycle };
                kept += 1;
                continue;
            }
            let e = queue[idx];
            let class = e.class;
            let mem_addr = e.mem_addr;
            let wrong_path = e.wrong_path;
            let done_at = match class {
                InstClass::Load => {
                    let addr = mem_addr.expect("loads carry addresses");
                    match ctx.mem.load(addr, now) {
                        DataOutcome::Stall => {
                            if kept != idx {
                                queue[kept] = e;
                            }
                            kept += 1;
                            continue;
                        }
                        DataOutcome::Done { ready } => {
                            let done = ready.max(now) + 1;
                            // Long-latency (memory) miss detection for the
                            // MISSCOUNT metric and STALL/FLUSH mechanisms.
                            // Only correct-path loads arm the mechanisms.
                            if done - now > LONG_LATENCY && !wrong_path {
                                // Drop expired entries first: consumers only
                                // ever count `> now`, and this keeps the list
                                // bounded by the in-flight load count (so the
                                // pre-sized capacity is never exceeded).
                                let th = &mut ctx.threads[e.tid];
                                th.outstanding_misses.retain(|&r| r > now);
                                th.outstanding_misses.push(done);
                                match ctx.cfg.fetch_policy.long_latency {
                                    LongLatencyAction::None => {}
                                    LongLatencyAction::Stall => {
                                        let th = &mut ctx.threads[e.tid];
                                        th.mem_stall_until =
                                            Some(th.mem_stall_until.unwrap_or(0).max(done));
                                    }
                                    LongLatencyAction::Flush => {
                                        let th = &mut ctx.threads[e.tid];
                                        th.mem_stall_until =
                                            Some(th.mem_stall_until.unwrap_or(0).max(done));
                                        self.pending_flushes.push((e.tid, e.seq));
                                    }
                                }
                            }
                            done
                        }
                    }
                }
                other => now + other.default_latency(),
            };
            {
                let ctl = ctx.threads[e.tid].window.ctl_mut(e.seq).expect("present");
                ctl.set_issued();
                ctl.done_at = done_at;
                if let Some(p) = ctl.phys_dest {
                    ctx.ready_at[p as usize] = done_at;
                }
            }
            issued += 1;
            // Issued entries leave the pre-issue structures.
            ctx.preissue[e.tid] -= 1;
        }
        queue.truncate(kept);
        match which {
            0 => ctx.iq_int = queue,
            1 => ctx.iq_ls = queue,
            _ => ctx.iq_fp = queue,
        }
    }
}
