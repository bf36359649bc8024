//! The issue/execute stage: wakes ready instructions in the three issue
//! queues, models functional-unit limits and the data cache, and arms the
//! long-latency STALL/FLUSH mechanisms.

use smt_isa::InstClass;
use smt_mem::DataOutcome;

use crate::config::{LongLatencyAction, FU_COUNTS};

use super::recovery::flush_after_load;
use super::{PipelineCtx, LONG_LATENCY, STALL_ISSUE_WIDTH};

/// The issue stage: one pass per issue queue (int, load/store, fp), then
/// any FLUSH events the load/store pass requested. Acts when an entry's
/// operands are ready: it issues, or a load retries against a full MSHR
/// file.
pub(crate) fn issue(ctx: &mut PipelineCtx) -> bool {
    let mut acted = false;
    for which in 0..ctx.iq.len() {
        acted |= issue_queue(ctx, which);
    }
    // Take/restore rather than drain-by-value so the buffer keeps its
    // capacity across cycles (flush_after_load never requests flushes).
    let mut flushes = std::mem::take(&mut ctx.pending_flushes);
    for &(tid, load_seq) in flushes.iter() {
        flush_after_load(ctx, tid, load_seq);
    }
    flushes.clear();
    ctx.pending_flushes = flushes;
    acted
}

fn issue_queue(ctx: &mut PipelineCtx, which: usize) -> bool {
    let now = ctx.cycle;
    let fu_limit = FU_COUNTS[which];
    let mut queue = std::mem::take(&mut ctx.iq[which]);
    // In-place two-pointer compaction: `kept` trails the read index, so
    // surviving entries shift down in order and the queue Vec is reused
    // without a per-cycle allocation.
    let mut kept = 0usize;
    let mut issued = 0u32;
    let mut acted = false;
    let len = queue.len();
    for idx in 0..len {
        if issued == fu_limit {
            // An exhausted FU limit stays exhausted: the whole tail is
            // kept verbatim, and every entry in it — all dispatched in
            // earlier cycles, since dispatch ticks after issue —
            // observes an issue-width stall this cycle.
            for te in &queue[idx..len] {
                ctx.note_stall(usize::from(te.tid), STALL_ISSUE_WIDTH);
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
        let e = queue[idx];
        let tid = usize::from(e.tid);
        debug_assert!(ctx.threads[tid].window.ctl(e.seq).is_some());
        let ready_cycle = ctx.sources_ready(&e);
        if ready_cycle > now {
            // An unresolved source (producer not yet issued) must be
            // re-examined next cycle; a finite bound is exact and lets
            // the entry sleep until it arrives.
            queue[kept] = e;
            queue[kept].wake = if ready_cycle == u64::MAX {
                now + 1
            } else {
                ready_cycle
            };
            kept += 1;
            continue;
        }
        acted = true;
        let done_at = match e.class {
            InstClass::Load => {
                match ctx.mem.load(e.mem_addr, now) {
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
                        if done - now > LONG_LATENCY && !e.wrong_path {
                            // Drop expired entries first: consumers only
                            // ever count `> now`, and this keeps the list
                            // bounded by the in-flight load count (so the
                            // pre-sized capacity is never exceeded).
                            let th = &mut ctx.threads[tid];
                            th.outstanding_misses.retain(|&r| r > now);
                            th.outstanding_misses.push(done);
                            match ctx.cfg.fetch_policy.long_latency {
                                LongLatencyAction::None => {}
                                LongLatencyAction::Stall => {
                                    let th = &mut ctx.threads[tid];
                                    th.mem_stall_until =
                                        Some(th.mem_stall_until.unwrap_or(0).max(done));
                                }
                                LongLatencyAction::Flush => {
                                    let th = &mut ctx.threads[tid];
                                    th.mem_stall_until =
                                        Some(th.mem_stall_until.unwrap_or(0).max(done));
                                    ctx.pending_flushes.push((tid, e.seq));
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
            let ctl = ctx.threads[tid].window.ctl_mut(e.seq).expect("present");
            ctl.set_issued();
            ctl.done_at = done_at;
            if let Some(p) = ctl.phys_dest {
                ctx.ready_at[p as usize] = done_at;
            }
        }
        issued += 1;
        // Issued entries leave the pre-issue structures.
        ctx.preissue[tid] -= 1;
    }
    queue.truncate(kept);
    ctx.iq[which] = queue;
    acted
}
