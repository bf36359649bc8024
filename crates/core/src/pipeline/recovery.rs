//! Mis-speculation recovery: the branch-resolution stage (redirect on
//! mispredicted branches) and the long-latency-load FLUSH, both of which
//! roll the window back, undo renames, purge the pre-issue structures, and
//! restore the front end's speculative state.

// The pipeline stages use `expect` to assert invariants that the stage
// protocol itself guarantees (e.g. "caller checked" FTQ heads, rename maps
// populated at dispatch). Construction is fallible and validated; once
// built, these are genuine internal invariants, not input errors.
#![expect(
    clippy::expect_used,
    reason = "stage-protocol invariants; violations must abort the simulation"
)]

use smt_isa::{inst_idx, RegClass};

use crate::frontend::FrontEnd;

use super::sched::{EventHorizon, SkipReason};
use super::{PipelineCtx, PipelineStage};

/// The resolve stage: detects resolved mispredictions (decode-detectable
/// misfetches after one stage, the rest at completion) and squashes the
/// wrong path.
#[derive(Clone, Debug)]
pub(crate) struct ResolveStage;

impl PipelineStage for ResolveStage {
    fn tick(&mut self, ctx: &mut PipelineCtx) {
        let now = ctx.cycle;
        for tid in 0..ctx.threads.len() {
            let Some(seq) = ctx.threads[tid].pending_redirect else {
                continue;
            };
            let resolved = ctx.threads[tid]
                .window
                .ctl(seq)
                .map(|c| {
                    // Decode-detectable misfetches redirect as soon as the
                    // instruction reaches decode (one stage after fetch);
                    // everything else waits for execution.
                    let decode_ok = c.decode_redirect() && now >= c.fetched_at + 2;
                    decode_ok || c.completed(now)
                })
                .unwrap_or(false);
            if resolved {
                squash_after(ctx, tid, seq);
            }
        }
    }

    /// Resolution is timer-driven: a decode-detectable misfetch redirects
    /// `fetched_at + 2` cycles after fetch, everything else at the
    /// diverging instruction's completion. A redirect whose timer has
    /// expired is an act (the squash mutates half the machine); one still
    /// pending reports the timer as its event. An unissued, non-decode
    /// redirect is bounded by its own issue-queue entry.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut EventHorizon) {
        let now = ctx.cycle;
        for th in &ctx.threads {
            let Some(seq) = th.pending_redirect else {
                continue;
            };
            let Some(c) = th.window.ctl(seq) else {
                continue;
            };
            if c.decode_redirect() {
                if now >= c.fetched_at + 2 {
                    ev.act();
                    return;
                }
                ev.event(c.fetched_at + 2, SkipReason::IssueWait);
            }
            if c.completed(now) {
                ev.act();
                return;
            }
            if c.issued() {
                let reason = if c.is_load() {
                    SkipReason::MemWait
                } else {
                    SkipReason::IssueWait
                };
                ev.event(c.done_at, reason);
            }
        }
    }
}

/// Squashes everything younger than `seq` in thread `tid` and redirects
/// its front end to the oracle path.
pub(crate) fn squash_after(ctx: &mut PipelineCtx, tid: usize, seq: u64) {
    // Extract the branch's recovery info first (all payloads are
    // `Copy`, so this is a plain read).
    let (di, binfo) = {
        let w = &ctx.threads[tid].window;
        w.ctl(seq).expect("redirect target alive");
        (
            *w.di(seq),
            w.binfo(seq).expect("diverging inst carries info"),
        )
    };
    let meta = *ctx.threads[tid].meta(seq);
    // Roll the window back, youngest first, undoing renames. Popped seqs'
    // payload slots stay intact until fetch refills them later in the
    // tick, so the destination arch register can still be read after the
    // pop.
    let mut freed_rob = 0u32;
    {
        let th = &mut ctx.threads[tid];
        while th.window.back().is_some_and(|b| b.seq > seq) {
            let ctl = th.window.pop_back().expect("checked");
            ctx.stats.squashed += 1;
            if ctl.dispatched() {
                freed_rob += 1;
                if let Some(newp) = ctl.phys_dest {
                    let dest = th.window.di(ctl.seq).dest.expect("dispatched with dest");
                    th.rename_map[dest.flat_index()] = ctl.prev_phys.expect("dispatched with dest");
                    match dest.class() {
                        RegClass::Int => ctx.free_int.push(newp),
                        RegClass::Fp => ctx.free_fp.push(newp),
                    }
                }
            }
        }
    }
    ctx.rob_occ -= freed_rob;
    // Every removed entry belongs to `tid`, so the length delta is the
    // thread's pre-issue count adjustment.
    let before = ctx.preissue_live();
    ctx.fetch_buffer.retain(|e| !(e.tid == tid && e.seq > seq));
    ctx.decode_latch.retain(|e| !(e.tid == tid && e.seq > seq));
    ctx.rename_latch.retain(|e| !(e.tid == tid && e.seq > seq));
    ctx.iq_int.retain(|e| !(e.tid == tid && e.seq > seq));
    ctx.iq_ls.retain(|e| !(e.tid == tid && e.seq > seq));
    ctx.iq_fp.retain(|e| !(e.tid == tid && e.seq > seq));
    ctx.preissue[tid] -= inst_idx(before - ctx.preissue_live());

    // Repair the speculative front-end state and redirect.
    ctx.frontend
        .repair(&mut ctx.threads[tid].spec, &binfo, &meta, &di);
    let th = &mut ctx.threads[tid];
    th.ftq.clear();
    th.ftq_consumed = 0;
    th.diverged = false;
    th.iblock_until = None;
    th.pending_redirect = None;
    // Squashed sequence numbers are reused: every structure was purged
    // of them above, and window lookups rely on `seq` being contiguous.
    th.next_seq = seq + 1;
    th.next_fetch_pc = th.walker.pc();
    debug_assert_eq!(th.next_fetch_pc, di.next_pc, "oracle redirect mismatch");
}

/// Tullsen & Brown's FLUSH: squash the thread's instructions younger
/// than the long-latency load (from the first subsequent fetch block
/// on), freeing the shared queues it would otherwise clog, and rewind
/// the oracle so they are re-fetched when the miss returns.
pub(crate) fn flush_after_load(ctx: &mut PipelineCtx, tid: usize, load_seq: u64) {
    // A diverged thread's younger instructions are wrong-path and will
    // be reclaimed by the normal redirect; flushing would fight it.
    if ctx.threads[tid].diverged {
        return;
    }
    // The flush boundary is the first branch after the load: its block
    // checkpoint describes the exact front-end state to restore.
    let boundary = {
        let th = &ctx.threads[tid];
        let head = match th.window.front() {
            Some(h) => h.seq,
            None => return,
        };
        let start = (load_seq + 1).max(head);
        #[expect(clippy::cast_possible_truncation, reason = "start - head ≤ window len")]
        let skip = (start - head) as usize;
        th.window
            .iter()
            .skip(skip)
            .find(|c| c.has_binfo())
            .map(|c| (c.seq, *th.meta(c.seq)))
    };
    let Some((flush_seq, meta)) = boundary else {
        return; // nothing younger worth flushing
    };

    let mut freed_rob = 0u32;
    let mut rolled = 0u64;
    {
        let th = &mut ctx.threads[tid];
        while th.window.back().is_some_and(|b| b.seq >= flush_seq) {
            let ctl = th.window.pop_back().expect("checked");
            debug_assert!(!ctl.wrong_path(), "flush on an undiverged thread");
            rolled += 1;
            ctx.stats.squashed += 1;
            if ctl.dispatched() {
                freed_rob += 1;
                if let Some(newp) = ctl.phys_dest {
                    let dest = th.window.di(ctl.seq).dest.expect("dispatched with dest");
                    th.rename_map[dest.flat_index()] = ctl.prev_phys.expect("dispatched with dest");
                    match dest.class() {
                        RegClass::Int => ctx.free_int.push(newp),
                        RegClass::Fp => ctx.free_fp.push(newp),
                    }
                }
            }
        }
    }
    if rolled == 0 {
        return;
    }
    ctx.rob_occ -= freed_rob;
    // As in `squash_after`: all removed entries belong to `tid`.
    let before = ctx.preissue_live();
    ctx.fetch_buffer
        .retain(|e| !(e.tid == tid && e.seq >= flush_seq));
    ctx.decode_latch
        .retain(|e| !(e.tid == tid && e.seq >= flush_seq));
    ctx.rename_latch
        .retain(|e| !(e.tid == tid && e.seq >= flush_seq));
    ctx.iq_int.retain(|e| !(e.tid == tid && e.seq >= flush_seq));
    ctx.iq_ls.retain(|e| !(e.tid == tid && e.seq >= flush_seq));
    ctx.iq_fp.retain(|e| !(e.tid == tid && e.seq >= flush_seq));
    ctx.preissue[tid] -= inst_idx(before - ctx.preissue_live());

    let th = &mut ctx.threads[tid];
    th.walker.rollback(rolled);
    th.spec.hist = meta.hist;
    th.spec.ras.restore(meta.ras);
    th.spec.path = meta.path;
    th.spec.stream_start = meta.stream_start;
    th.ftq.clear();
    th.ftq_consumed = 0;
    th.iblock_until = None;
    th.next_seq = flush_seq;
    th.next_fetch_pc = th.walker.pc();
    debug_assert!(th.pending_redirect.is_none());
    ctx.stats.flushes += 1;
}
