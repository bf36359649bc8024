//! Mis-speculation recovery: the branch-resolution stage (redirect on
//! mispredicted branches) and the long-latency-load FLUSH. Both remove a
//! thread's younger instructions through one [`rollback`] (window, renames,
//! ROB, pre-issue structures, FTQ) and then restore the front end's
//! speculative state from a block checkpoint.

use smt_isa::inst_idx;

use super::PipelineCtx;

/// The resolve stage: detects resolved mispredictions (decode-detectable
/// misfetches after one stage, the rest at completion) and squashes the
/// wrong path. Acts when it squashes.
pub(crate) fn resolve(ctx: &mut PipelineCtx) -> bool {
    let now = ctx.cycle;
    let mut acted = false;
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
            acted = true;
        }
    }
    acted
}

/// Removes every instruction of thread `tid` from sequence number `from`
/// on — the one rollback both squash and FLUSH use. Pops the window
/// youngest first, undoing renames and releasing ROB slots; purges the
/// front FIFO and the issue queues; empties the FTQ; and makes `from` the
/// next sequence number to fetch. Returns the number of instructions
/// removed.
fn rollback(ctx: &mut PipelineCtx, tid: usize, from: u64) -> u64 {
    // Popped seqs' payload slots stay intact until fetch refills them later
    // in the tick, so the destination arch register can still be read after
    // the pop.
    let th = &mut ctx.threads[tid];
    let mut rolled = 0;
    while th.window.back().is_some_and(|b| b.seq >= from) {
        let ctl = th.window.pop_back().expect("checked");
        rolled += 1;
        if ctl.dispatched() {
            ctx.rob_occ -= 1;
            if let Some(newp) = ctl.phys_dest {
                let dest = th.window.di(ctl.seq).dest.expect("dispatched with dest");
                th.rename_map[dest.flat_index()] = ctl.prev_phys.expect("dispatched with dest");
                ctx.free[PipelineCtx::file_for(dest.class())].push(newp);
            }
        }
    }
    ctx.stats.squashed += rolled;
    // Every removed entry belongs to `tid`, so the length delta is the
    // thread's pre-issue count adjustment.
    let before = ctx.preissue_live();
    ctx.front.retain(|e| !(e.tid == tid && e.seq >= from));
    for q in &mut ctx.iq {
        q.retain(|e| !(usize::from(e.tid) == tid && e.seq >= from));
    }
    ctx.preissue[tid] -= inst_idx(before - ctx.preissue_live());
    let th = &mut ctx.threads[tid];
    th.ftq.clear();
    th.ftq_consumed = 0;
    th.iblock_until = None;
    // Removed sequence numbers are reused: every structure was purged of
    // them above, and window lookups rely on `seq` being contiguous.
    th.next_seq = from;
    rolled
}

/// Squashes everything younger than `seq` in thread `tid` and redirects
/// its front end to the oracle path.
pub(crate) fn squash_after(ctx: &mut PipelineCtx, tid: usize, seq: u64) {
    // Extract the branch's recovery info first (all payloads are `Copy`,
    // so this is a plain read).
    let (di, binfo) = {
        let w = &ctx.threads[tid].window;
        w.ctl(seq).expect("redirect target alive");
        (
            *w.di(seq),
            w.binfo(seq).expect("diverging inst carries info"),
        )
    };
    let meta = *ctx.threads[tid].meta(seq);
    rollback(ctx, tid, seq + 1);
    // Repair the speculative front-end state and redirect.
    ctx.frontend
        .repair(&mut ctx.threads[tid].spec, &binfo, &meta, &di);
    let th = &mut ctx.threads[tid];
    th.diverged = false;
    th.pending_redirect = None;
    th.next_fetch_pc = th.walker.pc();
    debug_assert_eq!(th.next_fetch_pc, di.next_pc, "oracle redirect mismatch");
}

/// Tullsen & Brown's FLUSH: squash the thread's instructions younger than
/// the long-latency load (from the first subsequent fetch block on),
/// freeing the shared queues it would otherwise clog, and rewind the oracle
/// so they are re-fetched when the miss returns.
pub(crate) fn flush_after_load(ctx: &mut PipelineCtx, tid: usize, load_seq: u64) {
    // A diverged thread's younger instructions are wrong-path and will be
    // reclaimed by the normal redirect; flushing would fight it.
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
    debug_assert!(
        ctx.threads[tid].window.iter().all(|c| !c.wrong_path()),
        "flush on an undiverged thread"
    );
    // The boundary is in the window, so at least one instruction rolls back.
    let rolled = rollback(ctx, tid, flush_seq);
    let th = &mut ctx.threads[tid];
    th.walker.rollback(rolled);
    th.spec.restore(&meta);
    th.next_fetch_pc = th.walker.pc();
    debug_assert!(th.pending_redirect.is_none());
    ctx.stats.flushes += 1;
}
