//! The commit stage: in-order retirement, the front end's retire hook
//! (predictor training, committed-path registers, the trace-cache fill
//! unit) and the branch statistics.

use smt_isa::InstClass;

use crate::config::COMMIT_WIDTH;

use super::{PipelineCtx, STALL_DCACHE_MISS};

/// The commit stage: retires completed instructions in order, round-robin
/// across threads under the shared commit width. Acts when it commits.
pub(crate) fn commit(ctx: &mut PipelineCtx) -> bool {
    let now = ctx.cycle;
    let n = ctx.threads.len();
    let mut budget = COMMIT_WIDTH;
    #[expect(clippy::cast_possible_truncation, reason = "remainder < n, a usize")]
    let start = (ctx.cycle % n as u64) as usize;
    for k in 0..n {
        let tid = if start + k >= n {
            start + k - n
        } else {
            start + k
        };
        while budget > 0 {
            let committable = {
                let th = &ctx.threads[tid];
                th.window
                    .front()
                    .map(|c| c.dispatched() && c.completed(now))
                    .unwrap_or(false)
            };
            if !committable {
                break;
            }
            let ctl = ctx.threads[tid].window.pop_front().expect("checked");
            let seq = ctl.seq;
            // Popped this very cycle; fetch runs after commit within the
            // tick, so the payload columns still hold this seq's data.
            let di = *ctx.threads[tid].window.di(seq);
            let binfo = ctx.threads[tid].window.binfo(seq);
            debug_assert!(!ctl.wrong_path(), "wrong-path instruction reached commit");
            ctx.rob_occ -= 1;
            if let Some(prev) = ctl.prev_phys {
                let dest = di.dest.expect("prev implies dest");
                ctx.free[PipelineCtx::file_for(dest.class())].push(prev);
            }
            ctx.stats.committed[tid] += 1;
            budget -= 1;

            if di.class == InstClass::Store {
                let addr = di.mem.expect("stores carry addresses").addr;
                ctx.mem.store(addr, now);
            }

            // The slot cannot have been reused: the instruction left the
            // window this very cycle, and fetch runs after commit within
            // the tick.
            let branch = binfo.map(|info| (info, ctx.threads[tid].meta(seq).hist));
            let th = &mut ctx.threads[tid];
            ctx.frontend.retire(&di, branch, &mut th.committed);
            if di.is_cond_branch() {
                if let Some((info, meta_hist)) = branch {
                    ctx.stats.cond_branches += 1;
                    if info.spec_taken != di.taken {
                        ctx.stats.cond_mispredicts += 1;
                    }
                    if info.is_end {
                        let bits = meta_hist.width().min(16);
                        let mask = (1u64 << bits) - 1;
                        if meta_hist.bits() & mask != th.commit_hist & mask {
                            ctx.stats.hist_mismatches += 1;
                        }
                    }
                }
                th.commit_hist = (th.commit_hist << 1) | di.taken as u64;
            }
        }
        if budget == 0 {
            break;
        }
    }
    // Threads whose ROB head is an issued load still waiting on the
    // data cache observe a dcache-miss stall this cycle (short-latency
    // hits complete within a cycle or two, so the bucket is dominated
    // by real misses).
    for tid in 0..n {
        let blocked = ctx.threads[tid]
            .window
            .front()
            .map(|c| c.dispatched() && c.issued() && !c.completed(now) && c.is_load())
            .unwrap_or(false);
        if blocked {
            ctx.note_stall(tid, STALL_DCACHE_MISS);
        }
    }
    budget < COMMIT_WIDTH
}
