//! The decoupled front end: the prediction stage (engine → FTQs) and the
//! fetch stage (FTQs → I-cache → fetch buffer), including both of the
//! paper's fetch architectures (1.X single-port, 2.X dual-port with
//! bank-conflict logic).

use smt_isa::{inst_idx, InstClass, MAX_THREADS};
use smt_mem::FetchOutcome;

use crate::config::LongLatencyAction;
use crate::frontend::{BranchInfo, ICACHE_BANKS, LINE_BYTES};
use crate::window::InFlightCtl;

use super::{
    BankSet, LatchEntry, PipelineCtx, STALL_BANK_CONFLICT, STALL_FETCH_STARVED, STALL_ICACHE_MISS,
};

/// The prediction stage: serves up to `n` threads per cycle, asking the
/// front-end engine for fetch blocks. The engine appends straight into the
/// served thread's FTQ — each predicted block is written exactly once.
/// Acts when it serves a thread.
pub(crate) fn predict(ctx: &mut PipelineCtx) -> bool {
    let ports = ctx.cfg.fetch_policy.threads_per_cycle as usize;
    let width = ctx.cfg.fetch_policy.width;
    let ftq_depth = ctx.cfg.ftq_depth as usize;
    let gating = ctx.cfg.fetch_policy.long_latency != LongLatencyAction::None;
    let now = ctx.cycle;
    let order = ctx.priorities();
    // Split the borrows by field so the engine can read the thread's
    // program while updating its speculative state and FTQ — no
    // per-thread `Program` clone, no per-cycle block Vec.
    let PipelineCtx {
        frontend,
        threads,
        stats,
        ..
    } = ctx;
    let mut served = 0usize;
    for tid in order {
        if served == ports {
            break;
        }
        let th = &mut threads[tid];
        let gated = gating && th.mem_stall_until.is_some_and(|until| until > now);
        let depth = th.ftq.len();
        if depth >= ftq_depth || gated {
            continue;
        }
        let pc = th.next_fetch_pc;
        let space = ftq_depth - depth;
        frontend.predict_blocks_into(
            tid,
            pc,
            &mut th.spec,
            th.walker.program(),
            width,
            space,
            &mut th.ftq,
        );
        debug_assert!(th.ftq.len() > depth && th.ftq.len() <= ftq_depth);
        th.next_fetch_pc = th.ftq.back().expect("non-empty").block.next_fetch;
        stats.blocks_predicted += (th.ftq.len() - depth) as u64;
        served += 1;
    }
    served > 0
}

/// The fetch stage: drains FTQ heads through the I-cache into the shared
/// fetch buffer, under the policy's port/width budget. The stage carries no
/// scratch: the walker's bulk decode writes straight into the window's
/// payload column ([`Window::payload_slots`](crate::window::Window)). Acts
/// when it serves a thread, even if the I-cache access misses or stalls.
pub(crate) fn fetch(ctx: &mut PipelineCtx) -> bool {
    let now = ctx.cycle;
    let ports = ctx.cfg.fetch_policy.threads_per_cycle as usize;
    let mut budget = ctx.cfg.fetch_policy.width;
    let order = ctx.priorities();
    let mut banks_used = BankSet::new();
    let mut delivered_total = 0u32;
    let mut attempted = false;
    let mut buffer_full_seen = false;
    let mut port = 0usize;
    let n = ctx.threads.len();
    // Threads whose fetch is blocked behind an I-cache miss observe an
    // icache-miss stall this cycle (the miss was taken earlier).
    for tid in 0..n {
        let th = &ctx.threads[tid];
        if !th.ftq.is_empty() && th.iblock_until.is_some_and(|r| r > now) {
            ctx.note_stall(tid, STALL_ICACHE_MISS);
        }
    }
    let mut fetch_served = [false; MAX_THREADS];
    for tid in order {
        if port == ports || budget == 0 {
            break;
        }
        if !ctx.threads[tid].fetch_eligible(now) || ctx.gated(tid) {
            continue;
        }
        if ctx.front.fetch_buffer_len() >= ctx.cfg.fetch_buffer as usize {
            buffer_full_seen = true;
            break;
        }
        let is_second = port > 0;
        let (got, did_attempt) = fetch_from(ctx, tid, budget, &mut banks_used, is_second);
        attempted |= did_attempt;
        delivered_total += got;
        budget -= got;
        fetch_served[tid] = true;
        port += 1;
    }
    // Threads that were fetch-ready and ungated but got no port this
    // cycle were starved by the fetch policy (or the full buffer).
    for (tid, &served) in fetch_served.iter().enumerate().take(n) {
        if !served && ctx.threads[tid].fetch_eligible(now) && !ctx.gated(tid) {
            ctx.note_stall(tid, STALL_FETCH_STARVED);
        }
    }
    if attempted {
        ctx.stats.fetch_cycles += 1;
        ctx.stats.distribution.record(delivered_total);
    }
    if buffer_full_seen {
        ctx.stats.fetch_buffer_stalls += 1;
    }
    port > 0
}

/// Fetches up to `budget` instructions from `tid`'s FTQ head.
///
/// Returns `(instructions delivered, whether an I-cache access was
/// attempted)`.
fn fetch_from(
    ctx: &mut PipelineCtx,
    tid: usize,
    budget: u32,
    banks_used: &mut BankSet,
    second_port: bool,
) -> (u32, bool) {
    let now = ctx.cycle;
    let mut budget = budget;
    let mut delivered = 0u32;
    let mut attempted = false;
    let mut current_group: Option<u64> = None;
    // A port normally consumes (part of) one FTQ entry per cycle — one
    // I-cache access. Blocks sharing a trace-cache line are the
    // exception: the trace storage supplies them all in one access.
    loop {
        let room = ctx.cfg.fetch_buffer as usize - ctx.front.fetch_buffer_len();
        let (group, start_pc, remaining) = {
            let th = &ctx.threads[tid];
            let Some(head) = th.ftq.front() else {
                break;
            };
            (
                head.trace_group,
                head.block.start.add_insts(th.ftq_consumed as u64),
                head.block.len - th.ftq_consumed,
            )
        };
        if delivered > 0 && (group.is_none() || group != current_group) {
            break;
        }
        current_group = group;
        let is_trace = group.is_some();
        let want = budget.min(remaining).min(inst_idx(room));
        if want == 0 {
            break;
        }

        let mut allowed = want;
        if is_trace {
            // Trace-cache hit: instructions come from the trace line,
            // no conventional I-cache access or bank constraint.
            attempted = true;
        } else {
            // Touch every I-cache line the delivery spans (at most a
            // few: the per-cycle budget is ≤ 16 instructions = one line).
            let first_line = start_pc.line(LINE_BYTES);
            let last_line = start_pc.add_insts(want as u64 - 1).line(LINE_BYTES);
            let mut line = first_line;
            loop {
                let insts_before_line = if line.raw() <= start_pc.raw() {
                    0
                } else {
                    inst_idx((line.raw() - start_pc.raw()) / 4)
                };
                let bank = line.bank(LINE_BYTES, ICACHE_BANKS);
                if second_port && banks_used.contains(bank) {
                    // Figure 3's bank-conflict logic: the lower-priority
                    // thread loses the conflicting access this cycle.
                    ctx.stats.bank_conflicts += 1;
                    ctx.note_stall(tid, STALL_BANK_CONFLICT);
                    allowed = allowed.min(insts_before_line);
                    break;
                }
                attempted = true;
                match ctx.mem.fetch(line, now) {
                    FetchOutcome::Hit => {
                        banks_used.push(bank);
                    }
                    FetchOutcome::Miss { ready } => {
                        ctx.threads[tid].iblock_until = Some(ready);
                        ctx.note_stall(tid, STALL_ICACHE_MISS);
                        allowed = allowed.min(insts_before_line);
                        break;
                    }
                    FetchOutcome::Stall => {
                        allowed = allowed.min(insts_before_line);
                        break;
                    }
                }
                if line == last_line {
                    break;
                }
                line += LINE_BYTES;
            }
        }

        if allowed == 0 {
            break;
        }
        deliver(ctx, tid, allowed);
        delivered += allowed;
        budget -= allowed;
        // Continue across FTQ entries only within one trace line.
        if !is_trace || budget == 0 {
            break;
        }
        // If the thread diverged mid-trace, stop early; the remaining
        // entries are squashed territory.
        if ctx.threads[tid].diverged {
            break;
        }
    }
    (delivered, attempted)
}

/// Delivers `n` instructions from `tid`'s FTQ head into the window and
/// the fetch buffer, consulting the oracle walker.
///
/// An instruction has one of two sources. On an undiverged thread the
/// walker stands at the delivery pc, and the on-oracle prefix of the
/// delivery is decoded in bulk
/// ([`next_block`](smt_workloads::Walker::next_block)) straight into the
/// window's payload column — the very slots the pushes below claim — so a
/// delivered instruction is written once and never staged through scratch.
/// The walker stops the bulk run after the first redirecting instruction,
/// which is exactly where this loop either finishes the block (correctly
/// predicted end branch) or detects a misprediction and diverges. Every
/// instruction past the bulk run is therefore on a diverged thread and is
/// synthesized as wrong path.
fn deliver(ctx: &mut PipelineCtx, tid: usize, n: u32) {
    let now = ctx.cycle;
    let th = &mut ctx.threads[tid];
    // Copy out only the block descriptor (a few words); the bulky block
    // checkpoint stays in the FTQ head until a branch needs it recorded.
    let consumed = th.ftq_consumed;
    let block = th.ftq.front().expect("caller checked").block;
    let first_seq = th.next_seq;
    let bulk = if th.diverged {
        0
    } else {
        debug_assert_eq!(
            th.walker.pc(),
            block.start.add_insts(u64::from(consumed)),
            "an undiverged thread's walker stands at the delivery pc"
        );
        // The n payload slots are dead (the window has room for n pushes),
        // but may wrap the ring. Continue into the wrapped half only if the
        // first half filled completely without ending at a redirecting
        // instruction — exactly the conditions under which one contiguous
        // `next_block` call would have kept decoding.
        let (a, b) = th.window.payload_slots(first_seq, n as usize);
        let k = th.walker.next_block(a, a.len());
        if k == a.len() && !b.is_empty() && a[k - 1].next_pc == a[k - 1].pc.add_insts(1) {
            k + th.walker.next_block(b, b.len())
        } else {
            k
        }
    };
    for i in 0..n {
        let idx_in_block = consumed + i;
        let pc = block.start.add_insts(u64::from(idx_in_block));
        let is_last = idx_in_block == block.len - 1;
        let is_end = is_last && block.end_branch.is_some();
        let spec_next = if is_last {
            block.next_fetch
        } else {
            pc.add_insts(1)
        };

        let seq = th.next_seq;
        let on_oracle = (i as usize) < bulk;
        let di = if on_oracle {
            // The bulk decode already wrote this instruction in place.
            debug_assert_eq!(th.window.di(seq).pc, pc);
            *th.window.di(seq)
        } else {
            debug_assert!(th.diverged, "wrong-path synthesis on an undiverged thread");
            let (spec_taken, spec_target) = if is_end {
                let eb = block.end_branch.expect("is_end");
                (eb.predicted_taken, eb.predicted_target)
            } else {
                (false, smt_isa::Addr::NULL)
            };
            let di = th.walker.wrong_path(pc, spec_taken, spec_target);
            th.window.set_di(seq, di);
            di
        };

        let mut mispredicted = false;
        if on_oracle && di.next_pc != spec_next {
            mispredicted = true;
            th.diverged = true;
            debug_assert!(th.pending_redirect.is_none());
            th.pending_redirect = Some(seq);
            ctx.stats.control_mispredicts += 1;
        }
        // Misfetches a decoder can catch without executing: a direct
        // unconditional branch whose (static) target disagrees with the
        // speculative path, or a "branch" slot holding a non-branch.
        let decode_redirect = mispredicted
            && (matches!(
                di.class,
                InstClass::Branch(smt_isa::BranchKind::Jump)
                    | InstClass::Branch(smt_isa::BranchKind::Call)
            ) || !di.class.is_branch());

        let binfo = if di.class.is_branch() || mispredicted {
            Some(BranchInfo {
                block_start: block.start,
                is_end,
                spec_taken: if is_end {
                    block.end_branch.map(|e| e.predicted_taken).unwrap_or(false)
                } else {
                    false
                },
                decode_redirect,
            })
        } else {
            None
        };

        th.next_seq += 1;
        // The checkpoint rides in the thread's seq-indexed ring, not the
        // window entry, so the window slot stays small (see `meta_ring`).
        if binfo.is_some() {
            th.set_meta_from_ftq_head(seq);
        }
        if di.wrong_path {
            ctx.stats.fetched_wrong_path += 1;
        }
        ctx.stats.fetched += 1;
        th.window
            .push(InFlightCtl::at_fetch(seq, now, &di, binfo.as_ref()), binfo);
        ctx.front.push(LatchEntry { tid, seq });
    }
    th.ftq_consumed += n;
    if th.ftq_consumed == block.len {
        th.ftq.pop_front();
        th.ftq_consumed = 0;
    }
    // Each delivered instruction occupies one fetch-buffer slot.
    ctx.preissue[tid] += n;
}
