//! The in-order middle of the pipeline: decode, rename, and dispatch.
//!
//! Decode and rename are pure latency latches (entries spend a cycle in
//! each); dispatch performs the real work — register renaming and resource
//! acquisition (ROB slot, issue-queue slot, physical register) — stalling
//! the owning thread in order when any resource is exhausted.

// The pipeline stages use `expect` to assert invariants that the stage
// protocol itself guarantees (e.g. "caller checked" FTQ heads, rename maps
// populated at dispatch). Construction is fallible and validated; once
// built, these are genuine internal invariants, not input errors.
#![expect(
    clippy::expect_used,
    reason = "stage-protocol invariants; violations must abort the simulation"
)]

use smt_isa::{Presized, RegClass, MAX_THREADS};

use super::sched::EventHorizon;
use super::{IqEntry, PipelineCtx, PipelineStage, STALL_ROB_FULL};

/// The decode latch: moves up to `decode_width` aged entries from the fetch
/// buffer into the decode latch.
#[derive(Clone, Debug)]
pub(crate) struct DecodeStage;

impl PipelineStage for DecodeStage {
    fn tick(&mut self, ctx: &mut PipelineCtx) {
        let now = ctx.cycle;
        let width = ctx.cfg.decode_width as usize;
        let mut moved = 0;
        while moved < width
            && ctx.decode_latch.len() < width
            && ctx.fetch_buffer.front().is_some_and(|e| e.entered < now)
        {
            let mut e = ctx.fetch_buffer.pop_front().expect("checked");
            e.entered = now;
            ctx.decode_latch.push_back(e);
            moved += 1;
        }
    }

    /// A pure latch acts exactly when an aged entry meets downstream room;
    /// between steps every queued entry is aged, so this is a length check.
    /// Unblocking needs another stage to act — no self-scheduled events.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut EventHorizon) {
        if ctx.decode_latch.len() < ctx.cfg.decode_width as usize && !ctx.fetch_buffer.is_empty() {
            debug_assert!(ctx
                .fetch_buffer
                .front()
                .is_some_and(|e| e.entered < ctx.cycle));
            ev.act();
        }
    }
}

/// The rename latch: moves up to `decode_width` aged entries from the
/// decode latch into the rename latch.
#[derive(Clone, Debug)]
pub(crate) struct RenameStage;

impl PipelineStage for RenameStage {
    fn tick(&mut self, ctx: &mut PipelineCtx) {
        let now = ctx.cycle;
        let width = ctx.cfg.decode_width as usize;
        let mut moved = 0;
        while moved < width
            && ctx.rename_latch.len() < width
            && ctx.decode_latch.front().is_some_and(|e| e.entered < now)
        {
            let mut e = ctx.decode_latch.pop_front().expect("checked");
            e.entered = now;
            ctx.rename_latch.push_back(e);
            moved += 1;
        }
    }

    /// Same latch rule as decode, one stage later.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut EventHorizon) {
        if ctx.rename_latch.len() < ctx.cfg.decode_width as usize && !ctx.decode_latch.is_empty() {
            debug_assert!(ctx
                .decode_latch
                .front()
                .is_some_and(|e| e.entered < ctx.cycle));
            ev.act();
        }
    }
}

/// The dispatch stage: renames registers and moves instructions from the
/// rename latch into the issue queues, in order per thread, bounded by the
/// shared ROB, the per-queue capacities, and the free physical registers.
#[derive(Clone, Debug)]
pub(crate) struct DispatchStage {
    /// Reusable scratch holding the entries kept in the latch this cycle
    /// (stalled or not yet aged). Capacity never grows past the latch bound.
    scratch: Presized<Vec<super::LatchEntry>>,
}

impl DispatchStage {
    pub(crate) fn new(decode_width: usize) -> Self {
        DispatchStage {
            scratch: Presized::vec(decode_width),
        }
    }
}

impl PipelineStage for DispatchStage {
    fn tick(&mut self, ctx: &mut PipelineCtx) {
        let now = ctx.cycle;
        let mut budget = ctx.cfg.decode_width;
        let mut stalled = [false; MAX_THREADS];
        // Drain the latch through the persistent scratch buffer and refill
        // it with the kept entries (same order), so the per-cycle filter
        // allocates nothing.
        let kept = &mut self.scratch;
        debug_assert!(kept.is_empty());
        while let Some(e) = ctx.rename_latch.pop_front() {
            if budget == 0 || stalled[e.tid] || e.entered >= now {
                kept.push(e);
                continue;
            }
            // The window entry may have been squashed since renaming began.
            // Liveness comes from the control column; the payload column is
            // only read once the seq is known live.
            let Some((class, dest, srcs, mem_addr, wrong_path)) = ({
                let w = &ctx.threads[e.tid].window;
                w.ctl(e.seq).map(|_| {
                    let di = w.di(e.seq);
                    (
                        di.class,
                        di.dest,
                        di.srcs,
                        di.mem.map(|m| m.addr),
                        di.wrong_path,
                    )
                })
            }) else {
                // The entry evaporates: it left the pre-issue structures
                // without moving to an issue queue.
                ctx.preissue[e.tid] -= 1;
                continue;
            };
            // Resource checks: shared ROB, issue-queue slot, physical
            // register.
            if ctx.rob_occ >= ctx.cfg.rob_size {
                ctx.note_stall(e.tid, STALL_ROB_FULL);
                stalled[e.tid] = true;
                kept.push(e);
                continue;
            }
            let (qlen, qcap) = match PipelineCtx::queue_for(class) {
                0 => (ctx.iq_int.len(), ctx.cfg.iq_int as usize),
                1 => (ctx.iq_ls.len(), ctx.cfg.iq_ls as usize),
                _ => (ctx.iq_fp.len(), ctx.cfg.iq_fp as usize),
            };
            if qlen >= qcap {
                stalled[e.tid] = true;
                kept.push(e);
                continue;
            }
            let need_reg = dest.map(|d| d.class());
            let have_reg = match need_reg {
                Some(RegClass::Int) => !ctx.free_int.is_empty(),
                Some(RegClass::Fp) => !ctx.free_fp.is_empty(),
                None => true,
            };
            if !have_reg {
                stalled[e.tid] = true;
                kept.push(e);
                continue;
            }

            // Rename: sources first, then the destination.
            let map = &ctx.threads[e.tid].rename_map;
            let src_phys = [
                srcs[0].map(|r| map[r.flat_index()]),
                srcs[1].map(|r| map[r.flat_index()]),
            ];
            let (phys_dest, prev_phys) = match dest {
                Some(d) => {
                    let new = match d.class() {
                        RegClass::Int => ctx.free_int.pop().expect("checked"),
                        RegClass::Fp => ctx.free_fp.pop().expect("checked"),
                    };
                    ctx.ready_at[new as usize] = u64::MAX;
                    let prev = ctx.threads[e.tid].rename_map[d.flat_index()];
                    ctx.threads[e.tid].rename_map[d.flat_index()] = new;
                    (Some(new), Some(prev))
                }
                None => (None, None),
            };
            {
                let ctl = ctx.threads[e.tid].window.ctl_mut(e.seq).expect("present");
                ctl.set_dispatched();
                ctl.phys_dest = phys_dest;
                ctl.prev_phys = prev_phys;
                ctl.src_phys = src_phys;
            }
            ctx.rob_occ += 1;
            let iq = IqEntry {
                tid: e.tid,
                seq: e.seq,
                entered: now,
                // Entries age one cycle before they can issue.
                wake: now + 1,
                src_phys,
                class,
                wrong_path,
                mem_addr,
            };
            match PipelineCtx::queue_for(class) {
                0 => ctx.iq_int.push(iq),
                1 => ctx.iq_ls.push(iq),
                _ => ctx.iq_fp.push(iq),
            }
            budget -= 1;
        }
        ctx.rename_latch.extend(kept.drain(..));
    }

    /// Replays the tick's resource walk without acquiring anything: the
    /// first latch entry that would dispatch (or evaporate) is an act; a
    /// thread blocked by the full shared ROB records the per-cycle ROB
    /// stall bit. Queue slots, registers and ROB space are only freed by
    /// other stages acting, so dispatch reports no self-scheduled events.
    fn horizon(&self, ctx: &PipelineCtx, ev: &mut EventHorizon) {
        let mut stalled = [false; MAX_THREADS];
        for e in ctx.rename_latch.iter() {
            if stalled[e.tid] {
                continue;
            }
            debug_assert!(e.entered < ctx.cycle, "latch entries age between steps");
            let w = &ctx.threads[e.tid].window;
            if w.ctl(e.seq).is_none() {
                // A squashed entry would evaporate (mutating the ICOUNT
                // bookkeeping): that is an act.
                ev.act();
                return;
            }
            let di = w.di(e.seq);
            if ctx.rob_occ >= ctx.cfg.rob_size {
                ev.flag(e.tid, STALL_ROB_FULL);
                stalled[e.tid] = true;
                continue;
            }
            let (qlen, qcap) = match PipelineCtx::queue_for(di.class) {
                0 => (ctx.iq_int.len(), ctx.cfg.iq_int as usize),
                1 => (ctx.iq_ls.len(), ctx.cfg.iq_ls as usize),
                _ => (ctx.iq_fp.len(), ctx.cfg.iq_fp as usize),
            };
            if qlen >= qcap {
                stalled[e.tid] = true;
                continue;
            }
            let have_reg = match di.dest.map(|d| d.class()) {
                Some(RegClass::Int) => !ctx.free_int.is_empty(),
                Some(RegClass::Fp) => !ctx.free_fp.is_empty(),
                None => true,
            };
            if !have_reg {
                stalled[e.tid] = true;
                continue;
            }
            ev.act();
            return;
        }
    }
}
