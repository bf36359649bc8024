//! The in-order middle of the pipeline: decode, rename, and dispatch, over
//! the front FIFO that holds their latches.
//!
//! Dispatch performs the real work — register renaming and resource
//! acquisition (ROB slot, issue-queue slot, physical register) — stalling
//! the owning thread in order when any resource is exhausted. Decode and
//! rename are pure one-cycle latches.
//!
//! Each stage ticks before the stage that feeds it (`tick` runs dispatch,
//! rename, decode, fetch in that order), so an entry a stage
//! finds in its input latch always arrived in an earlier cycle: the latches
//! never need an arrival timestamp. Entries also never overtake each other,
//! so the fetch buffer and the two latches together hold the pre-dispatch
//! instructions in fetch order. [`FrontFifo`] stores them that way, as one
//! deque `[rename | decode | fetch buffer]`, plus the sizes of the first two
//! regions. Decode and rename then move no entries at all: each is a
//! `min()` update of a region counter.

use std::collections::VecDeque;

use smt_isa::{Addr, ArchReg, InstClass, Presized, MAX_THREADS};

use crate::config::{DECODE_WIDTH, IQ_SIZES, ROB_SIZE};

use super::{IqEntry, PipelineCtx, STALL_ROB_FULL};

/// One pre-dispatch instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LatchEntry {
    pub(crate) tid: usize,
    pub(crate) seq: u64,
}

/// The fetch buffer, decode latch and rename latch as one deque in fetch
/// order: the first `renamed` entries are the rename latch, the next
/// `decoded` the decode latch, and the rest the fetch buffer.
#[derive(Clone, Debug, Default)]
pub(crate) struct FrontFifo {
    q: Presized<VecDeque<LatchEntry>>,
    renamed: usize,
    decoded: usize,
}

impl FrontFifo {
    /// A FIFO with room for a full fetch buffer and two full latches.
    pub(crate) fn new(fetch_buffer: usize, decode_width: usize) -> Self {
        FrontFifo {
            q: Presized::deque(fetch_buffer + 2 * decode_width),
            renamed: 0,
            decoded: 0,
        }
    }

    /// Entries across all three regions.
    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    /// Entries in the fetch buffer region.
    pub(crate) fn fetch_buffer_len(&self) -> usize {
        self.q.len() - self.renamed - self.decoded
    }

    /// All entries, oldest (rename region) first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &LatchEntry> {
        self.q.iter()
    }

    /// Fetch: appends an entry to the fetch buffer.
    pub(crate) fn push(&mut self, e: LatchEntry) {
        self.q.push_back(e);
    }

    /// Decode: moves up to `width` entries from the fetch buffer into the
    /// decode latch, which holds at most `width`. Returns whether any moved.
    pub(crate) fn decode(&mut self, width: usize) -> bool {
        let k = (width - self.decoded).min(self.fetch_buffer_len());
        self.decoded += k;
        k > 0
    }

    /// Rename: moves up to `width` entries from the decode latch into the
    /// rename latch, which holds at most `width`. Returns whether any moved.
    pub(crate) fn rename(&mut self, width: usize) -> bool {
        let k = (width - self.renamed).min(self.decoded);
        self.renamed += k;
        self.decoded -= k;
        k > 0
    }

    /// Dispatch: offers each rename-latch entry to `keep` in order; the
    /// entries it returns `true` for stay in the latch (in order), the rest
    /// leave the FIFO. Returns whether any left.
    pub(crate) fn dispatch(&mut self, mut keep: impl FnMut(LatchEntry) -> bool) -> bool {
        let mut kept = 0;
        for i in 0..self.renamed {
            let e = self.q[i];
            if keep(e) {
                self.q[kept] = e;
                kept += 1;
            }
        }
        let left = kept < self.renamed;
        self.q.drain(kept..self.renamed);
        self.renamed = kept;
        left
    }

    /// Squash and FLUSH: drops every entry `keep` rejects, from whichever
    /// region holds it.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&LatchEntry) -> bool) {
        let (r0, d0) = (self.renamed, self.decoded);
        let (renamed, decoded) = (&mut self.renamed, &mut self.decoded);
        let mut i = 0;
        self.q.retain(|e| {
            let k = keep(e);
            if !k && i < r0 {
                *renamed -= 1;
            } else if !k && i < r0 + d0 {
                *decoded -= 1;
            }
            i += 1;
            k
        });
    }
}

/// The decode latch: moves up to `DECODE_WIDTH` entries from the fetch
/// buffer into the decode latch (a region-counter update of the front
/// FIFO). Acts when an entry moves.
pub(crate) fn decode(ctx: &mut PipelineCtx) -> bool {
    ctx.front.decode(DECODE_WIDTH as usize)
}

/// The rename latch: moves up to `DECODE_WIDTH` entries from the decode
/// latch into the rename latch. Acts when an entry moves.
pub(crate) fn rename(ctx: &mut PipelineCtx) -> bool {
    ctx.front.rename(DECODE_WIDTH as usize)
}

/// Which resource keeps a live rename-latch entry of `class` writing `dest`
/// from dispatching this cycle: `None` if the shared ROB, its issue queue
/// and its register file all have room, else the stall bit the blocked
/// thread observes — [`STALL_ROB_FULL`] for a full ROB, 0 for a full queue
/// or an empty free list.
fn blocker(ctx: &PipelineCtx, class: InstClass, dest: Option<ArchReg>) -> Option<u8> {
    if ctx.rob_occ >= ROB_SIZE {
        return Some(STALL_ROB_FULL);
    }
    let q = PipelineCtx::queue_for(class);
    let queue_full = ctx.iq[q].len() >= IQ_SIZES[q] as usize;
    let no_reg = dest.is_some_and(|d| ctx.free[PipelineCtx::file_for(d.class())].is_empty());
    (queue_full || no_reg).then_some(0)
}

/// The dispatch stage: renames registers and moves instructions from the
/// rename latch into the issue queues, in order per thread, bounded by the
/// shared ROB, the per-queue capacities, and the free physical registers.
/// Acts when an entry dispatches.
pub(crate) fn dispatch(ctx: &mut PipelineCtx) -> bool {
    let now = ctx.cycle;
    let mut budget = DECODE_WIDTH;
    let mut stalled = [false; MAX_THREADS];
    // The FIFO is taken out for the walk so the closure can borrow the
    // rest of the machine; the take leaves an empty, unallocated deque.
    let mut front = std::mem::take(&mut ctx.front);
    let acted = front.dispatch(|e| {
        if budget == 0 || stalled[e.tid] {
            return true;
        }
        // `rollback` purges the front FIFO in the same call that pops the
        // window, so every entry here is still live in its window.
        let (class, dest, srcs, mem_addr, wrong_path) = {
            let w = &ctx.threads[e.tid].window;
            assert!(
                w.ctl(e.seq).is_some(),
                "front FIFO entry outlived its window entry"
            );
            let di = w.di(e.seq);
            (
                di.class,
                di.dest,
                di.srcs,
                di.mem.map_or(Addr::NULL, |m| m.addr),
                di.wrong_path,
            )
        };
        if let Some(bit) = blocker(ctx, class, dest) {
            ctx.note_stall(e.tid, bit);
            stalled[e.tid] = true;
            return true;
        }

        // Rename: sources first, then the destination.
        // A missing source names the zero register (`IqEntry::src_phys`).
        let map = &ctx.threads[e.tid].rename_map;
        let zero = ctx.zero_reg();
        let src_phys = srcs.map(|r| r.map_or(zero, |r| map[r.flat_index()]));
        let (phys_dest, prev_phys) = match dest {
            Some(d) => {
                let new = ctx.free[PipelineCtx::file_for(d.class())]
                    .pop()
                    .expect("checked");
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
        }
        ctx.rob_occ += 1;
        #[expect(clippy::cast_possible_truncation, reason = "tid < MAX_THREADS")]
        let tid = e.tid as u8;
        ctx.iq[PipelineCtx::queue_for(class)].push(IqEntry {
            seq: e.seq,
            // Entries age one cycle before they can issue.
            wake: now + 1,
            mem_addr,
            src_phys,
            class,
            wrong_path,
            tid,
        });
        budget -= 1;
        false
    });
    ctx.front = front;
    acted
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::Cycle;
    use smt_workloads::Srng;

    /// The three separate latches this FIFO replaced, with their arrival
    /// stamps and the decode, rename and dispatch-pop code they ran.
    #[derive(Default)]
    struct Latches {
        fetch_buffer: VecDeque<(LatchEntry, Cycle)>,
        decode_latch: VecDeque<(LatchEntry, Cycle)>,
        rename_latch: VecDeque<(LatchEntry, Cycle)>,
    }

    impl Latches {
        fn advance(
            from: &mut VecDeque<(LatchEntry, Cycle)>,
            to: &mut VecDeque<(LatchEntry, Cycle)>,
            width: usize,
            now: Cycle,
        ) {
            let mut moved = 0;
            while moved < width && to.len() < width && from.front().is_some_and(|e| e.1 < now) {
                let (e, _) = from.pop_front().unwrap();
                to.push_back((e, now));
                moved += 1;
            }
        }

        fn dispatch(&mut self, now: Cycle, mut keep: impl FnMut(LatchEntry) -> bool) {
            let mut kept = VecDeque::new();
            while let Some((e, entered)) = self.rename_latch.pop_front() {
                if entered >= now || keep(e) {
                    kept.push_back((e, entered));
                }
            }
            self.rename_latch = kept;
        }

        fn retain(&mut self, keep: impl Fn(&LatchEntry) -> bool) {
            self.fetch_buffer.retain(|e| keep(&e.0));
            self.decode_latch.retain(|e| keep(&e.0));
            self.rename_latch.retain(|e| keep(&e.0));
        }
    }

    fn assert_same(fifo: &FrontFifo, old: &Latches, what: &str) {
        let regions: Vec<LatchEntry> = fifo.iter().copied().collect();
        let (r, d) = (fifo.renamed, fifo.decoded);
        let strip = |q: &VecDeque<(LatchEntry, Cycle)>| q.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(
            regions[..r],
            strip(&old.rename_latch),
            "rename after {what}"
        );
        assert_eq!(
            regions[r..r + d],
            strip(&old.decode_latch),
            "decode after {what}"
        );
        assert_eq!(
            regions[r + d..],
            strip(&old.fetch_buffer),
            "buffer after {what}"
        );
        assert_eq!(fifo.fetch_buffer_len(), old.fetch_buffer.len());
    }

    /// Random cycles in `Simulator::step` order — squash, FLUSH, dispatch,
    /// rename, decode, fetch, each present or not — drive the FIFO and the
    /// old latches; after every operation each region holds the same
    /// entries in the same order.
    #[test]
    fn fifo_matches_the_three_latches() {
        for case in 0..200u64 {
            let mut rng = Srng::new(0xF1F0 ^ case);
            let width = rng.range_usize(1, 9);
            let buffer = width + rng.range_usize(0, 25);
            let threads = rng.range_usize(1, 9);
            let mut fifo = FrontFifo::new(buffer, width);
            let mut old = Latches::default();
            let mut next_seq = vec![0u64; threads];
            for now in 1..300u64 {
                if rng.chance(0.1) {
                    // Squash (`seq > s`) or FLUSH (`seq >= s`) of one thread.
                    let tid = rng.range_usize(0, threads);
                    let s = rng.range(0, next_seq[tid] + 1);
                    let flush = rng.chance(0.5);
                    let keep =
                        |e: &LatchEntry| !(e.tid == tid && (e.seq > s || flush && e.seq == s));
                    fifo.retain(keep);
                    old.retain(keep);
                    assert_same(&fifo, &old, "squash");
                }
                if rng.chance(0.8) {
                    // Dispatch under a budget, skipping stalled threads; an
                    // entry dispatches, evaporates or stalls its thread.
                    let salt = rng.next_u64();
                    let pop = |budget: &mut usize, stalled: &mut [bool; 8], e: LatchEntry| {
                        if *budget == 0 || stalled[e.tid] {
                            return true;
                        }
                        let draw = Srng::new(salt ^ e.seq ^ ((e.tid as u64) << 40)).next_u64();
                        match draw % 4 {
                            0 => {
                                stalled[e.tid] = true;
                                true
                            }
                            1 => false,
                            _ => {
                                *budget -= 1;
                                false
                            }
                        }
                    };
                    let (mut b, mut st) = (width, [false; 8]);
                    fifo.dispatch(|e| pop(&mut b, &mut st, e));
                    let (mut b, mut st) = (width, [false; 8]);
                    old.dispatch(now, |e| pop(&mut b, &mut st, e));
                    assert_same(&fifo, &old, "dispatch");
                }
                if rng.chance(0.9) {
                    fifo.rename(width);
                    Latches::advance(&mut old.decode_latch, &mut old.rename_latch, width, now);
                    assert_same(&fifo, &old, "rename");
                }
                if rng.chance(0.9) {
                    fifo.decode(width);
                    Latches::advance(&mut old.fetch_buffer, &mut old.decode_latch, width, now);
                    assert_same(&fifo, &old, "decode");
                }
                let room = buffer - fifo.fetch_buffer_len();
                for _ in 0..rng.range_usize(0, room.min(width) + 1) {
                    let tid = rng.range_usize(0, threads);
                    let e = LatchEntry {
                        tid,
                        seq: next_seq[tid],
                    };
                    next_seq[tid] += 1;
                    fifo.push(e);
                    old.fetch_buffer.push_back((e, now));
                    assert_same(&fifo, &old, "fetch");
                }
            }
        }
    }
}
