//! Structure-of-arrays in-flight instruction window.
//!
//! The pipeline's steady-state scans — commit's head poll, issue wakeup,
//! the resolve/squash tail walk — touch only a handful of bookkeeping words
//! per instruction (sequence number, status flags, completion cycle,
//! physical registers). Keeping those in a fat per-slot struct next to the
//! ~64-byte [`DynInst`] payload drags the payload through every scan and
//! every `VecDeque` shuffle. [`Window`] splits the two apart:
//!
//! * a hot [`InFlightCtl`] deque holding exactly the scanned bookkeeping
//!   (a few slots per cache line instead of one), and
//! * two parallel rings — the [`DynInst`] payload column and the
//!   `Option<BranchInfo>` column — indexed by `seq & mask`, exactly the
//!   scheme already proven safe for the thread's `BlockMeta` checkpoint
//!   ring.
//!
//! **Index-safety argument** (shared with `ThreadState::meta`): the ring
//! capacity is `(window_cap + 1).next_power_of_two()`, strictly larger
//! than the window occupancy bound, and window sequence numbers are
//! contiguous, so no two live instructions can map to the same slot. Stale
//! slots hold retired garbage and are never read: payload reads are only
//! performed for live sequence numbers, or for an entry popped in the same
//! stage tick that reads it (no push can intervene — only the fetch stage
//! pushes, and it never pops).
//!
//! The payload column doubles as the fetch stage's decode target: the bulk
//! walker decode writes straight into [`Window::payload_slots`] instead of
//! a separate width-sized scratch buffer, so a delivered instruction is
//! written once, in place, and never copied between buffers.

use std::collections::VecDeque;

use smt_isa::{Addr, Cycle, DynInst, InstClass, Presized};

use crate::frontend::BranchInfo;

/// Physical register id (dense across int + fp spaces).
pub(crate) type PhysReg = u32;

/// Status bit: the instruction passed dispatch (holds backend resources).
const DISPATCHED: u8 = 1 << 0;
/// Status bit: the instruction has issued to a functional unit.
const ISSUED: u8 = 1 << 1;
/// Classification bit: fetched down a wrong (divergent) path.
const WRONG_PATH: u8 = 1 << 2;
/// Classification bit: the payload is a load.
const IS_LOAD: u8 = 1 << 3;
/// Classification bit: the payload is a branch (any kind).
const IS_BRANCH: u8 = 1 << 4;
/// Classification bit: a [`BranchInfo`] record rides in the binfo column.
const HAS_BINFO: u8 = 1 << 5;
/// Classification bit: the attached `BranchInfo` has `decode_redirect`.
const DECODE_REDIRECT: u8 = 1 << 6;

/// Hot per-instruction bookkeeping: everything the issue/commit/squash
/// scans need, and nothing else.
///
/// The mutable status bits (`dispatched`, `issued`) and the classification
/// bits derived from the payload at fetch (`wrong_path`, `is_load`,
/// `is_branch`, `has_binfo`, `decode_redirect`) share one flags byte; the
/// classification bits are immutable after [`InFlightCtl::at_fetch`], which
/// is what lets the scans run without touching the payload column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InFlightCtl {
    /// Per-thread fetch-order sequence number.
    pub seq: u64,
    /// Cycle the instruction was fetched.
    pub fetched_at: Cycle,
    /// Completion cycle (valid once issued).
    pub done_at: Cycle,
    /// Physical destination register, if any.
    pub phys_dest: Option<PhysReg>,
    /// Previous mapping of the destination architectural register.
    pub prev_phys: Option<PhysReg>,
    flags: u8,
}

impl InFlightCtl {
    /// Builds the control entry for a just-fetched instruction, deriving
    /// the immutable classification bits from the payload and its optional
    /// branch record.
    pub(crate) fn at_fetch(
        seq: u64,
        fetched_at: Cycle,
        di: &DynInst,
        binfo: Option<&BranchInfo>,
    ) -> Self {
        let mut flags = 0u8;
        if di.wrong_path {
            flags |= WRONG_PATH;
        }
        if di.class == InstClass::Load {
            flags |= IS_LOAD;
        }
        if di.class.is_branch() {
            flags |= IS_BRANCH;
        }
        if let Some(b) = binfo {
            flags |= HAS_BINFO;
            if b.decode_redirect {
                flags |= DECODE_REDIRECT;
            }
        }
        InFlightCtl {
            seq,
            fetched_at,
            done_at: 0,
            phys_dest: None,
            prev_phys: None,
            flags,
        }
    }

    /// Whether the instruction passed dispatch.
    pub(crate) fn dispatched(&self) -> bool {
        self.flags & DISPATCHED != 0
    }

    /// Marks the instruction dispatched.
    pub(crate) fn set_dispatched(&mut self) {
        self.flags |= DISPATCHED;
    }

    /// Whether the instruction has issued to a functional unit.
    pub(crate) fn issued(&self) -> bool {
        self.flags & ISSUED != 0
    }

    /// Marks the instruction issued.
    pub(crate) fn set_issued(&mut self) {
        self.flags |= ISSUED;
    }

    /// Whether the payload was fetched down a wrong (divergent) path.
    pub(crate) fn wrong_path(&self) -> bool {
        self.flags & WRONG_PATH != 0
    }

    /// Whether the payload is a load.
    pub(crate) fn is_load(&self) -> bool {
        self.flags & IS_LOAD != 0
    }

    /// Whether the payload is a branch of any kind.
    pub(crate) fn is_branch(&self) -> bool {
        self.flags & IS_BRANCH != 0
    }

    /// Whether a [`BranchInfo`] record rides in the binfo column.
    pub(crate) fn has_binfo(&self) -> bool {
        self.flags & HAS_BINFO != 0
    }

    /// Whether the attached branch record carries `decode_redirect`.
    pub(crate) fn decode_redirect(&self) -> bool {
        self.flags & DECODE_REDIRECT != 0
    }

    /// Whether execution finished by cycle `now`.
    pub(crate) fn completed(&self, now: Cycle) -> bool {
        self.issued() && self.done_at <= now
    }
}

/// Deterministic placeholder filling fresh payload-ring slots; never read.
const PAYLOAD_FILL: DynInst = DynInst {
    thread: 0,
    static_id: 0,
    pc: Addr::NULL,
    class: InstClass::IntAlu,
    dest: None,
    srcs: [None, None],
    mem: None,
    taken: false,
    next_pc: Addr::NULL,
    wrong_path: false,
};

/// The in-flight instruction window, structure-of-arrays layout.
///
/// See the module docs for the layout and the index-safety argument. The
/// deque and both rings are sized once by [`Window::presize`]; steady-state
/// pushes and pops never allocate.
#[derive(Clone, Debug, Default)]
pub(crate) struct Window {
    ctl: Presized<VecDeque<InFlightCtl>>,
    payload: Vec<DynInst>,
    binfo: Vec<Option<BranchInfo>>,
    mask: u64,
}

impl Window {
    /// Creates an empty, un-sized window; [`Window::presize`] must run
    /// before the first push.
    pub(crate) fn new() -> Self {
        Window::default()
    }

    /// Sizes the control deque for `window_cap` entries and both columns to
    /// the strictly-larger power of two, establishing the no-collision
    /// property for `seq & mask` indexing.
    pub(crate) fn presize(&mut self, window_cap: usize) {
        self.ctl.reserve(window_cap);
        let cap = (window_cap + 1).next_power_of_two();
        self.payload = vec![PAYLOAD_FILL; cap];
        self.binfo = vec![None; cap];
        self.mask = cap as u64 - 1;
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked to the ring size")]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Number of in-flight instructions.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.ctl.len()
    }

    /// Whether the window is empty.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.ctl.is_empty()
    }

    /// The oldest in-flight instruction's control entry.
    pub(crate) fn front(&self) -> Option<&InFlightCtl> {
        self.ctl.front()
    }

    /// The youngest in-flight instruction's control entry.
    pub(crate) fn back(&self) -> Option<&InFlightCtl> {
        self.ctl.back()
    }

    /// Iterates the control entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &InFlightCtl> {
        self.ctl.iter()
    }

    /// Looks up a live instruction's control entry by sequence number.
    ///
    /// The window is contiguous in `seq`, so this is O(1).
    pub(crate) fn ctl(&self, seq: u64) -> Option<&InFlightCtl> {
        let head = self.ctl.front()?.seq;
        self.ctl.get(usize::try_from(seq.checked_sub(head)?).ok()?)
    }

    /// Mutable variant of [`Window::ctl`].
    pub(crate) fn ctl_mut(&mut self, seq: u64) -> Option<&mut InFlightCtl> {
        let head = self.ctl.front()?.seq;
        self.ctl
            .get_mut(usize::try_from(seq.checked_sub(head)?).ok()?)
    }

    /// The payload of instruction `seq`.
    ///
    /// Valid for live sequence numbers, or for an entry popped in the same
    /// stage tick (no intervening push can reuse the slot; see module docs).
    pub(crate) fn di(&self, seq: u64) -> &DynInst {
        &self.payload[self.slot(seq)]
    }

    /// The branch record of instruction `seq`, if one was attached at
    /// fetch. Same validity contract as [`Window::di`].
    pub(crate) fn binfo(&self, seq: u64) -> Option<BranchInfo> {
        self.binfo[self.slot(seq)]
    }

    /// Writes the payload for the upcoming instruction `seq` (the non-bulk
    /// fetch path); must be followed by the matching [`Window::push`].
    pub(crate) fn set_di(&mut self, seq: u64, di: DynInst) {
        let slot = self.slot(seq);
        self.payload[slot] = di;
    }

    /// The payload column for the `n` upcoming instructions starting at
    /// `start_seq`, as (up to) two slices where the ring wraps. The fetch
    /// stage hands these straight to the bulk walker decode, so delivered
    /// instructions are written once, in place.
    ///
    /// The slots are dead: `n` is bounded by the fetch width and the window
    /// has room for the push, so by the contiguity argument none of the
    /// returned slots aliases a live instruction.
    pub(crate) fn payload_slots(
        &mut self,
        start_seq: u64,
        n: usize,
    ) -> (&mut [DynInst], &mut [DynInst]) {
        let cap = self.payload.len();
        debug_assert!(n <= cap, "payload_slots asked for {n} of {cap} slots");
        let s = self.slot(start_seq);
        let (head, tail) = self.payload.split_at_mut(s);
        let first = n.min(cap - s);
        (&mut tail[..first], &mut head[..n - first])
    }

    /// Pushes a fetched instruction: the control entry and its branch
    /// record column. The payload slot for `ctl.seq` must already hold the
    /// instruction (via [`Window::set_di`] or [`Window::payload_slots`]).
    pub(crate) fn push(&mut self, ctl: InFlightCtl, binfo: Option<BranchInfo>) {
        debug_assert!(
            self.ctl.back().is_none_or(|b| b.seq + 1 == ctl.seq),
            "window seqs must stay contiguous"
        );
        debug_assert!(
            self.ctl.len() < self.payload.len(),
            "window overran its ring"
        );
        let slot = self.slot(ctl.seq);
        self.binfo[slot] = binfo;
        self.ctl.push_back(ctl);
    }

    /// Pops the oldest instruction (commit). Its payload columns stay
    /// readable through [`Window::di`]/[`Window::binfo`] for the rest of
    /// the popping stage's tick.
    pub(crate) fn pop_front(&mut self) -> Option<InFlightCtl> {
        self.ctl.pop_front()
    }

    /// Pops the youngest instruction (squash/flush walks). Same post-pop
    /// read contract as [`Window::pop_front`].
    pub(crate) fn pop_back(&mut self) -> Option<InFlightCtl> {
        self.ctl.pop_back()
    }

    /// Number of instructions at or after `seq` (tail length from `seq`).
    #[cfg(test)]
    fn tail_len_from(&self, seq: u64) -> smt_isa::InstIdx {
        match self.ctl.back() {
            Some(b) if b.seq >= seq => smt_isa::inst_idx(b.seq - seq + 1),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::BranchKind;
    use smt_workloads::Srng;

    fn di_at(pc: u64, next: u64) -> DynInst {
        DynInst {
            pc: Addr::new(pc),
            next_pc: Addr::new(next),
            ..PAYLOAD_FILL
        }
    }

    fn push_seq(w: &mut Window, seq: u64) {
        let di = di_at(0x1000 + seq * 4, 0x1000 + seq * 4 + 4);
        w.set_di(seq, di);
        w.push(InFlightCtl::at_fetch(seq, 7, &di, None), None);
    }

    #[test]
    fn lookup_by_seq_is_stable_across_pops() {
        let mut w = Window::new();
        w.presize(8);
        for s in 0..5 {
            push_seq(&mut w, s);
        }
        assert_eq!(w.ctl(3).unwrap().seq, 3);
        assert!(w.ctl(9).is_none());
        let popped = w.pop_front().unwrap();
        assert_eq!(popped.seq, 0);
        // Post-pop payload read, same tick: still the popped instruction.
        assert_eq!(w.di(0).pc, Addr::new(0x1000));
        assert_eq!(w.ctl(3).unwrap().seq, 3);
        assert!(w.ctl(0).is_none());
        w.ctl_mut(4).unwrap().set_issued();
        assert!(w.ctl(4).unwrap().issued());
    }

    #[test]
    fn payload_ring_wraps_without_collision() {
        let mut w = Window::new();
        w.presize(6); // ring capacity 8
                      // March the window far past the ring size, always ≤ cap live.
        for s in 0..64u64 {
            if w.len() == 6 {
                w.pop_front();
            }
            push_seq(&mut w, s);
            for c in w.iter() {
                assert_eq!(
                    w.di(c.seq).pc,
                    Addr::new(0x1000 + c.seq * 4),
                    "seq {}",
                    c.seq
                );
            }
        }
    }

    #[test]
    fn payload_slots_split_at_the_wrap() {
        let mut w = Window::new();
        w.presize(6); // ring capacity 8
        let (a, b) = w.payload_slots(5, 6);
        assert_eq!(a.len(), 3); // slots 5, 6, 7
        assert_eq!(b.len(), 3); // slots 0, 1, 2
        let (a, b) = w.payload_slots(1, 4);
        assert_eq!(a.len(), 4);
        assert!(b.is_empty());
    }

    #[test]
    fn flags_derive_from_payload_and_binfo() {
        let mut load = PAYLOAD_FILL;
        load.class = InstClass::Load;
        let c = InFlightCtl::at_fetch(0, 0, &load, None);
        assert!(c.is_load() && !c.is_branch() && !c.has_binfo());
        assert!(!c.dispatched() && !c.issued() && !c.completed(0));
        let mut c = c;
        c.set_issued();
        c.done_at = 3;
        assert!(!c.completed(2));
        assert!(c.completed(3));
    }

    #[test]
    fn tail_len_counts_from_seq() {
        let mut w = Window::new();
        w.presize(8);
        for s in 3..9 {
            push_seq(&mut w, s);
        }
        assert_eq!(w.tail_len_from(3), 6);
        assert_eq!(w.tail_len_from(7), 2);
        assert_eq!(w.tail_len_from(9), 0);
    }

    /// One record of the naive array-of-structs reference window: the control
    /// entry, its payload, and its branch record side by side in a plain deque.
    #[derive(Clone, Copy, Debug)]
    struct AosInst {
        ctl: InFlightCtl,
        di: DynInst,
        binfo: Option<BranchInfo>,
    }

    /// A deterministic random instruction (and, for branches, a branch record)
    /// for sequence number `seq`.
    fn random_inst(rng: &mut Srng, seq: u64) -> (DynInst, Option<BranchInfo>) {
        let pc = Addr::new(0x40_0000 + seq * 4);
        let class = match rng.range(0, 5) {
            0 => InstClass::IntAlu,
            1 => InstClass::Load,
            2 => InstClass::Store,
            3 => InstClass::FpAlu,
            _ => InstClass::Branch(BranchKind::Cond),
        };
        let taken = rng.chance(0.4);
        let next_pc = if taken {
            Addr::new(0x40_0000 + rng.range(0, 1 << 16) * 4)
        } else {
            pc.add_insts(1)
        };
        let di = DynInst {
            thread: 0,
            static_id: rng.range_u32(0, 1 << 16),
            pc,
            class,
            dest: None,
            srcs: [None, None],
            mem: None,
            taken,
            next_pc,
            wrong_path: rng.chance(0.1),
        };
        let binfo = matches!(class, InstClass::Branch(_)).then(|| BranchInfo {
            block_start: pc,
            is_end: rng.chance(0.5),
            spec_taken: rng.chance(0.5),
            decode_redirect: rng.chance(0.2),
        });
        (di, binfo)
    }

    /// The structure-of-arrays window is observably identical to a naive
    /// array-of-structs reference deque: over random operation traces — pushes
    /// (including sequence-number reuse after a pop-back, the squash pattern),
    /// pops from both ends, and control-entry mutations — every lookup agrees
    /// after every operation, on random window capacities that force the
    /// payload ring to wrap many times.
    #[test]
    fn soa_window_matches_aos_reference() {
        for case in 0..64 {
            let mut rng = Srng::new(0x50a0 ^ case);
            let cap = 4 + rng.range_usize(0, 60);
            let mut soa = Window::new();
            soa.presize(cap);
            let mut aos: VecDeque<AosInst> = VecDeque::new();
            let mut next_seq = rng.range(0, 1000);
            let ops = 200 + rng.range(0, 800);
            for _ in 0..ops {
                match rng.range(0, 10) {
                    0..=4 => {
                        if soa.len() < cap {
                            let seq = next_seq;
                            next_seq += 1;
                            let (di, binfo) = random_inst(&mut rng, seq);
                            soa.set_di(seq, di);
                            let ctl = InFlightCtl::at_fetch(
                                seq,
                                rng.range(0, 1 << 20),
                                &di,
                                binfo.as_ref(),
                            );
                            soa.push(ctl, binfo);
                            aos.push_back(AosInst { ctl, di, binfo });
                        }
                    }
                    5 => {
                        assert_eq!(
                            soa.pop_front(),
                            aos.pop_front().map(|r| r.ctl),
                            "case {case}"
                        );
                    }
                    6 => {
                        let popped = aos.pop_back();
                        assert_eq!(soa.pop_back(), popped.map(|r| r.ctl), "case {case}");
                        if let Some(r) = popped {
                            // Squash semantics: the popped seq is reused next.
                            next_seq = r.ctl.seq;
                        }
                    }
                    7 => {
                        if !aos.is_empty() {
                            let k = rng.range_usize(0, aos.len());
                            let seq = aos[k].ctl.seq;
                            let c = soa.ctl_mut(seq).expect("live seq has a control entry");
                            if rng.chance(0.5) {
                                c.set_dispatched();
                                aos[k].ctl.set_dispatched();
                            }
                            if rng.chance(0.5) {
                                c.set_issued();
                                aos[k].ctl.set_issued();
                            }
                            let done = rng.range(0, 1 << 20);
                            c.done_at = done;
                            aos[k].ctl.done_at = done;
                            let p = rng.range_u32(0, 512);
                            c.phys_dest = Some(p);
                            aos[k].ctl.phys_dest = Some(p);
                        }
                    }
                    _ => {
                        if !aos.is_empty() {
                            let k = rng.range_usize(0, aos.len());
                            let seq = aos[k].ctl.seq;
                            assert_eq!(
                                soa.tail_len_from(seq),
                                u32::try_from(aos.len() - k).unwrap(),
                                "case {case}"
                            );
                        }
                    }
                }
                // Full observable-state comparison after every operation.
                assert_eq!(soa.len(), aos.len(), "case {case}");
                assert_eq!(soa.is_empty(), aos.is_empty(), "case {case}");
                assert_eq!(soa.front(), aos.front().map(|r| &r.ctl), "case {case}");
                assert_eq!(soa.back(), aos.back().map(|r| &r.ctl), "case {case}");
                for (got, want) in soa.iter().zip(aos.iter()) {
                    assert_eq!(got, &want.ctl, "case {case}");
                    assert_eq!(soa.di(want.ctl.seq), &want.di, "case {case}");
                    assert_eq!(
                        format!("{:?}", soa.binfo(want.ctl.seq)),
                        format!("{:?}", want.binfo),
                        "case {case}"
                    );
                    assert_eq!(got.has_binfo(), want.binfo.is_some(), "case {case}");
                    assert_eq!(
                        got.is_load(),
                        want.di.class == InstClass::Load,
                        "case {case}"
                    );
                    assert_eq!(got.is_branch(), want.di.class.is_branch(), "case {case}");
                }
                // A never-pushed seq resolves to no control entry.
                assert!(soa.ctl(next_seq).is_none(), "case {case}");
                if let Some(front) = aos.front() {
                    if front.ctl.seq > 0 {
                        assert!(soa.ctl(front.ctl.seq - 1).is_none(), "case {case}");
                    }
                }
            }
        }
    }
}
