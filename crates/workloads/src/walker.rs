//! The program walker: deterministic oracle of the correct execution path.
//!
//! A [`Walker`] owns the architectural sequencing state of one thread — the
//! program counter, per-static-instruction occurrence counters, and the call
//! stack — and produces the thread's dynamic instruction stream, one
//! instruction ([`Walker::next_inst`]) or one straight-line run
//! ([`Walker::next_block`]) at a time, through one decode step. The
//! simulator's fetch stage *advances the walker only for correct-path
//! instructions*; after a predicted branch diverges from the oracle,
//! subsequent instructions are synthesized as wrong-path
//! ([`Walker::wrong_path`]) without touching the walker, so recovery after a
//! squash is simply "resume fetching at [`Walker::pc`]".

// The walker is the oracle: a wrong-path query that violates its
// contract (e.g. resuming at a PC outside the program) is a simulator
// bug, not an input error, so it panics loudly rather than guessing.
#![expect(
    clippy::panic,
    clippy::expect_used,
    reason = "the walker is the oracle; contract violations are simulator bugs and must abort"
)]

use std::fmt;
use std::sync::Arc;

use smt_isa::{Addr, BranchKind, DynInst, InstClass, MemAccess, Presized, StaticInstId, ThreadId};

use crate::behavior::Behavior;
use crate::program::Program;

/// Hard bound on call-stack depth; exceeding it indicates a broken program.
const MAX_CALL_DEPTH: usize = 1024;

/// Maximum number of instructions a walker can roll back
/// ([`Walker::rollback`]); sized to cover any realistic in-flight window.
/// A power of two so the undo ring wraps by masking, not division.
const UNDO_DEPTH: usize = 2048;
const _: () = assert!(UNDO_DEPTH.is_power_of_two());

/// Undo-log record for one produced instruction.
#[derive(Clone, Copy, Debug)]
struct UndoRecord {
    pc_before: Addr,
    static_id: u32,
    path_hist_before: u64,
    /// Call-stack effect to undo: `Pushed` pops, `Popped(a)` re-pushes `a`.
    stack_op: StackOp,
}

#[derive(Clone, Copy, Debug)]
enum StackOp {
    None,
    Pushed,
    Popped(Addr),
}

/// Fixed-capacity ring of the last [`UNDO_DEPTH`] undo records.
///
/// Replaces the former `VecDeque`: the storage is reserved once at
/// [`UNDO_DEPTH`] (no reallocation ever) and the write/read cursors wrap by
/// masking (no modulo on the per-instruction hot path). Pushing beyond
/// capacity overwrites the oldest record, exactly like the old bounded
/// deque. Slots are written only as the walker first reaches them, so
/// building a walker writes none of the 80 KB ring.
#[derive(Clone)]
struct UndoRing {
    /// Initialised slots; it only grows, to [`UNDO_DEPTH`]. While it is
    /// shorter, `head` is 0 and the live records are its prefix.
    buf: Presized<Vec<UndoRecord>>,
    /// Index of the oldest live record.
    head: usize,
    /// Number of live records (≤ `UNDO_DEPTH`).
    len: usize,
}

impl UndoRing {
    fn new() -> Self {
        UndoRing {
            buf: Presized::vec(UNDO_DEPTH),
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Appends a record, overwriting the oldest once full.
    #[inline]
    fn push(&mut self, rec: UndoRecord) {
        const MASK: usize = UNDO_DEPTH - 1;
        if self.len == UNDO_DEPTH {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) & MASK;
        } else {
            let slot = (self.head + self.len) & MASK;
            if slot == self.buf.len() {
                self.buf.push(rec);
            } else {
                self.buf[slot] = rec;
            }
            self.len += 1;
        }
    }

    /// Removes and returns the newest record.
    #[inline]
    fn pop(&mut self) -> Option<UndoRecord> {
        const MASK: usize = UNDO_DEPTH - 1;
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.buf[(self.head + self.len) & MASK])
    }
}

impl fmt::Debug for UndoRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The 2048-slot buffer is noise; report the live extent only.
        f.debug_struct("UndoRing")
            .field("head", &self.head)
            .field("len", &self.len)
            .finish()
    }
}

/// Deterministic generator of one thread's dynamic instruction stream.
#[derive(Clone, Debug)]
pub struct Walker {
    /// Shared, immutable program: walkers (and their clones across sweep
    /// cells) reference one `Program` instead of each owning a copy.
    program: Arc<Program>,
    thread: ThreadId,
    pc: Addr,
    counters: Vec<u64>,
    ret_stack: Presized<Vec<Addr>>,
    /// Architectural conditional-outcome history (most recent in bit 0);
    /// the input of `BranchBehavior::Correlated` generators.
    path_hist: u64,
    /// Ring of undo records for [`Walker::rollback`].
    undo: UndoRing,
}

impl Walker {
    /// Creates a walker positioned at the program's entry point.
    ///
    /// Accepts either a bare [`Program`] (wrapped into an `Arc`) or an
    /// already-shared `Arc<Program>`; passing the latter lets every thread
    /// of a workload — and every sweep cell simulating it — share one
    /// program allocation.
    pub fn new(program: impl Into<Arc<Program>>, thread: ThreadId) -> Self {
        let program = program.into();
        let n = program.len();
        let pc = program.entry();
        Walker {
            program,
            thread,
            pc,
            counters: vec![0; n],
            // Pre-sized to the hard depth bound: a call can never grow the
            // stack mid-simulation (the steady-state loop is allocation-free).
            ret_stack: Presized::vec(MAX_CALL_DEPTH),
            path_hist: 0,
            undo: UndoRing::new(),
        }
    }

    /// The program being walked.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// PC of the next correct-path instruction.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Produces the next correct-path dynamic instruction and advances.
    ///
    /// # Panics
    ///
    /// Panics if the walker's PC left the program or the call stack
    /// over/underflows — both indicate a malformed program, which the
    /// builder's construction rules out.
    pub fn next_inst(&mut self) -> DynInst {
        let id = self.id_at_pc();
        self.step(id)
    }

    /// Produces up to `min(max, out.len())` correct-path instructions into
    /// `out` in one call, returning the number written.
    ///
    /// Decoding stops early after any instruction whose `next_pc` is not
    /// the sequential successor (a taken branch or other control transfer),
    /// so each call yields one *straight-line fetch run*. Every instruction
    /// goes through the same decode step as [`Walker::next_inst`], so the
    /// result — the instructions, every architectural side effect
    /// (counters, call stack, path history, undo log) and the final
    /// [`Walker::pc`] — is exactly what the same number of `next_inst`
    /// calls would produce, and [`Walker::rollback`] works across
    /// bulk-produced instructions unchanged. Proven by
    /// `next_block_equals_repeated_next_inst`.
    ///
    /// Within a run the static ids are consecutive, so only the first
    /// instruction is looked up by address.
    ///
    /// # Panics
    ///
    /// As [`Walker::next_inst`], if the PC left the program or the call
    /// stack over/underflows.
    pub fn next_block(&mut self, out: &mut [DynInst], max: usize) -> usize {
        let cap = max.min(out.len());
        if cap == 0 {
            return 0;
        }
        let first = self.id_at_pc();
        for (k, slot) in out[..cap].iter_mut().enumerate() {
            #[expect(clippy::cast_possible_truncation, reason = "k < the fetch width")]
            let di = self.step(first + k as u32);
            *slot = di;
            if di.next_pc != di.pc.add_insts(1) {
                return k + 1;
            }
        }
        cap
    }

    /// Static id of the instruction at [`Walker::pc`].
    fn id_at_pc(&self) -> StaticInstId {
        self.program
            .inst_at(self.pc)
            .unwrap_or_else(|| panic!("correct-path pc {} outside program", self.pc))
            .id
    }

    /// The one correct-path decode step: runs static instruction `id`,
    /// which stands at [`Walker::pc`]. Bumps its occurrence counter,
    /// resolves its branch or memory address, logs the undo record,
    /// advances the PC and builds the [`DynInst`].
    #[inline(always)]
    fn step(&mut self, id: StaticInstId) -> DynInst {
        let inst = self.program.inst(id);
        debug_assert_eq!(inst.addr, self.pc, "decode step off the walker's pc");
        let n = self.counters[id as usize];
        self.counters[id as usize] = n + 1;

        let mut undo = UndoRecord {
            pc_before: inst.addr,
            static_id: id,
            path_hist_before: self.path_hist,
            stack_op: StackOp::None,
        };
        let fall = inst.fall_through();
        let mut taken = false;
        let mut mem = None;
        let next_pc = match inst.class {
            InstClass::Branch(BranchKind::Cond) => {
                let behavior = match self.program.behavior(id) {
                    Behavior::Branch(b) => b,
                    other => panic!("cond branch {} with behavior {other:?}", inst.addr),
                };
                taken = behavior.taken(n, self.path_hist);
                self.path_hist = (self.path_hist << 1) | taken as u64;
                if taken {
                    inst.target.expect("cond branch without target")
                } else {
                    fall
                }
            }
            InstClass::Branch(BranchKind::Jump) => {
                taken = true;
                inst.target.expect("jump without target")
            }
            InstClass::Branch(BranchKind::Call) => {
                taken = true;
                assert!(
                    self.ret_stack.len() < MAX_CALL_DEPTH,
                    "call depth exceeded at {}",
                    inst.addr
                );
                self.ret_stack.push(fall);
                undo.stack_op = StackOp::Pushed;
                inst.target.expect("call without target")
            }
            InstClass::Branch(BranchKind::Return) => {
                taken = true;
                let ret = self
                    .ret_stack
                    .pop()
                    .unwrap_or_else(|| panic!("return with empty stack at {}", inst.addr));
                undo.stack_op = StackOp::Popped(ret);
                ret
            }
            InstClass::Branch(BranchKind::Indirect) => {
                taken = true;
                match self.program.behavior(id) {
                    Behavior::Indirect(ib) => ib.target(n),
                    other => panic!("indirect branch {} with behavior {other:?}", inst.addr),
                }
            }
            InstClass::Load | InstClass::Store => {
                let m = match self.program.behavior(id) {
                    Behavior::Mem(m) => m,
                    other => panic!("mem inst {} with behavior {other:?}", inst.addr),
                };
                mem = Some(MemAccess {
                    addr: m.address(n),
                    chased: m.is_chase(),
                });
                fall
            }
            _ => fall,
        };

        self.pc = next_pc;
        self.undo.push(undo);
        DynInst {
            thread: self.thread,
            static_id: id,
            pc: inst.addr,
            class: inst.class,
            dest: inst.dest,
            srcs: inst.srcs,
            mem,
            taken,
            next_pc,
            wrong_path: false,
        }
    }

    /// Rolls the walker back by `n` instructions, exactly undoing the last
    /// `n` calls to [`Walker::next_inst`].
    ///
    /// Used by flush-style fetch policies that squash *correct-path*
    /// instructions (e.g. Tullsen & Brown's FLUSH for long-latency loads):
    /// the squashed instructions will be re-fetched, so the oracle must
    /// rewind.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the undo-log depth (2048) or the number of
    /// instructions produced.
    pub fn rollback(&mut self, n: u64) {
        assert!(
            n <= self.undo.len() as u64,
            "rollback of {n} exceeds undo depth {}",
            self.undo.len()
        );
        for _ in 0..n {
            let u = self.undo.pop().expect("checked");
            self.pc = u.pc_before;
            self.path_hist = u.path_hist_before;
            self.counters[u.static_id as usize] -= 1;
            match u.stack_op {
                StackOp::None => {}
                StackOp::Pushed => {
                    let _ = self.ret_stack.pop();
                }
                StackOp::Popped(a) => self.ret_stack.push(a),
            }
        }
    }

    /// Synthesizes a wrong-path dynamic instruction at `pc` without
    /// advancing the walker.
    ///
    /// Wrong-path branches resolve *as predicted* (`spec_taken`,
    /// `spec_target`): they never trigger nested redirects, a standard
    /// trace-driven-simulation simplification — every wrong-path instruction
    /// is squashed when the diverging correct-path branch resolves.
    /// Wrong-path loads and stores still carry effective addresses so that
    /// they occupy memory pipelines and pollute caches realistically.
    pub fn wrong_path(&self, pc: Addr, spec_taken: bool, spec_target: Addr) -> DynInst {
        let pc = self.program.clamp(pc);
        let inst = *self.program.inst_at(pc).expect("clamp returns valid pc");
        let n = self.counters[inst.id as usize];
        let fall = inst.fall_through();

        let mut mem = None;
        let mut taken = false;
        let next_pc = match inst.class {
            InstClass::Branch(kind) => {
                taken = kind.is_unconditional() || spec_taken;
                if taken {
                    let t = if !spec_target.is_null() {
                        spec_target
                    } else if let Some(t) = inst.target {
                        t
                    } else {
                        fall
                    };
                    self.program.clamp(t)
                } else {
                    fall
                }
            }
            InstClass::Load | InstClass::Store => {
                if let Behavior::Mem(m) = self.program.behavior(inst.id) {
                    mem = Some(MemAccess {
                        addr: m.address(n),
                        chased: m.is_chase(),
                    });
                }
                fall
            }
            _ => fall,
        };

        DynInst {
            thread: self.thread,
            static_id: inst.id,
            pc: inst.addr,
            class: inst.class,
            dest: inst.dest,
            srcs: inst.srcs,
            mem,
            taken,
            next_pc,
            wrong_path: true,
        }
    }

    /// Runs the walker forward `n` instructions, returning summary dynamic
    /// statistics. Useful for workload calibration and tests.
    pub fn measure(&mut self, n: u64) -> DynStats {
        let mut s = DynStats::default();
        for _ in 0..n {
            let d = self.next_inst();
            s.insts += 1;
            match d.class {
                InstClass::Load => s.loads += 1,
                InstClass::Store => s.stores += 1,
                InstClass::FpAlu => s.fp += 1,
                InstClass::Branch(k) => {
                    s.branches += 1;
                    if d.taken {
                        s.taken += 1;
                    }
                    if k.is_conditional() {
                        s.cond_branches += 1;
                        if d.taken {
                            s.cond_taken += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        s
    }
}

/// Dynamic-stream summary statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynStats {
    /// Dynamic instructions measured.
    pub insts: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic floating-point instructions.
    pub fp: u64,
    /// Dynamic branches of any kind.
    pub branches: u64,
    /// Dynamic taken branches of any kind.
    pub taken: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic taken conditional branches.
    pub cond_taken: u64,
}

impl DynStats {
    /// Average dynamic basic-block size (instructions per branch) — the
    /// Table 1 metric.
    pub fn avg_bb_size(&self) -> f64 {
        if self.branches == 0 {
            return self.insts as f64;
        }
        self.insts as f64 / self.branches as f64
    }

    /// Average stream length (instructions per *taken* branch) — what bounds
    /// the stream front-end's fetch blocks.
    pub fn avg_stream_len(&self) -> f64 {
        if self.taken == 0 {
            return self.insts as f64;
        }
        self.insts as f64 / self.taken as f64
    }

    /// Fraction of branches that are taken.
    pub fn taken_rate(&self) -> f64 {
        if self.branches == 0 {
            return 0.0;
        }
        self.taken as f64 / self.branches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::spec::BenchmarkProfile;

    fn walker(name: &str, seed: u64) -> Walker {
        let prog = ProgramBuilder::new(BenchmarkProfile::by_name(name).unwrap())
            .seed(seed)
            .build();
        Walker::new(prog, 0)
    }

    #[test]
    fn walker_is_deterministic() {
        let mut a = walker("gzip", 1);
        let mut b = walker("gzip", 1);
        for _ in 0..50_000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn walker_runs_long_without_stack_blowup() {
        let mut w = walker("vortex", 2);
        for _ in 0..300_000 {
            let _ = w.next_inst();
            assert!(w.ret_stack.len() < 100);
        }
    }

    #[test]
    fn next_pc_chains_form_a_path() {
        let mut w = walker("gcc", 3);
        let mut prev_next = w.pc();
        for _ in 0..20_000 {
            let d = w.next_inst();
            assert_eq!(d.pc, prev_next, "stream must be contiguous");
            prev_next = d.next_pc;
        }
    }

    #[test]
    fn dynamic_bb_size_tracks_table1() {
        for (name, expect) in [("gzip", 11.02), ("mcf", 3.92), ("twolf", 8.00)] {
            let mut w = walker(name, 4);
            // Warm up past the driver prologue, then measure.
            let _ = w.measure(20_000);
            let s = w.measure(300_000);
            let bb = s.avg_bb_size();
            assert!(
                (bb - expect).abs() / expect < 0.35,
                "{name}: dynamic bb {bb:.2} vs Table 1 {expect:.2}"
            );
        }
    }

    #[test]
    fn streams_are_longer_than_basic_blocks() {
        // Average across seeds: a single seed can land on a taken-heavy
        // hot loop, but on average streams span several basic blocks.
        let mut ratio_sum = 0.0;
        for seed in [5u64, 6, 7] {
            let mut w = walker("gzip", seed);
            let s = w.measure(200_000);
            ratio_sum += s.avg_stream_len() / s.avg_bb_size();
            assert!(s.taken_rate() > 0.3 && s.taken_rate() < 0.95);
        }
        assert!(
            ratio_sum / 3.0 > 1.2,
            "mean stream/bb ratio {:.2}",
            ratio_sum / 3.0
        );
    }

    /// Placeholder for pre-sizing `next_block` scratch buffers in tests.
    fn dummy_inst() -> DynInst {
        DynInst {
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
        }
    }

    #[test]
    fn next_block_equals_repeated_next_inst() {
        // Across every benchmark profile: a bulk walker and a single-step
        // walker over the same shared program produce identical instruction
        // streams and identical architectural state after every block —
        // including across mid-block rollbacks on both sides.
        for (pi, profile) in BenchmarkProfile::all().iter().enumerate() {
            let prog = std::sync::Arc::new(
                ProgramBuilder::new(profile.clone())
                    .seed(0x600d ^ pi as u64)
                    .build(),
            );
            let mut bulk = Walker::new(prog.clone(), 0);
            let mut single = Walker::new(prog, 0);
            let mut rng = crate::Srng::new(0xb10c ^ pi as u64);
            let mut buf = vec![dummy_inst(); 16];
            for round in 0..3_000u64 {
                let max = 1 + rng.range_usize(0, 16);
                let k = bulk.next_block(&mut buf, max);
                assert!(
                    k >= 1 && k <= max,
                    "{}: produced {k} of {max}",
                    profile.name
                );
                for slot in buf.iter().take(k) {
                    assert_eq!(*slot, single.next_inst(), "{} round {round}", profile.name);
                }
                // The stop contract: everything before the last produced
                // instruction is sequential; a short block ends at a
                // control transfer.
                for slot in buf.iter().take(k - 1) {
                    assert_eq!(slot.next_pc, slot.pc.add_insts(1), "{}", profile.name);
                }
                if k < max.min(buf.len()) {
                    assert_ne!(
                        buf[k - 1].next_pc,
                        buf[k - 1].pc.add_insts(1),
                        "{}: short block must end at a control transfer",
                        profile.name
                    );
                }
                assert_eq!(bulk.pc(), single.pc(), "{} round {round}", profile.name);
                assert_eq!(
                    bulk.clone().next_inst(),
                    single.clone().next_inst(),
                    "{} round {round}: next instruction",
                    profile.name
                );
                assert_eq!(
                    bulk.ret_stack.len(),
                    single.ret_stack.len(),
                    "{}",
                    profile.name
                );
                // Mid-block rollback: rewind both walkers into the block
                // just produced and replay.
                if rng.chance(0.2) && k > 1 {
                    let back = 1 + rng.range(0, k as u64 - 1);
                    bulk.rollback(back);
                    single.rollback(back);
                    assert_eq!(bulk.pc(), single.pc(), "{} rollback {back}", profile.name);
                    for _ in 0..back {
                        let j = bulk.next_block(&mut buf, 1);
                        assert_eq!(j, 1);
                        assert_eq!(buf[0], single.next_inst(), "{} replay", profile.name);
                    }
                }
            }
        }
    }

    #[test]
    fn next_block_respects_buffer_and_max_caps() {
        let mut w = walker("gzip", 42);
        let mut buf = vec![dummy_inst(); 4];
        // Slice shorter than max: the slice wins.
        let k = w.next_block(&mut buf, 100);
        assert!(k <= 4);
        // max shorter than slice: max wins.
        let k = w.next_block(&mut buf, 2);
        assert!(k <= 2);
        // A zero-length request produces nothing and moves nothing.
        let pc = w.pc();
        assert_eq!(w.next_block(&mut buf, 0), 0);
        assert_eq!(w.pc(), pc);
    }

    #[test]
    fn rollback_exactly_undoes_next_inst() {
        let mut w = walker("vortex", 11);
        for _ in 0..5_000 {
            let _ = w.next_inst();
        }
        // Snapshot the next 300 instructions, roll back, re-produce.
        let pc = w.pc();
        let depth = w.ret_stack.len();
        let first: Vec<_> = (0..300).map(|_| w.next_inst()).collect();
        w.rollback(300);
        assert_eq!(w.pc(), pc);
        assert_eq!(w.ret_stack.len(), depth);
        let second: Vec<_> = (0..300).map(|_| w.next_inst()).collect();
        assert_eq!(first, second, "rollback must be exact");
    }

    #[test]
    fn partial_rollback_replays_the_tail() {
        let mut w = walker("gcc", 12);
        let all: Vec<_> = (0..100).map(|_| w.next_inst()).collect();
        w.rollback(40);
        let tail: Vec<_> = (0..40).map(|_| w.next_inst()).collect();
        assert_eq!(&all[60..], &tail[..]);
    }

    #[test]
    #[should_panic(expected = "rollback")]
    fn rollback_beyond_log_panics() {
        let mut w = walker("gzip", 13);
        let _ = w.next_inst();
        w.rollback(2);
    }

    #[test]
    fn wrong_path_does_not_advance_state() {
        let mut w = walker("parser", 6);
        for _ in 0..1000 {
            let _ = w.next_inst();
        }
        let pc_before = w.pc();
        let mut untouched = w.clone();
        let wp = w.wrong_path(pc_before, false, Addr::NULL);
        assert!(wp.wrong_path);
        assert_eq!(w.pc(), pc_before);
        // Correct path resumes untouched: the same stream as a copy taken
        // before the wrong-path instruction.
        let d = w.next_inst();
        assert_eq!(d.pc, pc_before);
        assert!(!d.wrong_path);
        assert_eq!(d, untouched.next_inst());
        for _ in 0..100 {
            assert_eq!(w.next_inst(), untouched.next_inst());
        }
    }

    #[test]
    fn wrong_path_clamps_garbage_pcs() {
        let w = walker("eon", 7);
        let wp = w.wrong_path(Addr::new(0xdead_beef_0001), true, Addr::new(0x3));
        assert!(wp.wrong_path);
        assert!(w.program().contains(wp.pc));
        assert!(w.program().contains(wp.next_pc) || !wp.taken);
    }

    #[test]
    fn wrong_path_branches_follow_speculation() {
        let mut w = walker("gzip", 8);
        // Find a conditional branch on the correct path.
        let mut branch_pc = None;
        for _ in 0..10_000 {
            let d = w.next_inst();
            if d.is_cond_branch() {
                branch_pc = Some(d.pc);
                break;
            }
        }
        let pc = branch_pc.expect("no branch found");
        let tgt = w.program().inst_at(pc).unwrap().target.unwrap();
        let wp_taken = w.wrong_path(pc, true, tgt);
        assert!(wp_taken.taken);
        assert_eq!(wp_taken.next_pc, tgt);
        let wp_nt = w.wrong_path(pc, false, Addr::NULL);
        assert!(!wp_nt.taken);
        assert_eq!(wp_nt.next_pc, pc.add_insts(1));
    }

    #[test]
    fn mem_instructions_get_addresses_in_working_set() {
        let mut w = walker("mcf", 9);
        let ws = BenchmarkProfile::mcf().working_set;
        let mut seen_mem = 0;
        for _ in 0..50_000 {
            let d = w.next_inst();
            if let Some(m) = d.mem {
                seen_mem += 1;
                // All data lives in [data_base, data_base + ws + small region).
                let data_base = w.program().base() + 0x1000_0000;
                assert!(m.addr >= data_base, "addr {} below data base", m.addr);
                assert!(m.addr.raw() < data_base.raw() + ws + (1 << 14));
            }
        }
        assert!(seen_mem > 10_000, "only {seen_mem} memory instructions");
    }
}
