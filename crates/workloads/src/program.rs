//! The static program: a flat instruction table with per-instruction
//! behaviour generators.
//!
//! This plays the role of SMTSIM's "separate basic block dictionary in which
//! information of all static instructions is contained" (paper §4): *any*
//! address inside the program can be fetched, which is what permits execution
//! along wrong paths.

use std::sync::Arc;

use smt_isa::{Addr, StaticInst, StaticInstId, INST_BYTES};

use crate::behavior::Behavior;

/// An immutable synthetic program.
///
/// Instructions occupy a contiguous address range starting at
/// [`Program::base`]; instruction `i` lives at `base + 4*i`.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    name: String,
    base: Addr,
    entry: Addr,
    insts: Arc<Vec<StaticInst>>,
    behaviors: Arc<Vec<Behavior>>,
    /// Block-extent table: `branch_dist[i]` is the distance (in
    /// instructions) from static index `i` to the first branch at or after
    /// it, or [`NO_BRANCH`] if none exists before the end of the program.
    /// Precomputed once so the fetch hot path resolves block boundaries in
    /// O(1) instead of scanning the instruction table.
    branch_dist: Arc<Vec<u32>>,
    /// The profile's data working set. Nothing reads it; it stays for its
    /// size, like `ThreadState`'s pad: perfbench's `mem_fig7` builds a
    /// program per cell, and 8 bytes smaller every build extends and trims
    /// glibc's heap (`setup_s` about 50% higher; the CHANGES.md `FOUND:`
    /// line on `ThreadState`).
    _data_footprint: u64,
}

/// Sentinel in the block-extent table: no branch between here and the end.
const NO_BRANCH: u32 = u32::MAX;

impl Program {
    /// Assembles a program from parallel instruction/behaviour tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different lengths, the table is empty, if
    /// instruction addresses are not contiguous from `base`, or if `entry`
    /// is outside the program.
    pub(crate) fn new(
        name: impl Into<String>,
        base: Addr,
        entry: Addr,
        insts: Vec<StaticInst>,
        behaviors: Vec<Behavior>,
        data_footprint: u64,
    ) -> Self {
        assert_eq!(insts.len(), behaviors.len(), "table length mismatch");
        assert!(!insts.is_empty(), "empty program");
        for (i, inst) in insts.iter().enumerate() {
            assert_eq!(
                inst.addr,
                base.add_insts(i as u64),
                "non-contiguous instruction table at index {i}"
            );
            assert_eq!(inst.id as usize, i, "id/index mismatch at {i}");
        }
        // Block-extent table, built by one reverse sweep: each slot holds
        // the distance to the next branch at or after it.
        let mut branch_dist = vec![NO_BRANCH; insts.len()];
        let mut next: u32 = NO_BRANCH;
        for (i, inst) in insts.iter().enumerate().rev() {
            if inst.class.is_branch() {
                next = 0;
            } else if next != NO_BRANCH {
                next += 1;
            }
            branch_dist[i] = next;
        }
        let prog = Program {
            name: name.into(),
            base,
            entry,
            insts: Arc::new(insts),
            behaviors: Arc::new(behaviors),
            branch_dist: Arc::new(branch_dist),
            _data_footprint: data_footprint,
        };
        assert!(prog.contains(entry), "entry point outside program");
        prog
    }

    /// Program name (benchmark clone name, e.g. `"gzip"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lowest instruction address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Entry point (first PC executed).
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of static instructions.
    pub(crate) fn len(&self) -> usize {
        self.insts.len()
    }

    /// One past the highest instruction address.
    pub fn end(&self) -> Addr {
        self.base.add_insts(self.insts.len() as u64)
    }

    /// Whether `pc` is an instruction-aligned address inside the program.
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.base && pc < self.end() && (pc - self.base).is_multiple_of(INST_BYTES)
    }

    /// The static instruction at `pc`, if `pc` is inside the program.
    pub fn inst_at(&self, pc: Addr) -> Option<&StaticInst> {
        if !self.contains(pc) {
            return None;
        }
        let idx = ((pc - self.base) / INST_BYTES) as usize;
        Some(&self.insts[idx])
    }

    /// The static instruction with table index `id`.
    pub(crate) fn inst(&self, id: StaticInstId) -> &StaticInst {
        &self.insts[id as usize]
    }

    /// The behaviour generator for static instruction `id`.
    pub(crate) fn behavior(&self, id: StaticInstId) -> &Behavior {
        &self.behaviors[id as usize]
    }

    /// Maps an arbitrary (possibly garbage, e.g. wrong-path) address onto a
    /// valid instruction address inside the program.
    ///
    /// Used when a wrong-path fetch follows a stale predicted target that no
    /// longer lands in the program; real hardware would fetch whatever bytes
    /// are there, and for timing purposes any instruction serves.
    pub fn clamp(&self, pc: Addr) -> Addr {
        if self.contains(pc) {
            return pc;
        }
        let span = self.insts.len() as u64;
        let slot = (pc.raw() / INST_BYTES) % span;
        self.base.add_insts(slot)
    }

    /// Finds the first branch at or after `pc`, scanning at most `max_insts`
    /// instructions, without leaving the program.
    ///
    /// Returns `(distance_in_insts_from_pc, &inst)`. This is the static
    /// information a classical fetch unit obtains from predecode bits /
    /// BTB probes: where the current basic block ends.
    pub fn first_branch_at_or_after(&self, pc: Addr, max_insts: u64) -> Option<(u64, &StaticInst)> {
        let start = self.inst_at(pc)?.id as usize;
        let dist = self.branch_dist[start];
        if dist == NO_BRANCH || u64::from(dist) >= max_insts {
            return None;
        }
        Some((u64::from(dist), &self.insts[start + dist as usize]))
    }

    /// Distance (in instructions) from static index `id` to the first
    /// branch at or after it, or `None` if the rest of the program is
    /// straight-line code. `Some(0)` means `id` itself is a branch.
    ///
    /// O(1): read from the precomputed block-extent table. This is what
    /// lets [`crate::Walker::next_block`] decode a whole straight-line run
    /// with one bounds check and no per-instruction class dispatch.
    pub(crate) fn dist_to_branch(&self, id: StaticInstId) -> Option<u32> {
        let dist = self.branch_dist[id as usize];
        (dist != NO_BRANCH).then_some(dist)
    }

    /// Iterates over the static instructions.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &StaticInst> {
        self.insts.iter()
    }

    /// Static statistics useful for calibration checks.
    #[cfg(test)]
    pub(crate) fn static_stats(&self) -> StaticStats {
        use smt_isa::InstClass;
        let mut s = StaticStats::default();
        for inst in self.insts.iter() {
            s.insts += 1;
            match inst.class {
                InstClass::Load => s.loads += 1,
                InstClass::Store => s.stores += 1,
                InstClass::Branch(k) => {
                    s.branches += 1;
                    if k.is_conditional() {
                        s.cond_branches += 1;
                    }
                }
                InstClass::FpAlu => s.fp += 1,
                _ => {}
            }
        }
        s
    }
}

/// Static instruction-mix counts for a program.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct StaticStats {
    /// Total static instructions.
    pub insts: u64,
    /// Static loads.
    pub loads: u64,
    /// Static stores.
    pub stores: u64,
    /// Static branches of any kind.
    pub branches: u64,
    /// Static conditional branches.
    pub cond_branches: u64,
    /// Static floating-point instructions.
    pub fp: u64,
}

#[cfg(test)]
impl StaticStats {
    /// Mean distance between branches ≈ static basic-block size.
    pub(crate) fn avg_bb_size(&self) -> f64 {
        if self.branches == 0 {
            return self.insts as f64;
        }
        self.insts as f64 / self.branches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::{BranchKind, InstClass};

    fn tiny_program() -> Program {
        // 4 instructions: alu, load, cond-branch, alu.
        let base = Addr::new(0x1000);
        let mk = |id: u32, class: InstClass, target: Option<Addr>| StaticInst {
            id,
            addr: base.add_insts(id as u64),
            class,
            dest: None,
            srcs: [None, None],
            target,
        };
        let insts = vec![
            mk(0, InstClass::IntAlu, None),
            mk(1, InstClass::Load, None),
            mk(2, InstClass::Branch(BranchKind::Cond), Some(base)),
            mk(3, InstClass::IntAlu, None),
        ];
        let behaviors = vec![
            Behavior::None,
            Behavior::Mem(crate::behavior::MemBehavior::Stride {
                base: Addr::new(0x10_0000),
                stride: 8,
                period: 16,
            }),
            Behavior::Branch(crate::behavior::BranchBehavior::Loop { period: 4 }),
            Behavior::None,
        ];
        Program::new("tiny", base, base, insts, behaviors, 128)
    }

    #[test]
    fn lookup_by_address() {
        let p = tiny_program();
        assert_eq!(p.len(), 4);
        assert!(p.contains(Addr::new(0x1000)));
        assert!(p.contains(Addr::new(0x100c)));
        assert!(!p.contains(Addr::new(0x1010)));
        assert!(!p.contains(Addr::new(0x1002))); // misaligned
        assert_eq!(p.inst_at(Addr::new(0x1004)).unwrap().id, 1);
        assert!(p.inst_at(Addr::new(0xfff0)).is_none());
    }

    #[test]
    fn clamp_maps_garbage_into_program() {
        let p = tiny_program();
        for raw in [0u64, 0x1002, 0x5000, u64::MAX - 3] {
            let c = p.clamp(Addr::new(raw));
            assert!(p.contains(c), "clamp({raw:#x}) = {c} outside program");
        }
        // In-range addresses are unchanged.
        assert_eq!(p.clamp(Addr::new(0x1008)), Addr::new(0x1008));
    }

    #[test]
    fn first_branch_scan() {
        let p = tiny_program();
        let (dist, inst) = p.first_branch_at_or_after(Addr::new(0x1000), 16).unwrap();
        assert_eq!(dist, 2);
        assert_eq!(inst.id, 2);
        // Limited scan does not reach the branch.
        assert!(p.first_branch_at_or_after(Addr::new(0x1000), 2).is_none());
        // Scan starting at the branch itself.
        let (dist, _) = p.first_branch_at_or_after(Addr::new(0x1008), 1).unwrap();
        assert_eq!(dist, 0);
        // Scan past the last branch runs off the end.
        assert!(p.first_branch_at_or_after(Addr::new(0x100c), 16).is_none());
    }

    #[test]
    fn extent_table_matches_linear_scan() {
        // The O(1) lookup must agree with the definitional linear scan for
        // every (start, max) pair on a real generated program.
        let p = crate::ProgramBuilder::new(crate::BenchmarkProfile::by_name("gzip").unwrap())
            .seed(7)
            .build();
        let linear = |pc: Addr, max: u64| -> Option<(u64, u32)> {
            let start = p.inst_at(pc)?.id as u64;
            let limit = (start + max).min(p.len() as u64);
            (start..limit).find_map(|idx| {
                let inst = p.inst(u32::try_from(idx).unwrap());
                inst.class.is_branch().then_some((idx - start, inst.id))
            })
        };
        for idx in (0..p.len() as u64).step_by(7) {
            let pc = p.base().add_insts(idx);
            for max in [0u64, 1, 2, 8, 16, 1_000_000] {
                let got = p
                    .first_branch_at_or_after(pc, max)
                    .map(|(d, inst)| (d, inst.id));
                assert_eq!(got, linear(pc, max), "start {idx}, max {max}");
            }
        }
        // dist_to_branch agrees with the (max-unbounded) lookup.
        for idx in (0..u32::try_from(p.len()).unwrap()).step_by(13) {
            let pc = p.base().add_insts(u64::from(idx));
            let via_scan = p.first_branch_at_or_after(pc, u64::MAX).map(|(d, _)| d);
            assert_eq!(p.dist_to_branch(idx).map(u64::from), via_scan, "id {idx}");
        }
    }

    #[test]
    fn static_stats_and_bb_size() {
        let p = tiny_program();
        let s = p.static_stats();
        assert_eq!(s.insts, 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.cond_branches, 1);
        assert!((s.avg_bb_size() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn construction_validates_addresses() {
        let base = Addr::new(0x1000);
        let insts = vec![StaticInst {
            id: 0,
            addr: Addr::new(0x2000),
            class: InstClass::IntAlu,
            dest: None,
            srcs: [None, None],
            target: None,
        }];
        let _ = Program::new("bad", base, base, insts, vec![Behavior::None], 0);
    }
}
