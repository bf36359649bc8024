//! Static and dynamic instruction models.

use std::fmt;

use crate::{Addr, ArchReg, ThreadId};

/// Index of a static instruction inside its program's instruction table.
///
/// The synthetic static program plays the role of the "separate basic block
/// dictionary" the paper adds to SMTSIM to permit wrong-path execution: any
/// PC can be looked up and fetched, whether or not it is on the correct path.
pub type StaticInstId = u32;

/// Branch flavours, matching what the front-end structures distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BranchKind {
    /// Conditional direct branch (predicted by gshare/gskew/stream).
    Cond,
    /// Unconditional direct jump.
    Jump,
    /// Direct call: pushes the return address on the RAS.
    Call,
    /// Return: target predicted by popping the RAS.
    Return,
    /// Indirect jump (target from BTB/FTB/stream table only).
    Indirect,
}

impl BranchKind {
    /// Whether the branch direction is an actual prediction problem
    /// (conditional) rather than always-taken control flow.
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Cond)
    }

    /// Whether the branch is always taken when executed.
    pub fn is_unconditional(self) -> bool {
        !self.is_conditional()
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Cond => "cond",
            BranchKind::Jump => "jump",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
            BranchKind::Indirect => "ind",
        };
        f.write_str(s)
    }
}

/// Instruction classes with distinct timing behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Multi-cycle integer operation (multiply etc.).
    IntMul,
    /// Floating-point operation.
    FpAlu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Control transfer.
    Branch(BranchKind),
}

impl InstClass {
    /// Whether this instruction is any kind of branch.
    pub fn is_branch(self) -> bool {
        matches!(self, InstClass::Branch(_))
    }

    /// Whether this instruction accesses data memory.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }

    /// The branch kind, if this is a branch.
    pub fn branch_kind(self) -> Option<BranchKind> {
        match self {
            InstClass::Branch(k) => Some(k),
            _ => None,
        }
    }

    /// Default execution latency in cycles (excluding memory-hierarchy time
    /// for loads), matching typical values for the simulated machine.
    pub fn default_latency(self) -> u64 {
        match self {
            InstClass::IntAlu => 1,
            InstClass::IntMul => 3,
            InstClass::FpAlu => 4,
            InstClass::Load => 1,  // address generation; cache time is added
            InstClass::Store => 1, // address generation; writes at commit
            InstClass::Branch(_) => 1,
        }
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstClass::IntAlu => write!(f, "int"),
            InstClass::IntMul => write!(f, "mul"),
            InstClass::FpAlu => write!(f, "fp"),
            InstClass::Load => write!(f, "load"),
            InstClass::Store => write!(f, "store"),
            InstClass::Branch(k) => write!(f, "br.{k}"),
        }
    }
}

/// One instruction of the static program.
///
/// This is a passive data record (public fields by design): the workload
/// generator builds these, and both the front-end (to delimit fetch blocks)
/// and the back-end (for dependences and latencies) read them. It is `Copy`
/// so the walker can hand instances out without heap traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticInst {
    /// Index in the program's instruction table.
    pub id: StaticInstId,
    /// Instruction address.
    pub addr: Addr,
    /// Timing class.
    pub class: InstClass,
    /// Destination register, if the instruction writes one.
    pub dest: Option<ArchReg>,
    /// Up to two source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Statically-known branch target (direct branches and calls).
    ///
    /// `None` for non-branches, returns and indirect jumps.
    pub target: Option<Addr>,
}

impl StaticInst {
    /// Fall-through address (next sequential instruction).
    pub fn fall_through(&self) -> Addr {
        self.addr.add_insts(1)
    }
}

/// A data-memory access performed by a dynamic load or store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective virtual byte address.
    pub addr: Addr,
    /// `true` if the access is part of a pointer-chase chain, meaning its
    /// address depends on the value loaded by the previous link (the
    /// dependence itself is expressed through registers; this flag is kept
    /// for statistics).
    pub chased: bool,
}

/// One dynamic instruction as produced by a program walker and carried
/// through the pipeline.
///
/// Passive data record (public fields by design). Pipeline-private state
/// (rename tags, issue state, timestamps) lives in the pipeline's own
/// wrapper, not here. It is `Copy` — a fixed-size value with no heap
/// payload — so the pipeline moves it between stages allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// Hardware thread that fetched this instruction.
    pub thread: ThreadId,
    /// Static instruction this is an instance of.
    pub static_id: StaticInstId,
    /// Address of the instruction.
    pub pc: Addr,
    /// Timing class.
    pub class: InstClass,
    /// Destination register, if any.
    pub dest: Option<ArchReg>,
    /// Source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// Memory access, for loads and stores on the correct path.
    pub mem: Option<MemAccess>,
    /// For branches: `true` if the branch is actually taken.
    pub taken: bool,
    /// Actual next PC (target if taken, fall-through otherwise). For
    /// non-branches this is the fall-through address.
    pub next_pc: Addr,
    /// `true` if the instruction was fetched down a mispredicted path and
    /// will necessarily be squashed.
    pub wrong_path: bool,
}

impl DynInst {
    /// Whether this dynamic instruction is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.class, InstClass::Branch(BranchKind::Cond))
    }

    /// Whether this dynamic instruction is any branch.
    pub fn is_branch(&self) -> bool {
        self.class.is_branch()
    }
}

impl fmt::Display for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{} {} {}{}",
            self.thread,
            self.pc,
            self.class,
            if self.wrong_path { " (wp)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_branch() -> StaticInst {
        StaticInst {
            id: 7,
            addr: Addr::new(0x100),
            class: InstClass::Branch(BranchKind::Cond),
            dest: None,
            srcs: [Some(ArchReg::int(1)), None],
            target: Some(Addr::new(0x200)),
        }
    }

    #[test]
    fn branch_kind_classification() {
        assert!(BranchKind::Cond.is_conditional());
        for k in [
            BranchKind::Jump,
            BranchKind::Call,
            BranchKind::Return,
            BranchKind::Indirect,
        ] {
            assert!(k.is_unconditional());
            assert!(!k.is_conditional());
        }
    }

    #[test]
    fn class_predicates() {
        assert!(InstClass::Load.is_mem());
        assert!(InstClass::Store.is_mem());
        assert!(!InstClass::IntAlu.is_mem());
        assert!(InstClass::Branch(BranchKind::Jump).is_branch());
        assert_eq!(
            InstClass::Branch(BranchKind::Call).branch_kind(),
            Some(BranchKind::Call)
        );
        assert_eq!(InstClass::FpAlu.branch_kind(), None);
    }

    #[test]
    fn latencies_are_sane() {
        assert_eq!(InstClass::IntAlu.default_latency(), 1);
        assert!(InstClass::IntMul.default_latency() > 1);
        assert!(InstClass::FpAlu.default_latency() > 1);
    }

    #[test]
    fn static_inst_fall_through() {
        let b = static_branch();
        assert_eq!(b.fall_through(), Addr::new(0x104));
    }

    #[test]
    fn dyn_inst_display_marks_wrong_path() {
        let d = DynInst {
            thread: 2,
            static_id: 7,
            pc: Addr::new(0x100),
            class: InstClass::Branch(BranchKind::Cond),
            dest: None,
            srcs: [None, None],
            mem: None,
            taken: true,
            next_pc: Addr::new(0x200),
            wrong_path: true,
        };
        let s = d.to_string();
        assert!(s.contains("t2"));
        assert!(s.contains("(wp)"));
        assert!(d.is_cond_branch());
        assert!(d.is_branch());
    }
}
