//! Architectural register names.

use std::fmt;

/// Number of architectural integer registers (Alpha-like).
pub const NUM_ARCH_INT: u16 = 32;

/// Number of architectural floating-point registers (Alpha-like).
pub const NUM_ARCH_FP: u16 = 32;

/// The register file class an architectural register belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// Integer register file.
    Int,
    /// Floating-point register file.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// An architectural register: a class plus an index within that class.
///
/// Renaming in the pipeline maps these onto physical registers; the workload
/// generator assigns them when it synthesizes static programs, encoding the
/// data-dependence structure of the benchmark clone.
///
/// # Example
///
/// ```
/// use smt_isa::{ArchReg, RegClass};
///
/// let r = ArchReg::int(5);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.flat_index(), 5);
/// assert_eq!(r.to_string(), "r5");
/// assert_eq!(ArchReg::fp(3).to_string(), "f3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg {
    class: RegClass,
    index: u16,
}

impl ArchReg {
    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_INT`.
    pub fn int(index: u16) -> Self {
        assert!(index < NUM_ARCH_INT, "integer register index out of range");
        ArchReg {
            class: RegClass::Int,
            index,
        }
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_FP`.
    pub fn fp(index: u16) -> Self {
        assert!(index < NUM_ARCH_FP, "fp register index out of range");
        ArchReg {
            class: RegClass::Fp,
            index,
        }
    }

    /// The register-file class.
    pub fn class(self) -> RegClass {
        self.class
    }

    /// Dense index across both register files (int first, then fp), suitable
    /// for rename-map arrays.
    pub fn flat_index(self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_ARCH_INT as usize + self.index as usize,
        }
    }

    /// Total number of architectural registers across both classes.
    pub const fn flat_count() -> usize {
        (NUM_ARCH_INT + NUM_ARCH_FP) as usize
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Fp => write!(f, "f{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_is_dense_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..NUM_ARCH_INT {
            assert!(seen.insert(ArchReg::int(i).flat_index()));
        }
        for i in 0..NUM_ARCH_FP {
            assert!(seen.insert(ArchReg::fp(i).flat_index()));
        }
        assert_eq!(seen.len(), ArchReg::flat_count());
        assert!(seen.iter().all(|&i| i < ArchReg::flat_count()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_index_validated() {
        let _ = ArchReg::int(NUM_ARCH_INT);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_index_validated() {
        let _ = ArchReg::fp(NUM_ARCH_FP);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ArchReg::int(0).to_string(), "r0");
        assert_eq!(ArchReg::fp(31).to_string(), "f31");
        assert_eq!(RegClass::Int.to_string(), "int");
        assert_eq!(RegClass::Fp.to_string(), "fp");
    }
}
