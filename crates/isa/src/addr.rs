//! Byte addresses and cache-geometry arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of one instruction in bytes (fixed-width RISC encoding, as on Alpha).
pub const INST_BYTES: u64 = 4;

/// A byte address in the simulated flat address space.
///
/// Used both for instruction addresses (PCs) and data addresses. The newtype
/// prevents accidental mixing of addresses with other integer quantities
/// (instruction counts, cycle counts, …).
///
/// # Example
///
/// ```
/// use smt_isa::Addr;
///
/// let a = Addr::new(0x10_0040);
/// assert_eq!(a.line(64), Addr::new(0x10_0040));
/// assert_eq!((a + 4).line(64), Addr::new(0x10_0040));
/// assert_eq!(a.bank(64, 8), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u64);

impl Addr {
    /// The null address. Used as "no target" placeholder in predictors.
    pub const NULL: Addr = Addr(0);

    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null address.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Address of the cache line containing `self`, for lines of
    /// `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `line_bytes` is not a power of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> Addr {
        debug_assert!(line_bytes.is_power_of_two());
        Addr(self.0 & !(line_bytes - 1))
    }

    /// Byte offset of `self` within its cache line.
    #[inline]
    pub(crate) fn line_offset(self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.0 & (line_bytes - 1)
    }

    /// Number of instruction slots from `self` (inclusive) to the end of its
    /// cache line.
    ///
    /// This bounds how many sequential instructions a single-line I-cache
    /// access can deliver, which is the constraint that limits classical
    /// (BTB-style) fetch blocks.
    #[inline]
    pub fn insts_to_line_end(self, line_bytes: u64) -> u64 {
        (line_bytes - self.line_offset(line_bytes)) / INST_BYTES
    }

    /// Interleaved bank index of the line containing `self`.
    ///
    /// Consecutive lines map to consecutive banks, the standard interleaving
    /// that the paper's multi-banked I-cache uses to reduce conflicts between
    /// the two simultaneous accesses of a 2.X fetch unit.
    #[inline]
    pub fn bank(self, line_bytes: u64, num_banks: u64) -> u64 {
        debug_assert!(num_banks.is_power_of_two());
        (self.0 / line_bytes) & (num_banks - 1)
    }

    /// Address advanced by `n` instruction slots.
    #[inline]
    pub fn add_insts(self, n: u64) -> Addr {
        Addr(self.0 + n * INST_BYTES)
    }

    /// Number of instruction slots between `self` and a later address.
    ///
    /// Returns `None` if `later` is before `self` or not instruction-aligned
    /// relative to `self`.
    #[inline]
    pub fn insts_until(self, later: Addr) -> Option<u64> {
        let delta = later.0.checked_sub(self.0)?;
        if delta % INST_BYTES != 0 {
            return None;
        }
        Some(delta / INST_BYTES)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl AddAssign<u64> for Addr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_masks_low_bits() {
        assert_eq!(Addr::new(0x1234).line(64), Addr::new(0x1200));
        assert_eq!(Addr::new(0x1200).line(64), Addr::new(0x1200));
        assert_eq!(Addr::new(0x123f).line(64), Addr::new(0x1200));
    }

    #[test]
    fn line_offset_masks_high_bits() {
        assert_eq!(Addr::new(0x1210).line_offset(64), 0x10);
    }

    #[test]
    fn insts_to_line_end_counts_inclusive_slots() {
        // 64-byte line holds 16 instructions.
        assert_eq!(Addr::new(0x1200).insts_to_line_end(64), 16);
        assert_eq!(Addr::new(0x1204).insts_to_line_end(64), 15);
        assert_eq!(Addr::new(0x123c).insts_to_line_end(64), 1);
    }

    #[test]
    fn banks_interleave_by_line() {
        let line = 64;
        assert_eq!(Addr::new(0).bank(line, 8), 0);
        assert_eq!(Addr::new(64).bank(line, 8), 1);
        assert_eq!(Addr::new(64 * 8).bank(line, 8), 0);
        assert_eq!(Addr::new(64 * 9 + 5).bank(line, 8), 1);
    }

    #[test]
    fn add_insts_advances_by_slots() {
        assert_eq!(Addr::new(0x100).add_insts(3), Addr::new(0x10c));
    }

    #[test]
    fn insts_until_forward_aligned() {
        let a = Addr::new(0x100);
        assert_eq!(a.insts_until(Addr::new(0x110)), Some(4));
        assert_eq!(a.insts_until(a), Some(0));
        assert_eq!(a.insts_until(Addr::new(0xfc)), None);
        assert_eq!(a.insts_until(Addr::new(0x102)), None);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x2a).to_string(), "0x2a");
        assert_eq!(format!("{:x}", Addr::new(0x2a)), "2a");
        assert_eq!(format!("{:X}", Addr::new(0x2a)), "2A");
    }

    #[test]
    fn conversions_round_trip() {
        let a: Addr = 0x42u64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 0x42);
    }
}
