//! Fetch target buffer (Reinman, Calder & Austin, 2001).
//!
//! An FTB is a BTB indexed by **fetch-block start address** instead of
//! branch address. An entry describes the *fetch block* beginning there: its
//! length and the branch that terminates it. Crucially, only branches that
//! have been **observed taken** ever terminate a block — a conditional
//! branch that has so far always fallen through is invisible to the FTB and
//! is *embedded* inside a longer block ("ignoring some non-taken branches",
//! paper §3.3). If an embedded branch is finally taken, the fetch was a
//! misfetch; retraining splits the block.

use smt_isa::{Addr, BranchKind};

use crate::assoc::SetAssoc;
use crate::counters::TwoBit;

/// Description of a fetch block's terminating branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtbEnd {
    /// Branch flavour (drives direction prediction and RAS usage).
    pub kind: BranchKind,
    /// Predicted taken-target.
    pub target: Addr,
}

/// An FTB entry: the fetch block starting at the entry's (tagged) address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FtbEntry {
    /// Block length in instructions, including the terminating branch
    /// (1 ..= max_block).
    len: u32,
    /// Terminating branch, or `None` for a length-capped sequential chunk.
    end: Option<FtbEnd>,
    /// Hysteresis: strengthened when the ending branch is taken again,
    /// weakened when it falls through; a dead entry is invalidated so the
    /// block can re-form at its longer extent.
    strength: TwoBit,
}

/// The prediction an FTB hit yields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtbPrediction {
    /// Block length in instructions.
    pub len: u32,
    /// Terminating branch (`None`: sequential chunk, fall through).
    pub end: Option<FtbEnd>,
}

/// What actually terminated a fetch block, for training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedEnd {
    /// PC of the taken branch that ended the block.
    pub branch_pc: Addr,
    /// Its flavour.
    pub kind: BranchKind,
    /// Its actual target.
    pub target: Addr,
}

/// Fetch target buffer.
///
/// The paper's configuration is 2K entries, 4-way (Table 3), which
/// [`Ftb::hpca2004`] reproduces with a 16-instruction maximum block length.
#[derive(Clone, Debug)]
pub struct Ftb {
    table: SetAssoc<FtbEntry>,
    set_bits: u32,
    max_block: u32,
    misfetch_trains: u64,
}

impl Ftb {
    /// Table 3's FTB entries (2K).
    pub const HPCA2004_ENTRIES: usize = 2048;
    /// Table 3's FTB associativity (4).
    pub const HPCA2004_WAYS: usize = 4;
    /// Table 3's fetch-block length cap (16 instructions).
    pub const HPCA2004_MAX_BLOCK: u32 = 16;

    /// Creates an FTB with `entries`×`ways` geometry and a maximum block
    /// length of `max_block` instructions.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SetAssoc::new`], or if
    /// `max_block` is zero.
    pub fn new(entries: usize, ways: usize, max_block: u32) -> Self {
        assert!(max_block > 0, "maximum fetch-block length must be positive");
        let table = SetAssoc::new(entries, ways);
        let set_bits = table.num_sets().trailing_zeros();
        Ftb {
            table,
            set_bits,
            max_block,
            misfetch_trains: 0,
        }
    }

    /// The paper's 2K-entry, 4-way FTB with blocks capped at `max_block`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `max_block` is zero.
    pub fn hpca2004_with_cap(max_block: u32) -> Self {
        Ftb::new(Ftb::HPCA2004_ENTRIES, Ftb::HPCA2004_WAYS, max_block)
    }

    /// The paper's configuration: 2K entries, 4-way, 16-instruction blocks.
    pub fn hpca2004() -> Self {
        Ftb::hpca2004_with_cap(Ftb::HPCA2004_MAX_BLOCK)
    }

    /// Maximum block length in instructions.
    pub fn max_block(&self) -> u32 {
        self.max_block
    }

    fn set_and_tag(&self, start: Addr) -> (u64, u64) {
        let word = start.raw() >> 2;
        (word & self.table.set_mask(), word >> self.set_bits)
    }

    /// Looks up the fetch block starting at `start`.
    pub fn lookup(&mut self, start: Addr) -> Option<FtbPrediction> {
        let (set, tag) = self.set_and_tag(start);
        self.table.lookup(set, tag).map(|e| FtbPrediction {
            len: e.len,
            end: e.end,
        })
    }

    /// Trains with a completed block: a taken branch at `observed.branch_pc`
    /// ended the block that started at `start`.
    ///
    /// Distances beyond [`Self::max_block`] store a capped sequential chunk;
    /// the block chains through a follow-on lookup at `start + max_block`.
    pub fn record_taken(&mut self, start: Addr, observed: ObservedEnd) {
        let Some(dist) = start.insts_until(observed.branch_pc) else {
            return; // stale/misaligned training from a squashed path
        };
        let (set, tag) = self.set_and_tag(start);
        // Lossless narrowing: anything past max_block stores a capped
        // sequential chunk instead.
        let len = match u32::try_from(dist + 1) {
            Ok(len) if len <= self.max_block => len,
            _ => {
                self.table.insert(
                    set,
                    tag,
                    FtbEntry {
                        len: self.max_block,
                        end: None,
                        strength: TwoBit::WEAK_T,
                    },
                );
                return;
            }
        };
        // If an existing entry already ends at this branch, just strengthen
        // and refresh the target (indirect branches change targets).
        if let Some(e) = self.table.lookup(set, tag) {
            if e.len == len {
                e.end = Some(FtbEnd {
                    kind: observed.kind,
                    target: observed.target,
                });
                e.strength.update(true);
                return;
            }
            if len < e.len {
                self.misfetch_trains += 1; // an embedded branch fired: split
            }
        }
        self.table.insert(
            set,
            tag,
            FtbEntry {
                len,
                end: Some(FtbEnd {
                    kind: observed.kind,
                    target: observed.target,
                }),
                strength: TwoBit::WEAK_T,
            },
        );
    }

    /// Trains with a block whose predicted ending branch resolved
    /// **not taken**: weakens the entry; a dead entry is invalidated so the
    /// block re-forms at its longer extent.
    pub fn record_not_taken(&mut self, start: Addr) {
        let (set, tag) = self.set_and_tag(start);
        let mut kill = false;
        if let Some(e) = self.table.lookup(set, tag) {
            e.strength.update(false);
            kill = e.strength == TwoBit::STRONG_NT;
        }
        if kill {
            self.table.invalidate(set, tag);
        }
    }

    /// `(lookups, hits)` counts.
    pub fn stats(&self) -> (u64, u64) {
        self.table.stats()
    }

    /// Number of trainings triggered by embedded branches firing.
    pub fn misfetch_trains(&self) -> u64 {
        self.misfetch_trains
    }

    /// Total entry count.
    pub fn entries(&self) -> usize {
        self.table.num_sets() * self.table.ways()
    }

    /// Approximate hardware budget in bytes (tag + target + len + state ≈ 13 B).
    pub fn budget_bytes(&self) -> usize {
        self.entries() * 13
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(pc: u64, target: u64) -> ObservedEnd {
        ObservedEnd {
            branch_pc: Addr::new(pc),
            kind: BranchKind::Cond,
            target: Addr::new(target),
        }
    }

    #[test]
    fn miss_then_hit_after_training() {
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(0x1000);
        assert!(ftb.lookup(start).is_none());
        // Taken branch 5 instructions in: block of length 6.
        ftb.record_taken(start, observed(0x1014, 0x2000));
        let p = ftb.lookup(start).unwrap();
        assert_eq!(p.len, 6);
        assert_eq!(p.end.unwrap().target, Addr::new(0x2000));
    }

    #[test]
    fn blocks_embed_not_taken_branches() {
        // A block trained past a (never-taken) branch at 0x1008 ends at the
        // taken branch at 0x101c: the inner branch is embedded.
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(0x1000);
        ftb.record_taken(start, observed(0x101c, 0x4000));
        let p = ftb.lookup(start).unwrap();
        assert_eq!(p.len, 8); // spans both branches
    }

    #[test]
    fn embedded_branch_firing_splits_the_block() {
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(0x1000);
        ftb.record_taken(start, observed(0x101c, 0x4000)); // len 8
                                                           // The embedded branch at 0x1008 is finally taken: misfetch, retrain.
        ftb.record_taken(start, observed(0x1008, 0x3000));
        let p = ftb.lookup(start).unwrap();
        assert_eq!(p.len, 3);
        assert_eq!(p.end.unwrap().target, Addr::new(0x3000));
        assert_eq!(ftb.misfetch_trains(), 1);
    }

    #[test]
    fn long_blocks_are_capped_as_sequential_chunks() {
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(0x1000);
        // Taken branch 40 instructions away: beyond the 16-inst cap.
        ftb.record_taken(start, observed(0x1000 + 40 * 4, 0x9000));
        let p = ftb.lookup(start).unwrap();
        assert_eq!(p.len, 16);
        assert!(p.end.is_none(), "capped chunk has no end branch");
    }

    #[test]
    fn persistent_not_taken_end_invalidates_entry() {
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(0x1000);
        ftb.record_taken(start, observed(0x1010, 0x2000));
        for _ in 0..4 {
            ftb.record_not_taken(start);
        }
        assert!(
            ftb.lookup(start).is_none(),
            "dead entry should be invalidated so the block can re-form longer"
        );
    }

    #[test]
    fn taken_again_strengthens_and_survives_one_not_taken() {
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(0x1000);
        ftb.record_taken(start, observed(0x1010, 0x2000));
        ftb.record_taken(start, observed(0x1010, 0x2000));
        ftb.record_not_taken(start);
        assert!(ftb.lookup(start).is_some());
    }

    #[test]
    fn stale_training_from_unrelated_start_is_ignored() {
        let mut ftb = Ftb::new(64, 4, 16);
        // Branch "before" the recorded start (squashed-path garbage).
        ftb.record_taken(Addr::new(0x2000), observed(0x1000, 0x99));
        assert!(ftb.lookup(Addr::new(0x2000)).is_none());
    }

    #[test]
    fn hpca_configuration() {
        let ftb = Ftb::hpca2004();
        assert_eq!(ftb.entries(), 2048);
        assert_eq!(ftb.max_block(), 16);
    }

    #[test]
    #[should_panic(expected = "block length must be positive")]
    fn zero_block_cap_rejected() {
        let _ = Ftb::hpca2004_with_cap(0);
    }
}
