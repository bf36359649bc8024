//! Branch target buffer (Lee & Smith, 1984) — the classical fetch unit's
//! target store.

use smt_isa::{Addr, BranchKind};

use crate::assoc::SetAssoc;

/// Payload of a BTB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbEntry {
    /// Predicted target of the branch.
    pub target: Addr,
    /// Branch flavour, as discovered at resolve time (drives RAS usage).
    pub kind: BranchKind,
}

/// A set-associative branch target buffer, indexed and tagged by branch PC.
///
/// Only branches that have been *taken* at least once are allocated — the
/// standard allocation policy: a never-taken branch needs no target, and its
/// absence makes the (correct) fall-through prediction free.
///
/// The paper's configuration is 2K entries, 4-way (Table 3);
/// [`Btb::hpca2004`] reproduces it.
#[derive(Clone, Debug)]
pub struct Btb {
    table: SetAssoc<BtbEntry>,
    set_bits: u32,
}

impl Btb {
    /// Table 3's BTB entries (2K).
    pub const HPCA2004_ENTRIES: usize = 2048;
    /// Table 3's BTB associativity (4).
    pub const HPCA2004_WAYS: usize = 4;

    /// Creates a BTB with `entries` entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SetAssoc::new`].
    pub(crate) fn new(entries: usize, ways: usize) -> Self {
        let table = SetAssoc::new(entries, ways);
        let set_bits = table.num_sets().trailing_zeros();
        Btb { table, set_bits }
    }

    /// The paper's configuration: 2K entries, 4-way associative.
    pub fn hpca2004() -> Self {
        Btb::new(Btb::HPCA2004_ENTRIES, Btb::HPCA2004_WAYS)
    }

    fn set_and_tag(&self, pc: Addr) -> (u64, u64) {
        let word = pc.raw() >> 2;
        (word & self.table.set_mask(), word >> self.set_bits)
    }

    /// Looks up the branch at `pc`.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        let (set, tag) = self.set_and_tag(pc);
        self.table.lookup(set, tag).map(|e| *e)
    }

    /// Looks up without touching replacement state.
    #[cfg(test)]
    fn peek(&self, pc: Addr) -> Option<BtbEntry> {
        let (set, tag) = self.set_and_tag(pc);
        self.table.peek(set, tag).copied()
    }

    /// Allocates/updates the entry for a branch observed taken to `target`.
    pub fn record_taken(&mut self, pc: Addr, target: Addr, kind: BranchKind) {
        let (set, tag) = self.set_and_tag(pc);
        self.table.insert(set, tag, BtbEntry { target, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use smt_workloads::Srng;

    #[test]
    fn miss_then_hit_after_taken() {
        let mut btb = Btb::new(64, 4);
        let pc = Addr::new(0x1000);
        assert!(btb.lookup(pc).is_none());
        btb.record_taken(pc, Addr::new(0x2000), BranchKind::Cond);
        let e = btb.lookup(pc).unwrap();
        assert_eq!(e.target, Addr::new(0x2000));
        assert_eq!(e.kind, BranchKind::Cond);
    }

    #[test]
    fn update_changes_target() {
        let mut btb = Btb::new(64, 4);
        let pc = Addr::new(0x1000);
        btb.record_taken(pc, Addr::new(0x2000), BranchKind::Indirect);
        btb.record_taken(pc, Addr::new(0x3000), BranchKind::Indirect);
        assert_eq!(btb.lookup(pc).unwrap().target, Addr::new(0x3000));
    }

    #[test]
    fn conflicting_branches_evict_lru() {
        // 4 sets × 2 ways; three branches mapping to the same set (stride =
        // sets * 4 bytes).
        let mut btb = Btb::new(8, 2);
        let a = Addr::new(0x1000);
        let b = Addr::new(0x1000 + 4 * 4);
        let c = Addr::new(0x1000 + 8 * 4);
        btb.record_taken(a, Addr::new(1 << 4), BranchKind::Cond);
        btb.record_taken(b, Addr::new(2 << 4), BranchKind::Cond);
        btb.lookup(a); // make `b` the LRU
        btb.record_taken(c, Addr::new(3 << 4), BranchKind::Cond);
        assert!(btb.peek(a).is_some());
        assert!(btb.peek(b).is_none(), "LRU entry should have been evicted");
        assert!(btb.peek(c).is_some());
    }

    #[test]
    fn hpca_configuration() {
        let btb = Btb::hpca2004();
        assert_eq!(btb.table.num_sets() * btb.table.ways(), 2048);
    }

    #[test]
    fn distinct_pcs_do_not_alias_with_full_tags() {
        let mut btb = Btb::new(2048, 4);
        let a = Addr::new(0x0010_0000);
        let b = Addr::new(0x0090_0000); // same set index, different tag
        btb.record_taken(a, Addr::new(0xaaaa), BranchKind::Jump);
        assert!(btb.lookup(b).is_none());
    }

    /// The BTB only ever returns targets that were recorded for that PC.
    #[test]
    fn btb_returns_recorded_targets() {
        for case in 0..64 {
            let mut rng = Srng::new(0x66 ^ case);
            let mut btb = Btb::new(256, 4);
            let mut last = BTreeMap::new();
            let n = 1 + rng.range(0, 100);
            for _ in 0..n {
                let pc = Addr::new(rng.range(0, 1 << 16) & !3);
                let tgt = Addr::new((4 + rng.range(0, 1 << 20)) & !3);
                btb.record_taken(pc, tgt, BranchKind::Jump);
                last.insert(pc, tgt);
            }
            for (&pc, &tgt) in &last {
                if let Some(e) = btb.peek(pc) {
                    assert_eq!(e.target, tgt, "stale target for {pc} (case {case})");
                }
            }
        }
    }
}
