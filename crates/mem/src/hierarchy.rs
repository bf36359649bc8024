//! The full memory hierarchy of Table 3: split 32 KB L1s, unified 1 MB L2,
//! 100-cycle main memory, TLBs and per-cache MSHR files.

use smt_isa::{Addr, Cycle};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::tlb::Tlb;

/// Outcome of an instruction-fetch access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOutcome {
    /// The line is in the L1I; fetch proceeds this cycle.
    Hit,
    /// The line is being filled; fetch for this thread can resume at the
    /// given cycle.
    Miss {
        /// Cycle at which the line becomes available.
        ready: Cycle,
    },
    /// No MSHR available; retry next cycle.
    Stall,
}

/// Outcome of a data access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataOutcome {
    /// Extra latency beyond the L1 pipeline (0 on an L1 hit).
    Done {
        /// Cycle at which the datum is available.
        ready: Cycle,
    },
    /// No MSHR available; replay the access later.
    Stall,
}

/// The memory hierarchy timing model.
///
/// Fills are performed eagerly while the returned latencies carry the timing
/// (the standard trace-simulator simplification); MSHR files bound the
/// number of outstanding misses and provide hit-under-miss merging.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    imshr: MshrFile,
    dmshr: MshrFile,
    itlb: Tlb,
    dtlb: Tlb,
}

impl MemoryHierarchy {
    /// Table 3's main-memory latency in cycles (100).
    pub const HPCA2004_MEMORY_LATENCY: u64 = 100;
    /// Table 3's data-side MSHR entries (16). The instruction side has one
    /// per thread.
    const HPCA2004_D_MSHRS: usize = 16;

    /// The paper's hierarchy for `threads` contexts.
    pub fn hpca2004(threads: usize) -> Self {
        let (l1, l2) = (CacheConfig::HPCA2004_L1, CacheConfig::HPCA2004_L2);
        let tlb = |entries| Tlb::new(entries, Tlb::HPCA2004_PAGE_BYTES, Tlb::HPCA2004_WALK_CYCLES);
        MemoryHierarchy {
            imshr: MshrFile::new(threads.max(1), l1.line_bytes),
            dmshr: MshrFile::new(Self::HPCA2004_D_MSHRS, l1.line_bytes),
            l1i: Cache::new(l1),
            l1d: Cache::new(l1),
            l2: Cache::new(l2),
            itlb: tlb(Tlb::HPCA2004_ITLB_ENTRIES),
            dtlb: tlb(Tlb::HPCA2004_DTLB_ENTRIES),
        }
    }

    /// Latency of an L2-and-beyond access for a line, filling as it goes.
    fn l2_and_beyond(&mut self, addr: Addr, write: bool) -> u64 {
        if self.l2.access(addr, write) {
            self.l2.config().hit_latency
        } else {
            let lat = self.l2.config().hit_latency + Self::HPCA2004_MEMORY_LATENCY;
            self.l2.fill(addr, write);
            lat
        }
    }

    /// An instruction fetch of the line containing `pc` at cycle `now`.
    pub fn fetch(&mut self, pc: Addr, now: Cycle) -> FetchOutcome {
        // A line whose fill is still in flight was already (eagerly) filled
        // into the tags; the MSHR check must come first so the access merges
        // instead of hitting early.
        if let Some(ready) = self.imshr.pending(pc, now) {
            return FetchOutcome::Miss { ready };
        }
        if self.l1i.access(pc, false) {
            return FetchOutcome::Hit;
        }
        let tlb_penalty = self.itlb.access(pc);
        let lat = 1 + tlb_penalty + self.l2_and_beyond(pc, false);
        let ready = now + lat;
        match self.imshr.allocate(pc, now, ready) {
            MshrOutcome::Full => FetchOutcome::Stall,
            MshrOutcome::Merged(r) => FetchOutcome::Miss { ready: r },
            MshrOutcome::Allocated => {
                self.l1i.fill(pc, false);
                FetchOutcome::Miss { ready }
            }
        }
    }

    /// A data load of `addr` issued at cycle `now`.
    pub fn load(&mut self, addr: Addr, now: Cycle) -> DataOutcome {
        let tlb_penalty = self.dtlb.access(addr);
        // In-flight lines were eagerly filled; merge before the tag lookup.
        if let Some(ready) = self.dmshr.pending(addr, now) {
            return DataOutcome::Done {
                ready: ready + tlb_penalty,
            };
        }
        if self.l1d.access(addr, false) {
            return DataOutcome::Done {
                ready: now + tlb_penalty,
            };
        }
        let lat = 1 + tlb_penalty + self.l2_and_beyond(addr, false);
        let ready = now + lat;
        match self.dmshr.allocate(addr, now, ready) {
            MshrOutcome::Full => DataOutcome::Stall,
            MshrOutcome::Merged(r) => DataOutcome::Done { ready: r },
            MshrOutcome::Allocated => {
                self.l1d.fill(addr, false);
                DataOutcome::Done { ready }
            }
        }
    }

    /// A data store of `addr` performed at commit at cycle `now`.
    ///
    /// Stores retire through a store buffer and never stall commit; misses
    /// write-allocate and occupy a data MSHR if one is free (a full file
    /// just delays the fill invisibly, as a real store buffer would).
    pub fn store(&mut self, addr: Addr, now: Cycle) {
        let tlb_penalty = self.dtlb.access(addr);
        if self.l1d.access(addr, true) {
            return;
        }
        let lat = 1 + tlb_penalty + self.l2_and_beyond(addr, true);
        let _ = self.dmshr.allocate(addr, now, now + lat);
        self.l1d.fill(addr, true);
    }

    /// `(L1I, L1D, L2)` statistics.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::hpca2004(2)
    }

    #[test]
    fn fetch_miss_then_hit() {
        let mut h = hier();
        let pc = Addr::new(0x40_0000);
        match h.fetch(pc, 0) {
            FetchOutcome::Miss { ready } => {
                // Cold miss goes to memory: ≥ 100 cycles.
                assert!(ready >= 100, "cold fetch ready at {ready}");
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(h.fetch(pc, 200), FetchOutcome::Hit);
        assert_eq!(h.fetch(pc + 60, 201), FetchOutcome::Hit, "same line");
    }

    #[test]
    fn fetch_l2_hit_is_cheaper_than_memory() {
        let mut h = hier();
        let pc = Addr::new(0x40_0000);
        let FetchOutcome::Miss { ready: cold } = h.fetch(pc, 0) else {
            panic!("expected cold miss");
        };
        // Evict from tiny L1I by streaming 512 lines, keeping L2 resident.
        // Accesses are spaced out so each fill completes before the next
        // (the I-side MSHR file is small).
        for i in 1..=512u64 {
            let _ = h.fetch(pc + i * 64, 1000 + i * 200);
        }
        let FetchOutcome::Miss { ready } = h.fetch(pc, 10_000) else {
            panic!("expected L1 miss");
        };
        let l2_lat = ready - 10_000;
        assert!(l2_lat < cold, "L2 hit {l2_lat} should beat memory {cold}");
        assert!(l2_lat >= 10, "L2 hit must charge the 10-cycle latency");
    }

    #[test]
    fn fetch_mshr_full_stalls_and_merge_shares() {
        // One thread: a one-entry instruction MSHR file.
        let mut h = MemoryHierarchy::hpca2004(1);
        let a = Addr::new(0x10_0000);
        let b = Addr::new(0x20_0000);
        let FetchOutcome::Miss { ready } = h.fetch(a, 0) else {
            panic!()
        };
        // Different line, file full → stall.
        assert_eq!(h.fetch(b, 1), FetchOutcome::Stall);
        // Same pending line → merged miss with the same ready time.
        assert_eq!(h.fetch(a + 4, 1), FetchOutcome::Miss { ready });
        // After the fill completes the slot frees.
        assert!(matches!(h.fetch(b, ready + 1), FetchOutcome::Miss { .. }));
    }

    #[test]
    fn load_hit_costs_nothing_extra() {
        let mut h = hier();
        let a = Addr::new(0x80_0000);
        let DataOutcome::Done { ready } = h.load(a, 0) else {
            panic!()
        };
        assert!(ready > 100, "cold load misses to memory");
        // The TLB and the L1D hit, and the MSHR entry retired at `ready`.
        let t = ready + 1;
        assert_eq!(h.load(a, t), DataOutcome::Done { ready: t }, "L1 hit");
        let DataOutcome::Done { ready: r2 } = h.load(a + 8, 500) else {
            panic!()
        };
        assert_eq!(r2, 500, "same-line hit is free");
    }

    #[test]
    fn loads_merge_into_pending_miss() {
        let mut h = hier();
        let a = Addr::new(0x90_0000);
        let DataOutcome::Done { ready } = h.load(a, 0) else {
            panic!()
        };
        let DataOutcome::Done { ready: r2 } = h.load(a + 16, 3) else {
            panic!()
        };
        assert_eq!(r2, ready, "second load shares the fill");
    }

    #[test]
    fn stores_never_stall() {
        let mut h = hier();
        for i in 0..100u64 {
            h.store(Addr::new(0xa0_0000 + i * 64), i);
        }
        // All lines now present and dirty; a re-store hits.
        h.store(Addr::new(0xa0_0000), 1000);
        let (_, l1d, _) = h.cache_stats();
        assert!(l1d.hits >= 1);
    }

    #[test]
    fn working_set_beyond_l2_misses_to_memory() {
        let mut h = hier();
        // Stream 2 MB (L2 is 1 MB): every revisit goes to memory.
        let lines = 2 * 1024 * 1024 / 64u64;
        for i in 0..lines {
            let _ = h.load(Addr::new(0x100_0000 + i * 64), i * 3);
        }
        let t0 = 10_000_000;
        let DataOutcome::Done { ready } = h.load(Addr::new(0x100_0000), t0) else {
            panic!()
        };
        assert!(ready - t0 >= 100, "thrashed line must pay memory latency");
    }

    #[test]
    fn tlb_misses_add_latency() {
        let mut h = hier();
        // First touch of a page pays the walk even on an (impossible) cache
        // hit path; here it's a miss path, so ready ≥ walk + memory.
        let DataOutcome::Done { ready } = h.load(Addr::new(0x300_0000), 0) else {
            panic!()
        };
        assert!(ready >= 130);
        // Another line of the same page misses the caches the same way but
        // finds its translation: it is faster by exactly the walk.
        let DataOutcome::Done { ready: r2 } = h.load(Addr::new(0x300_0040), 1000) else {
            panic!()
        };
        assert_eq!(r2 - 1000 + Tlb::HPCA2004_WALK_CYCLES, ready);
    }
}
