//! Translation lookaside buffers.

use smt_isa::{Addr, Presized};

/// A fully-associative, LRU TLB over fixed-size pages.
///
/// Table 3 gives a 48-entry I-TLB and a 128-entry D-TLB; misses charge a
/// fixed page-walk penalty.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Presized<Vec<(u64, u64)>>, // (page number, lru)
    capacity: usize,
    /// `log2(page_bytes)`: byte address → page number.
    page_shift: u32,
    miss_penalty: u64,
    tick: u64,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// Table 3's instruction-TLB entries (48).
    pub const HPCA2004_ITLB_ENTRIES: usize = 48;
    /// Table 3's data-TLB entries (128).
    pub const HPCA2004_DTLB_ENTRIES: usize = 128;
    /// Table 3's page size (8 KB).
    pub const HPCA2004_PAGE_BYTES: u64 = 8192;
    /// Table 3's page-walk penalty in cycles (30).
    pub const HPCA2004_WALK_CYCLES: u64 = 30;

    /// Creates a TLB with `capacity` entries over `page_bytes` pages,
    /// charging `miss_penalty` cycles per miss.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64, miss_penalty: u64) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two (got {page_bytes})"
        );
        Tlb {
            entries: Presized::vec(capacity),
            capacity,
            page_shift: page_bytes.trailing_zeros(),
            miss_penalty,
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Translates `addr`, returning the added latency (0 on a hit, the walk
    /// penalty on a miss). The missing page is filled.
    pub fn access(&mut self, addr: Addr) -> u64 {
        self.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let page = addr.raw() >> self.page_shift;
        // `entries` stays sorted by page number, so the common case — a hit
        // — is a binary search instead of a scan of all 48/128 ways. Entry
        // order carries no semantics: hit/miss and the LRU victim are
        // functions of the (page, tick) contents alone (ticks are unique),
        // so the layout is free to serve lookup speed.
        match self.entries.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(i) => {
                self.entries[i].1 = tick;
                0
            }
            Err(mut pos) => {
                self.misses += 1;
                if self.entries.len() >= self.capacity {
                    #[expect(clippy::expect_used, reason = "entries is full, so non-empty")]
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, l))| *l)
                        .map(|(i, _)| i)
                        .expect("nonempty");
                    self.entries.remove(lru);
                    if lru < pos {
                        pos -= 1;
                    }
                }
                self.entries.insert(pos, (page, tick));
                self.miss_penalty
            }
        }
    }

    /// `(accesses, misses)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(4, 8192, 30);
        assert_eq!(t.access(Addr::new(0x1_0000)), 30);
        assert_eq!(t.access(Addr::new(0x1_1fff)), 0, "same page hits");
        assert_eq!(t.access(Addr::new(0x1_2000)), 30, "next page misses");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0, 8192, 30);
    }

    #[test]
    #[should_panic(expected = "page size must be a power of two")]
    fn non_power_of_two_page_rejected() {
        let _ = Tlb::new(48, 6000, 30);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 8192, 30);
        t.access(Addr::new(0x0000)); // page 0
        t.access(Addr::new(0x2000)); // page 1
        t.access(Addr::new(0x0000)); // touch page 0 → page 1 is LRU
        t.access(Addr::new(0x4000)); // page 2 evicts page 1
        assert_eq!(t.access(Addr::new(0x0000)), 0);
        assert_eq!(t.access(Addr::new(0x2000)), 30);
    }

    #[test]
    fn huge_working_set_thrashes() {
        let mut t = Tlb::new(16, 8192, 30);
        for i in 0..64u64 {
            t.access(Addr::new(i * 8192));
        }
        for i in 0..64u64 {
            assert_eq!(t.access(Addr::new(i * 8192)), 30);
        }
        let (acc, miss) = t.stats();
        assert_eq!(acc, 128);
        assert_eq!(miss, 128);
    }

    #[test]
    fn table3_capacities() {
        let (page, walk) = (Tlb::HPCA2004_PAGE_BYTES, Tlb::HPCA2004_WALK_CYCLES);
        let mut i = Tlb::new(Tlb::HPCA2004_ITLB_ENTRIES, page, walk);
        let mut d = Tlb::new(Tlb::HPCA2004_DTLB_ENTRIES, page, walk);
        for n in 0..48u64 {
            i.access(Addr::new(n * 8192));
        }
        for n in 0..48u64 {
            assert_eq!(i.access(Addr::new(n * 8192)), 0, "48 pages fit the ITLB");
        }
        for n in 0..128u64 {
            d.access(Addr::new(n * 8192));
        }
        for n in 0..128u64 {
            assert_eq!(d.access(Addr::new(n * 8192)), 0, "128 pages fit the DTLB");
        }
    }
}
