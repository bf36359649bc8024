//! Translation lookaside buffers.

use smt_isa::{Addr, Diagnostic, Presized};

/// Configuration of one TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of (fully-associative) entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Page-walk penalty in cycles, charged per miss.
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// Table 3's 48-entry instruction TLB (8 KB pages, 30-cycle walk).
    pub fn itlb_hpca2004() -> Self {
        TlbConfig {
            entries: 48,
            page_bytes: 8192,
            miss_penalty: 30,
        }
    }

    /// Table 3's 128-entry data TLB (8 KB pages, 30-cycle walk).
    pub fn dtlb_hpca2004() -> Self {
        TlbConfig {
            entries: 128,
            page_bytes: 8192,
            miss_penalty: 30,
        }
    }
}

/// A fully-associative, LRU TLB over fixed-size pages.
///
/// Table 3 gives a 48-entry I-TLB and a 128-entry D-TLB; misses charge a
/// fixed page-walk penalty.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Presized<Vec<(u64, u64)>>, // (page number, lru)
    capacity: usize,
    page_bytes: u64,
    miss_penalty: u64,
    tick: u64,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    /// Builds a TLB from a configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tlb::new`] (`E0011`).
    pub fn from_config(cfg: &TlbConfig) -> Result<Self, Diagnostic> {
        Tlb::new(cfg.entries, cfg.page_bytes, cfg.miss_penalty)
    }

    /// Creates a TLB with `capacity` entries over `page_bytes` pages,
    /// charging `miss_penalty` cycles per miss.
    ///
    /// # Errors
    ///
    /// `E0011` if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64, miss_penalty: u64) -> Result<Self, Diagnostic> {
        if capacity == 0 {
            return Err(Diagnostic::error(
                "E0011",
                "tlb.entries",
                "TLB capacity must be positive",
                "Table 3 uses 48 I-TLB / 128 D-TLB entries",
            ));
        }
        if !page_bytes.is_power_of_two() {
            return Err(Diagnostic::error(
                "E0011",
                "tlb.page_bytes",
                format!("page size must be a power of two (got {page_bytes})"),
                "the paper uses 8 KB pages",
            ));
        }
        Ok(Tlb {
            entries: Presized::vec(capacity),
            capacity,
            page_bytes,
            miss_penalty,
            tick: 0,
            accesses: 0,
            misses: 0,
        })
    }

    /// The paper's 48-entry instruction TLB (8 KB pages, 30-cycle walk).
    #[expect(clippy::expect_used, reason = "preset geometry is valid")]
    pub fn itlb_hpca2004() -> Self {
        Tlb::from_config(&TlbConfig::itlb_hpca2004()).expect("preset geometry is valid")
    }

    /// The paper's 128-entry data TLB (8 KB pages, 30-cycle walk).
    #[expect(clippy::expect_used, reason = "preset geometry is valid")]
    pub fn dtlb_hpca2004() -> Self {
        Tlb::from_config(&TlbConfig::dtlb_hpca2004()).expect("preset geometry is valid")
    }

    /// Translates `addr`, returning the added latency (0 on a hit, the walk
    /// penalty on a miss). The missing page is filled.
    pub fn access(&mut self, addr: Addr) -> u64 {
        self.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let page = addr.raw() / self.page_bytes;
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
        let mut t = Tlb::new(4, 8192, 30).unwrap();
        assert_eq!(t.access(Addr::new(0x1_0000)), 30);
        assert_eq!(t.access(Addr::new(0x1_1fff)), 0, "same page hits");
        assert_eq!(t.access(Addr::new(0x1_2000)), 30, "next page misses");
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 8192, 30).unwrap();
        t.access(Addr::new(0x0000)); // page 0
        t.access(Addr::new(0x2000)); // page 1
        t.access(Addr::new(0x0000)); // touch page 0 → page 1 is LRU
        t.access(Addr::new(0x4000)); // page 2 evicts page 1
        assert_eq!(t.access(Addr::new(0x0000)), 0);
        assert_eq!(t.access(Addr::new(0x2000)), 30);
    }

    #[test]
    fn huge_working_set_thrashes() {
        let mut t = Tlb::new(16, 8192, 30).unwrap();
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
        let mut i = Tlb::itlb_hpca2004();
        let mut d = Tlb::dtlb_hpca2004();
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
