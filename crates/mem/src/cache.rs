//! A set-associative cache tag model with LRU replacement and banking.

use smt_isa::Addr;

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Number of interleaved banks (for conflict modeling).
    pub banks: u64,
    /// Access latency in cycles charged on a hit *beyond* the pipelined
    /// first cycle (L1s use 0, the paper's L2 uses 10).
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's 32 KB, 2-way, 8-bank, 64 B-line L1 (the instruction and
    /// data caches share it).
    pub const HPCA2004_L1: CacheConfig = CacheConfig {
        size_bytes: 32 * 1024,
        ways: 2,
        line_bytes: 64,
        banks: 8,
        hit_latency: 0,
    };

    /// The paper's 1 MB, 2-way, 8-bank, 10-cycle unified L2.
    pub const HPCA2004_L2: CacheConfig = CacheConfig {
        size_bytes: 1024 * 1024,
        ways: 2,
        line_bytes: 64,
        banks: 8,
        hit_latency: 10,
    };

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways as u64
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    lru: u64,
    valid: bool,
    dirty: bool,
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Lines filled.
    pub fills: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        1.0 - self.hits as f64 / self.accesses as f64
    }
}

/// One cache level's tag array.
///
/// This is a *timing* model: data never moves, only tags and LRU state.
/// Fills are performed eagerly by the hierarchy when it charges the miss
/// latency (the standard "functional fill, timed latency" simplification).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    /// `log2(line_bytes)`: byte address → line address.
    line_shift: u32,
    /// `log2(sets)`: line address → tag.
    set_bits: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if a geometry value is zero, or if the line size, the set
    /// count or the bank count is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.line_bytes.is_power_of_two(),
            "cache ways must be positive and the line size a power of two ({cfg:?})"
        );
        let num_sets = cfg.num_sets();
        assert!(
            num_sets.is_power_of_two(),
            "cache set count must be a power of two (got {num_sets})"
        );
        assert!(
            cfg.banks.is_power_of_two(),
            "cache bank count must be a power of two (got {})",
            cfg.banks
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a line count too large for usize could not be allocated anyway"
        )]
        let num_lines = (num_sets * cfg.ways as u64) as usize;
        Cache {
            lines: vec![
                Line {
                    tag: 0,
                    lru: 0,
                    valid: false,
                    dirty: false
                };
                num_lines
            ],
            set_mask: num_sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_and_tag(&self, addr: Addr) -> (u64, u64) {
        let line = addr.raw() >> self.line_shift;
        (line & self.set_mask, line >> self.set_bits)
    }

    /// First slot of `set` in `lines`.
    #[expect(clippy::cast_possible_truncation, reason = "set × ways < lines.len()")]
    fn base(&self, set: u64) -> usize {
        set as usize * self.cfg.ways
    }

    fn set_slice(&mut self, set: u64) -> &mut [Line] {
        let w = self.cfg.ways;
        let base = self.base(set);
        &mut self.lines[base..base + w]
    }

    /// Looks up `addr`; returns `true` on hit. Updates LRU and statistics;
    /// a write hit marks the line dirty. Misses do **not** fill — callers
    /// charge latency and then call [`Cache::fill`].
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        self.stats.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let hit = {
            let ways = self.set_slice(set);
            match ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                Some(l) => {
                    l.lru = tick;
                    if write {
                        l.dirty = true;
                    }
                    true
                }
                None => false,
            }
        };
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Whether `addr` is present, without perturbing any state.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = self.base(set);
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Fills the line containing `addr`, evicting the LRU way if needed.
    ///
    /// Returns the evicted line's address if the victim was dirty (for
    /// writeback modeling).
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Addr> {
        self.stats.fills += 1;
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let (line_shift, set_bits) = (self.line_shift, self.set_bits);
        let mut writeback = None;
        {
            let ways = self.set_slice(set);
            if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.lru = tick;
                l.dirty |= dirty;
                return None;
            }
            #[expect(clippy::expect_used, reason = "ways is non-empty")]
            let victim = if let Some(inv) = ways.iter_mut().find(|l| !l.valid) {
                inv
            } else {
                ways.iter_mut()
                    .min_by_key(|l| l.lru)
                    .expect("ways nonempty")
            };
            if victim.valid && victim.dirty {
                let vline = (victim.tag << set_bits) | set;
                writeback = Some(Addr::new(vline << line_shift));
            }
            *victim = Line {
                tag,
                lru: tick,
                valid: true,
                dirty,
            };
        }
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        writeback
    }

    /// Bank index of `addr`'s line.
    pub fn bank(&self, addr: Addr) -> u64 {
        addr.bank(self.cfg.line_bytes, self.cfg.banks)
    }

    /// Statistics since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024, // 4 sets × 4 ways × 64 B
            ways: 4,
            line_bytes: 64,
            banks: 2,
            hit_latency: 0,
        })
    }

    #[test]
    fn geometry_matches_table3() {
        assert_eq!(CacheConfig::HPCA2004_L1.num_sets(), 256);
        assert_eq!(CacheConfig::HPCA2004_L2.num_sets(), 8192);
        assert_eq!(
            Cache::new(CacheConfig::HPCA2004_L2).config().hit_latency,
            10
        );
    }

    #[test]
    #[should_panic(expected = "line size a power of two")]
    fn non_power_of_two_line_rejected() {
        // 1.5 MiB, 2-way, 48 B lines: 16384 sets, a power of two, so only
        // the line-size check catches it.
        let cfg = CacheConfig {
            size_bytes: 1536 * 1024,
            line_bytes: 48,
            ..CacheConfig::HPCA2004_L2
        };
        assert_eq!(cfg.num_sets(), 16384);
        let _ = Cache::new(cfg);
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_rejected() {
        // 48 KB, 2-way, 64 B lines: 384 sets.
        let _ = Cache::new(CacheConfig {
            size_bytes: 48 * 1024,
            ..CacheConfig::HPCA2004_L1
        });
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        let a = Addr::new(0x1000);
        assert!(!c.access(a, false));
        c.fill(a, false);
        assert!(c.access(a, false));
        assert!(c.access(a + 63, false), "same line hits");
        assert!(!c.access(a + 64, false), "next line misses");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny(); // 4 sets → same set every 4 lines
        let stride = 4 * 64;
        let addrs: Vec<Addr> = (0..5).map(|i| Addr::new(0x1000 + i * stride)).collect();
        for &a in &addrs[..4] {
            c.fill(a, false);
        }
        // Touch 0 so 1 is LRU, then fill the 5th.
        c.access(addrs[0], false);
        c.fill(addrs[4], false);
        assert!(c.probe(addrs[0]));
        assert!(!c.probe(addrs[1]), "LRU line must be evicted");
        assert!(c.probe(addrs[4]));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let stride = 4 * 64;
        let dirty_addr = Addr::new(0x1000);
        c.fill(dirty_addr, false);
        assert!(c.access(dirty_addr, true)); // write marks dirty
        for i in 1..4 {
            c.fill(Addr::new(0x1000 + i * stride), false);
        }
        let wb = c.fill(Addr::new(0x1000 + 4 * stride), false);
        assert_eq!(wb, Some(Addr::new(0x1000)), "dirty victim written back");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = tiny();
        let stride = 4 * 64;
        for i in 0..5 {
            assert_eq!(c.fill(Addr::new(0x1000 + i * stride), false), None);
        }
    }

    #[test]
    fn stats_and_miss_rate() {
        let mut c = tiny();
        let a = Addr::new(0x40);
        c.access(a, false); // miss
        c.fill(a, false);
        c.access(a, false); // hit
        c.access(a, false); // hit
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 2);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn banks_interleave() {
        let c = tiny();
        assert_eq!(c.bank(Addr::new(0)), 0);
        assert_eq!(c.bank(Addr::new(64)), 1);
        assert_eq!(c.bank(Addr::new(128)), 0);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny(); // 1 KB
                            // Stream over 8 KB twice: second pass still misses everywhere.
        let lines: Vec<Addr> = (0..128).map(|i| Addr::new(i * 64)).collect();
        for &a in &lines {
            c.access(a, false);
            c.fill(a, false);
        }
        let before = c.stats().hits;
        for &a in &lines {
            c.access(a, false);
            c.fill(a, false);
        }
        assert_eq!(c.stats().hits, before, "capacity thrash must not hit");
    }
}
