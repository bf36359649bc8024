//! Miss status holding registers: bounded outstanding-miss tracking.

use smt_isa::{Addr, Cycle, Presized};

/// A file of MSHRs for one cache.
///
/// Each entry tracks one outstanding line fill and the cycle it completes.
/// Accesses to a line already pending **merge** into the existing entry
/// (hit-under-miss); a full file is a structural hazard — the requester must
/// retry. The paper requires a non-blocking I-cache with "an MSHR for each
/// thread"; the simulator gives each cache a small file and lets the caller
/// partition it.
#[derive(Clone, Debug)]
pub struct MshrFile {
    slots: Presized<Vec<(Addr, Cycle)>>, // (line address, ready cycle)
    /// The earliest `ready` among `slots` (`Cycle::MAX` when empty): no
    /// entry can expire before it, so [`MshrFile::retire`] returns at once.
    earliest: Cycle,
    capacity: usize,
    line_bytes: u64,
}

/// Result of an MSHR allocation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated.
    Allocated,
    /// The line was already pending; the access merged. The payload is the
    /// cycle the pending fill completes.
    Merged(Cycle),
    /// The file is full; the access must retry later.
    Full,
}

impl MshrFile {
    /// Creates a file with `capacity` entries for lines of `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `line_bytes` is not a power of two.
    pub fn new(capacity: usize, line_bytes: u64) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        assert!(
            line_bytes.is_power_of_two(),
            "MSHR line size must be a power of two (got {line_bytes})"
        );
        MshrFile {
            slots: Presized::vec(capacity),
            earliest: Cycle::MAX,
            capacity,
            line_bytes,
        }
    }

    /// Number of outstanding misses at `now` (expired entries are retired).
    pub fn outstanding(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.slots.len()
    }

    /// Retires entries whose fills completed at or before `now`.
    pub fn retire(&mut self, now: Cycle) {
        if self.earliest > now {
            return;
        }
        self.slots.retain(|&(_, ready)| ready > now);
        self.earliest = self
            .slots
            .iter()
            .map(|&(_, r)| r)
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// Whether the line containing `addr` has a fill pending at `now`;
    /// returns its completion cycle.
    pub fn pending(&mut self, addr: Addr, now: Cycle) -> Option<Cycle> {
        self.retire(now);
        let line = addr.line(self.line_bytes);
        self.slots
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    /// Tries to track a miss of `addr`'s line completing at `ready`.
    pub fn allocate(&mut self, addr: Addr, now: Cycle, ready: Cycle) -> MshrOutcome {
        self.retire(now);
        let line = addr.line(self.line_bytes);
        if let Some(&(_, r)) = self.slots.iter().find(|&&(l, _)| l == line) {
            return MshrOutcome::Merged(r);
        }
        if self.slots.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.slots.push((line, ready));
        self.earliest = self.earliest.min(ready);
        MshrOutcome::Allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge_same_line() {
        let mut m = MshrFile::new(4, 64);
        assert_eq!(
            m.allocate(Addr::new(0x1000), 0, 100),
            MshrOutcome::Allocated
        );
        assert_eq!(
            m.allocate(Addr::new(0x1020), 5, 100),
            MshrOutcome::Merged(100),
            "same line must merge"
        );
        assert_eq!(m.outstanding(5), 1);
    }

    #[test]
    fn full_file_stalls() {
        let mut m = MshrFile::new(2, 64);
        assert_eq!(m.allocate(Addr::new(0x0), 0, 50), MshrOutcome::Allocated);
        assert_eq!(m.allocate(Addr::new(0x40), 0, 50), MshrOutcome::Allocated);
        assert_eq!(m.allocate(Addr::new(0x80), 0, 50), MshrOutcome::Full);
        assert_eq!(m.outstanding(0), 2, "a stalled miss takes no entry");
        assert_eq!(m.pending(Addr::new(0x80), 0), None);
    }

    #[test]
    fn entries_retire_when_fill_completes() {
        let mut m = MshrFile::new(1, 64);
        m.allocate(Addr::new(0x0), 0, 10);
        assert_eq!(m.allocate(Addr::new(0x40), 5, 60), MshrOutcome::Full);
        // At cycle 10 the first fill is done: slot frees.
        assert_eq!(m.allocate(Addr::new(0x40), 10, 60), MshrOutcome::Allocated);
        assert_eq!(m.outstanding(10), 1);
        assert_eq!(m.outstanding(60), 0);
    }

    #[test]
    fn pending_reports_completion_cycle() {
        let mut m = MshrFile::new(2, 64);
        m.allocate(Addr::new(0x100), 0, 42);
        assert_eq!(m.pending(Addr::new(0x13c), 1), Some(42));
        assert_eq!(m.pending(Addr::new(0x140), 1), None);
        assert_eq!(m.pending(Addr::new(0x100), 42), None, "retired at ready");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0, 64);
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = MshrFile::new(4, 48);
    }
}
