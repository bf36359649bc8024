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
pub(crate) struct MshrFile {
    slots: Presized<Vec<(Addr, Cycle)>>, // (line address, ready cycle)
    /// The earliest `ready` among `slots` (`Cycle::MAX` when empty): no
    /// entry can expire before it, so [`MshrFile::retire`] returns at once.
    earliest: Cycle,
    capacity: usize,
    line_bytes: u64,
}

/// Result of an MSHR allocation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MshrOutcome {
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
    pub(crate) fn new(capacity: usize, line_bytes: u64) -> Self {
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
    #[cfg(test)]
    fn outstanding(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.slots.len()
    }

    /// Retires entries whose fills completed at or before `now`.
    pub(crate) fn retire(&mut self, now: Cycle) {
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
    pub(crate) fn pending(&mut self, addr: Addr, now: Cycle) -> Option<Cycle> {
        self.retire(now);
        let line = addr.line(self.line_bytes);
        self.slots
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    /// Tries to track a miss of `addr`'s line completing at `ready`.
    pub(crate) fn allocate(&mut self, addr: Addr, now: Cycle, ready: Cycle) -> MshrOutcome {
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
    use smt_workloads::Srng;

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

    /// MSHR occupancy never exceeds capacity and always drains by the last
    /// completion time.
    #[test]
    fn mshr_occupancy_bounded() {
        for case in 0..64 {
            let mut rng = Srng::new(0x88 ^ case);
            let mut m = MshrFile::new(4, 64);
            let mut horizon = 0;
            let n = 1 + rng.range(0, 80);
            for now in 0..n {
                let addr = Addr::new(rng.range(0, 1 << 14));
                let ready = now + 1 + rng.range(0, 299);
                match m.allocate(addr, now, ready) {
                    MshrOutcome::Allocated | MshrOutcome::Merged(_) => {}
                    MshrOutcome::Full => {}
                }
                assert!(m.outstanding(now) <= 4, "case {case}");
                horizon = horizon.max(ready);
            }
            assert_eq!(m.outstanding(horizon), 0, "case {case}");
        }
    }

    /// An MSHR file that retires expired entries on every call: the `MshrFile`
    /// behaviour before it kept the earliest ready cycle.
    struct EagerMshr {
        slots: Vec<(Addr, u64)>,
        capacity: usize,
    }

    impl EagerMshr {
        fn retire(&mut self, now: u64) {
            self.slots.retain(|&(_, ready)| ready > now);
        }

        fn pending(&mut self, addr: Addr, now: u64) -> Option<u64> {
            self.retire(now);
            let line = addr.line(64);
            self.slots.iter().find(|s| s.0 == line).map(|s| s.1)
        }

        fn allocate(&mut self, addr: Addr, now: u64, ready: u64) -> MshrOutcome {
            self.retire(now);
            let line = addr.line(64);
            if let Some(&(_, r)) = self.slots.iter().find(|s| s.0 == line) {
                return MshrOutcome::Merged(r);
            }
            if self.slots.len() >= self.capacity {
                return MshrOutcome::Full;
            }
            self.slots.push((line, ready));
            MshrOutcome::Allocated
        }
    }

    /// `MshrFile` with its early-returning `retire` gives the same outcomes and
    /// outstanding counts as a file that retires on every call, over random
    /// address/cycle traces.
    #[test]
    fn mshr_matches_eager_retire_reference() {
        for case in 0..64 {
            let mut rng = Srng::new(0x35E ^ case);
            let capacity = rng.range_usize(1, 17);
            let mut m = MshrFile::new(capacity, 64);
            let mut reference = EagerMshr {
                slots: Vec::new(),
                capacity,
            };
            let mut now = 0u64;
            for i in 0..1_000 {
                now += rng.range(0, 4) * rng.range(0, 8);
                let addr = Addr::new(rng.range(0, 1 << 11));
                match rng.range(0, 4) {
                    0 => assert_eq!(m.pending(addr, now), reference.pending(addr, now)),
                    1 => {
                        reference.retire(now);
                        assert_eq!(m.outstanding(now), reference.slots.len());
                    }
                    _ => {
                        let ready = now + 1 + rng.range(0, 120);
                        assert_eq!(
                            m.allocate(addr, now, ready),
                            reference.allocate(addr, now, ready),
                            "case {case}, op {i}"
                        );
                    }
                }
            }
        }
    }
}
