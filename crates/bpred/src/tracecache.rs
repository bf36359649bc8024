//! A trace cache (Rotenberg, Bennett & Smith, MICRO 1996).
//!
//! The paper's related work discusses the trace cache as the
//! high-complexity alternative to its proposal: a special-purpose cache
//! storing *dynamic* instruction sequences (traces) collected by a fill
//! unit at the back end of the pipeline, indexed by starting address and
//! branch directions, backed by a core fetch unit on a miss. The paper
//! reports the stream front-end within ~1.5% of a trace cache "but with
//! much lower complexity"; this model exists to reproduce that comparison.
//!
//! A trace here is up to [`Trace::MAX_INSTS`] instructions spanning up to
//! [`Trace::MAX_SEGMENTS`] contiguous segments; segment boundaries are the
//! taken branches inside the trace. The trace records the direction vector
//! of its conditional branches so that lookups can select the way whose
//! directions agree with the current multiple-branch prediction.

use smt_isa::{Addr, BranchKind};

use crate::assoc::SetAssoc;

/// One contiguous segment of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSegment {
    /// First instruction of the segment.
    pub start: Addr,
    /// Number of instructions (≥ 1).
    pub len: u32,
    /// The branch ending the segment, if the segment ends in one.
    pub end_kind: Option<BranchKind>,
    /// Whether that ending branch was taken when the trace was built
    /// (always true for inner segments; the last segment may end not-taken
    /// or without a branch).
    pub end_taken: bool,
}

/// A stored dynamic instruction sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Contiguous segments, in dynamic order.
    pub segments: Vec<TraceSegment>,
    /// Direction bits of the trace's conditional branches, oldest first.
    pub cond_dirs: Vec<bool>,
    /// Address execution continues at after the trace.
    pub next_pc: Addr,
}

impl Trace {
    /// Maximum instructions per trace (one trace-cache line).
    pub const MAX_INSTS: u32 = 16;
    /// Maximum contiguous segments (i.e. embedded taken branches + 1).
    pub const MAX_SEGMENTS: usize = 3;

    /// Total instructions in the trace.
    pub(crate) fn len(&self) -> u32 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Whether the trace has no segments.
    pub(crate) fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Starting address (first segment's start).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub(crate) fn start(&self) -> Addr {
        self.segments[0].start
    }
}

/// The trace cache: set-associative storage of [`Trace`]s indexed by start
/// address, with way selection by conditional-direction match.
#[derive(Clone, Debug)]
pub struct TraceCache {
    table: SetAssoc<Trace>,
    set_bits: u32,
}

impl TraceCache {
    /// Creates a trace cache with `entries` trace lines, `ways`-associative.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SetAssoc::new`].
    pub(crate) fn new(entries: usize, ways: usize) -> Self {
        let table = SetAssoc::new(entries, ways);
        let set_bits = table.num_sets().trailing_zeros();
        TraceCache { table, set_bits }
    }

    /// A typical configuration comparable to the paper-era literature:
    /// 512 trace lines of up to 16 instructions (≈ 32 KB of instruction
    /// storage), 4-way associative.
    pub fn typical() -> Self {
        TraceCache::new(512, 4)
    }

    fn set_and_tag(&self, start: Addr, dirs: &[bool]) -> (u64, u64) {
        let word = start.raw() >> 2;
        // Fold the direction vector into the tag so different paths from
        // the same start occupy different ways (path associativity).
        let mut dir_bits = 0u64;
        for (i, &d) in dirs.iter().enumerate().take(8) {
            dir_bits |= (d as u64) << i;
        }
        (
            word & self.table.set_mask(),
            (word >> self.set_bits) ^ (dir_bits << 48),
        )
    }

    /// Looks up a trace starting at `start` whose conditional directions
    /// match the prediction vector `pred_dirs` (only the trace's own
    /// conditionals are compared; `pred_dirs` must supply at least as many
    /// bits as the stored trace used).
    pub fn lookup(&mut self, start: Addr, pred_dirs: &[bool]) -> Option<Trace> {
        // Try the longest direction prefixes first: a trace with more
        // matching conditionals is the better (longer) fetch.
        for take in (0..=pred_dirs.len().min(8)).rev() {
            let (set, tag) = self.set_and_tag(start, &pred_dirs[..take]);
            if let Some(t) = self.table.lookup(set, tag) {
                if t.cond_dirs.len() == take
                    && t.cond_dirs.iter().zip(pred_dirs).all(|(a, b)| a == b)
                {
                    return Some(t.clone());
                }
            }
        }
        None
    }

    /// Installs a trace collected by the fill unit.
    ///
    /// Traces that are empty or longer than [`Trace::MAX_INSTS`] are
    /// rejected (fill-unit bugs), as are traces with more conditionals than
    /// the direction-tag can hold.
    pub fn fill(&mut self, trace: Trace) {
        if trace.is_empty()
            || trace.len() > Trace::MAX_INSTS
            || trace.segments.len() > Trace::MAX_SEGMENTS
            || trace.cond_dirs.len() > 8
        {
            return;
        }
        let (set, tag) = self.set_and_tag(trace.start(), &trace.cond_dirs);
        self.table.insert(set, tag, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_segment_trace() -> Trace {
        Trace {
            segments: vec![
                TraceSegment {
                    start: Addr::new(0x1000),
                    len: 6,
                    end_kind: Some(BranchKind::Cond),
                    end_taken: true,
                },
                TraceSegment {
                    start: Addr::new(0x2000),
                    len: 5,
                    end_kind: Some(BranchKind::Cond),
                    end_taken: false,
                },
            ],
            cond_dirs: vec![true, false],
            next_pc: Addr::new(0x2014),
        }
    }

    #[test]
    fn geometry_helpers() {
        let t = two_segment_trace();
        assert_eq!(t.len(), 11);
        assert_eq!(t.start(), Addr::new(0x1000));
        assert!(!t.is_empty());
    }

    #[test]
    fn fill_then_lookup_with_matching_directions() {
        let mut tc = TraceCache::new(64, 4);
        tc.fill(two_segment_trace());
        let hit = tc.lookup(Addr::new(0x1000), &[true, false, true]);
        assert_eq!(hit, Some(two_segment_trace()));
    }

    #[test]
    fn lookup_with_mismatched_directions_misses() {
        let mut tc = TraceCache::new(64, 4);
        tc.fill(two_segment_trace());
        assert!(tc.lookup(Addr::new(0x1000), &[false, false]).is_none());
        assert!(tc.lookup(Addr::new(0x1000), &[true, true]).is_none());
        assert!(tc.lookup(Addr::new(0x3000), &[true, false]).is_none());
    }

    #[test]
    fn path_associativity_stores_both_paths() {
        let mut tc = TraceCache::new(64, 4);
        let a = two_segment_trace();
        let mut b = two_segment_trace();
        b.cond_dirs = vec![false];
        b.segments.truncate(1);
        b.segments[0].end_taken = false;
        b.next_pc = Addr::new(0x1018);
        tc.fill(a.clone());
        tc.fill(b.clone());
        assert_eq!(tc.lookup(Addr::new(0x1000), &[true, false]), Some(a));
        assert_eq!(tc.lookup(Addr::new(0x1000), &[false, true]), Some(b));
    }

    #[test]
    fn oversized_traces_are_rejected() {
        let mut tc = TraceCache::new(64, 4);
        let mut t = two_segment_trace();
        t.segments[0].len = 20; // 20 + 5 > 16
        tc.fill(t.clone());
        assert!(tc.lookup(Addr::new(0x1000), &[true, false]).is_none());
        // A rejected fill does not replace the stored trace of its path.
        tc.fill(two_segment_trace());
        tc.fill(t);
        assert_eq!(
            tc.lookup(Addr::new(0x1000), &[true, false]),
            Some(two_segment_trace())
        );
    }

    #[test]
    fn refill_replaces_same_path() {
        let mut tc = TraceCache::new(64, 4);
        tc.fill(two_segment_trace());
        let mut updated = two_segment_trace();
        updated.next_pc = Addr::new(0x9999 & !3);
        tc.fill(updated.clone());
        assert_eq!(tc.lookup(Addr::new(0x1000), &[true, false]), Some(updated));
    }
}
