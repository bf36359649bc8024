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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// A stored dynamic instruction sequence. Its segments are held inline, so
/// a trace is `Copy` and filling or hitting one never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Contiguous segments in dynamic order; the first `num_segments` are
    /// live, the rest stay default.
    segments: [TraceSegment; Trace::MAX_SEGMENTS],
    num_segments: usize,
    /// Address execution continues at after the trace.
    pub next_pc: Addr,
}

impl Trace {
    /// Maximum instructions per trace (one trace-cache line).
    pub const MAX_INSTS: u32 = 16;
    /// Maximum contiguous segments (i.e. embedded taken branches + 1).
    pub const MAX_SEGMENTS: usize = 3;

    /// An empty trace continuing at `next_pc`.
    pub fn new(next_pc: Addr) -> Self {
        Trace {
            segments: [TraceSegment::default(); Trace::MAX_SEGMENTS],
            num_segments: 0,
            next_pc,
        }
    }

    /// Appends a segment.
    ///
    /// # Panics
    ///
    /// Panics if the trace already holds [`Trace::MAX_SEGMENTS`] segments.
    pub fn push(&mut self, seg: TraceSegment) {
        self.segments[self.num_segments] = seg;
        self.num_segments += 1;
    }

    /// The segments, in dynamic order.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments[..self.num_segments]
    }

    /// Directions of the segment-ending conditional branches, oldest
    /// first: the trace's direction vector.
    pub fn cond_dirs(&self) -> impl Iterator<Item = bool> + '_ {
        self.segments()
            .iter()
            .filter(|s| s.end_kind == Some(BranchKind::Cond))
            .map(|s| s.end_taken)
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

    fn set_and_tag(&self, start: Addr, dirs: impl Iterator<Item = bool>) -> (u64, u64) {
        let word = start.raw() >> 2;
        // Fold the direction vector into the tag so different paths from
        // the same start occupy different ways (path associativity).
        let mut dir_bits = 0u64;
        for (i, d) in dirs.enumerate().take(8) {
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
            let dirs = pred_dirs[..take].iter().copied();
            let (set, tag) = self.set_and_tag(start, dirs.clone());
            if let Some(t) = self.table.lookup(set, tag) {
                if t.cond_dirs().eq(dirs) {
                    return Some(*t);
                }
            }
        }
        None
    }

    /// Installs a trace collected by the fill unit.
    ///
    /// Traces that are empty or longer than [`Trace::MAX_INSTS`] are
    /// rejected (fill-unit bugs).
    pub fn fill(&mut self, trace: Trace) {
        let segs = trace.segments();
        let Some(first) = segs.first() else {
            return;
        };
        if segs.iter().map(|s| s.len).sum::<u32>() > Trace::MAX_INSTS {
            return;
        }
        let (set, tag) = self.set_and_tag(first.start, trace.cond_dirs());
        self.table.insert(set, tag, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: u64, len: u32, taken: bool) -> TraceSegment {
        TraceSegment {
            start: Addr::new(start),
            len,
            end_kind: Some(BranchKind::Cond),
            end_taken: taken,
        }
    }

    fn two_segment_trace() -> Trace {
        let mut t = Trace::new(Addr::new(0x2014));
        t.push(seg(0x1000, 6, true));
        t.push(seg(0x2000, 5, false));
        t
    }

    #[test]
    fn geometry_helpers() {
        let t = two_segment_trace();
        assert_eq!(t.segments().iter().map(|s| s.len).sum::<u32>(), 11);
        assert_eq!(t.segments()[0].start, Addr::new(0x1000));
        assert!(t.cond_dirs().eq([true, false]));
        assert!(Trace::new(Addr::NULL).segments().is_empty());
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
        let mut b = Trace::new(Addr::new(0x1018));
        b.push(seg(0x1000, 6, false));
        tc.fill(a);
        tc.fill(b);
        assert_eq!(tc.lookup(Addr::new(0x1000), &[true, false]), Some(a));
        assert_eq!(tc.lookup(Addr::new(0x1000), &[false, true]), Some(b));
    }

    #[test]
    fn oversized_traces_are_rejected() {
        let mut tc = TraceCache::new(64, 4);
        let mut t = Trace::new(Addr::new(0x2014));
        t.push(seg(0x1000, 20, true)); // 20 + 5 > 16
        t.push(seg(0x2000, 5, false));
        tc.fill(t);
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
        tc.fill(updated);
        assert_eq!(tc.lookup(Addr::new(0x1000), &[true, false]), Some(updated));
    }
}
