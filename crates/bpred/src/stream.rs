//! The stream predictor (Ramirez, Santana, Larriba-Pey & Valero, MICRO 2002).
//!
//! A **stream** is a dynamic sequence of instructions from the target of a
//! taken branch to the next taken branch — it may embed any number of
//! not-taken branches. The stream predictor maps a stream's *start address*
//! (plus path information) to the stream's **length** and the **target** of
//! the taken branch that ends it, so a single prediction describes several
//! basic blocks and no separate direction predictor is needed: the ending
//! branch is taken by definition.
//!
//! This implementation is the paper's cascaded organization (Table 3):
//! a 1K-entry, 4-way first-level table indexed by start address, and a
//! 4K-entry, 4-way second-level table indexed by a **DOLC** path hash
//! (Depth-Older-Last-Current = 16-2-4-10). The second level is allocated
//! only when the first level mispredicts, and wins on a hit.

use smt_isa::{Addr, BranchKind};

use crate::assoc::SetAssoc;
use crate::counters::TwoBit;

/// DOLC path-hash parameters: how many older stream starts participate and
/// how many bits each contributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dolc {
    /// Number of older stream starts hashed (the paper uses 16).
    pub depth: u32,
    /// Bits taken from each older start (2).
    pub older_bits: u32,
    /// Bits taken from the most recent start (4).
    pub last_bits: u32,
    /// Bits taken from the current start (10).
    pub current_bits: u32,
}

impl Dolc {
    /// The paper's `16-2-4-10` configuration.
    pub const HPCA2004: Dolc = Dolc {
        depth: 16,
        older_bits: 2,
        last_bits: 4,
        current_bits: 10,
    };
}

/// Maximum path depth storable in a [`StreamPath`].
const MAX_DEPTH: usize = 16;

/// Per-thread path register: the last `MAX_DEPTH` stream start addresses.
///
/// `Copy`, so front-ends checkpoint it per prediction and restore it on a
/// squash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamPath {
    ring: [u32; MAX_DEPTH],
    pos: u8,
}

impl StreamPath {
    /// An empty path.
    pub fn new() -> Self {
        StreamPath {
            ring: [0; MAX_DEPTH],
            pos: 0,
        }
    }

    /// Records the start of a (speculatively) emitted stream.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "MAX_DEPTH = 16 fits u8; deliberate 32-bit path compression"
    )]
    pub fn push(&mut self, start: Addr) {
        self.pos = (self.pos + 1) % MAX_DEPTH as u8;
        self.ring[self.pos as usize] = (start.raw() >> 2) as u32;
    }

    /// The `i`-th most recent start (0 = most recent), as compressed bits.
    fn recent(&self, i: usize) -> u32 {
        let idx = (self.pos as usize + MAX_DEPTH - (i % MAX_DEPTH)) % MAX_DEPTH;
        self.ring[idx]
    }

    /// DOLC hash of this path combined with the `current` stream start.
    pub fn dolc_hash(&self, current: Addr, dolc: Dolc) -> u64 {
        let mask = |bits: u32| -> u64 {
            if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        };
        let mut h = (current.raw() >> 2) & mask(dolc.current_bits);
        let mut shift = dolc.current_bits;
        h ^= (self.recent(0) as u64 & mask(dolc.last_bits)) << (shift % 54);
        shift += dolc.last_bits;
        #[expect(clippy::cast_possible_truncation, reason = "MAX_DEPTH = 16 fits u32")]
        let depth = dolc.depth.min(MAX_DEPTH as u32);
        for i in 1..depth {
            h ^= (self.recent(i as usize) as u64 & mask(dolc.older_bits)) << (shift % 54);
            shift += dolc.older_bits;
        }
        h
    }
}

impl Default for StreamPath {
    fn default() -> Self {
        StreamPath::new()
    }
}

/// The taken branch ending a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamEnd {
    /// Branch flavour (returns take their target from the RAS instead).
    pub kind: BranchKind,
    /// Predicted target — the next stream's start.
    pub target: Addr,
}

/// A stream-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StreamEntry {
    /// Stream length in instructions, including the ending branch.
    len: u32,
    /// Ending branch (`None` for a length-capped sequential chunk).
    end: Option<StreamEnd>,
    /// Replacement hysteresis.
    hyst: TwoBit,
}

/// The prediction a stream-table hit yields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamPrediction {
    /// Stream length in instructions.
    pub len: u32,
    /// Ending branch (`None`: sequential chunk, fall through).
    pub end: Option<StreamEnd>,
    /// Whether the (path-correlated) second-level table provided it.
    pub from_l2: bool,
}

/// A completed stream, for training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedStream {
    /// Length in instructions, including the ending taken branch.
    pub len: u32,
    /// Flavour of the ending branch.
    pub kind: BranchKind,
    /// Actual target of the ending branch.
    pub target: Addr,
}

/// Cascaded stream predictor.
#[derive(Clone, Debug)]
pub struct StreamPredictor {
    l1: SetAssoc<StreamEntry>,
    l2: SetAssoc<StreamEntry>,
    l1_set_bits: u32,
    l2_set_bits: u32,
    dolc: Dolc,
    max_stream: u32,
    l2_allocs: u64,
}

impl StreamPredictor {
    /// Table 3's first-level entries (1K).
    pub const HPCA2004_L1_ENTRIES: usize = 1024;
    /// Table 3's second-level entries (4K).
    pub const HPCA2004_L2_ENTRIES: usize = 4096;
    /// Table 3's associativity, both levels (4).
    pub const HPCA2004_WAYS: usize = 4;
    /// Table 3's stream length cap (64 instructions).
    pub const HPCA2004_MAX_STREAM: u32 = 64;

    /// Creates a cascaded stream predictor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SetAssoc::new`], or if
    /// `max_stream` is zero.
    pub fn new(
        l1_entries: usize,
        l2_entries: usize,
        ways: usize,
        dolc: Dolc,
        max_stream: u32,
    ) -> Self {
        assert!(max_stream > 0, "maximum stream length must be positive");
        let l1 = SetAssoc::new(l1_entries, ways);
        let l2 = SetAssoc::new(l2_entries, ways);
        let l1_set_bits = l1.num_sets().trailing_zeros();
        let l2_set_bits = l2.num_sets().trailing_zeros();
        StreamPredictor {
            l1,
            l2,
            l1_set_bits,
            l2_set_bits,
            dolc,
            max_stream,
            l2_allocs: 0,
        }
    }

    /// The paper's 1K-entry + 4K-entry, both 4-way, DOLC 16-2-4-10
    /// predictor with streams capped at `max_stream` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `max_stream` is zero.
    pub fn hpca2004_with_cap(max_stream: u32) -> Self {
        StreamPredictor::new(
            StreamPredictor::HPCA2004_L1_ENTRIES,
            StreamPredictor::HPCA2004_L2_ENTRIES,
            StreamPredictor::HPCA2004_WAYS,
            Dolc::HPCA2004,
            max_stream,
        )
    }

    /// The paper's configuration, with streams capped at 64 instructions.
    pub fn hpca2004() -> Self {
        StreamPredictor::hpca2004_with_cap(StreamPredictor::HPCA2004_MAX_STREAM)
    }

    /// Maximum stream length in instructions.
    pub fn max_stream(&self) -> u32 {
        self.max_stream
    }

    fn l1_set_tag(&self, start: Addr) -> (u64, u64) {
        let word = start.raw() >> 2;
        (word & self.l1.set_mask(), word >> self.l1_set_bits)
    }

    fn l2_set_tag(&self, start: Addr, path: &StreamPath) -> (u64, u64) {
        let h = path.dolc_hash(start, self.dolc);
        // Mix the full start in the tag so distinct streams sharing a DOLC
        // hash rarely alias.
        let tag = (h >> self.l2_set_bits) ^ ((start.raw() >> 2) << 7);
        (h & self.l2.set_mask(), tag)
    }

    /// Predicts the stream starting at `start` under path `path`.
    ///
    /// The path-correlated second level overrides the first on a hit.
    pub fn predict(&mut self, start: Addr, path: &StreamPath) -> Option<StreamPrediction> {
        let (s2, t2) = self.l2_set_tag(start, path);
        if let Some(e) = self.l2.lookup(s2, t2) {
            // A freshly-allocated (unconfirmed) second-level entry does not
            // override the first level until one confirming re-observation.
            if e.hyst.taken() {
                return Some(StreamPrediction {
                    len: e.len,
                    end: e.end,
                    from_l2: true,
                });
            }
        }
        let (s1, t1) = self.l1_set_tag(start);
        self.l1.lookup(s1, t1).map(|e| StreamPrediction {
            len: e.len,
            end: e.end,
            from_l2: false,
        })
    }

    /// Trains both levels with a completed stream.
    ///
    /// `path` must be the path register value *at prediction time*
    /// (checkpointed by the front-end). The second level is allocated only
    /// when the first level existed and mispredicted — the cascade filter.
    pub fn train(&mut self, start: Addr, path: &StreamPath, observed: ObservedStream) {
        let entry = if observed.len > self.max_stream {
            StreamEntry {
                len: self.max_stream,
                end: None,
                hyst: TwoBit::WEAK_T,
            }
        } else {
            StreamEntry {
                len: observed.len,
                end: Some(StreamEnd {
                    kind: observed.kind,
                    target: observed.target,
                }),
                hyst: TwoBit::WEAK_T,
            }
        };
        let matches = |e: &StreamEntry| {
            e.len == entry.len && e.end.map(|x| x.target) == entry.end.map(|x| x.target)
        };

        // Second level: train on hit.
        let (s2, t2) = self.l2_set_tag(start, path);
        if let Some(e) = self.l2.lookup(s2, t2) {
            if matches(e) {
                e.hyst.update(true);
                if let (Some(end), Some(obs)) = (&mut e.end, entry.end) {
                    end.kind = obs.kind;
                }
            } else if e.hyst.taken() {
                e.hyst.update(false);
            } else {
                *e = StreamEntry {
                    hyst: TwoBit::WEAK_NT,
                    ..entry
                };
            }
        }

        // First level: train; a mispredicting or hysteresis-protected entry
        // triggers a second-level allocation.
        let (s1, t1) = self.l1_set_tag(start);
        match self.l1.lookup(s1, t1) {
            Some(e) if matches(e) => {
                e.hyst.update(true);
                if let (Some(end), Some(obs)) = (&mut e.end, entry.end) {
                    end.kind = obs.kind;
                }
            }
            Some(e) => {
                // L1 disagrees: this start may have path-dependent behaviour.
                // Allocate an *unconfirmed* second-level entry (it becomes
                // predictive only if the same path sees the same stream
                // again), and weaken / eventually replace the first level.
                if self.l2.peek(s2, t2).is_none() {
                    self.l2.insert(
                        s2,
                        t2,
                        StreamEntry {
                            hyst: TwoBit::WEAK_NT,
                            ..entry
                        },
                    );
                    self.l2_allocs += 1;
                }
                if e.hyst.taken() {
                    e.hyst.update(false);
                } else {
                    *e = entry;
                }
            }
            None => {
                self.l1.insert(s1, t1, entry);
            }
        }
    }

    /// `((l1 lookups, l1 hits), (l2 lookups, l2 hits), l2 allocations)`.
    pub fn stats(&self) -> ((u64, u64), (u64, u64), u64) {
        (self.l1.stats(), self.l2.stats(), self.l2_allocs)
    }

    /// Approximate hardware budget in bytes (≈ 13 B per entry).
    pub fn budget_bytes(&self) -> usize {
        (self.l1.num_sets() * self.l1.ways() + self.l2.num_sets() * self.l2.ways()) * 13
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(len: u32, target: u64) -> ObservedStream {
        ObservedStream {
            len,
            kind: BranchKind::Cond,
            target: Addr::new(target),
        }
    }

    #[test]
    fn learns_a_stable_stream() {
        let mut sp = StreamPredictor::new(64, 256, 4, Dolc::HPCA2004, 64);
        let start = Addr::new(0x1000);
        let path = StreamPath::new();
        assert!(sp.predict(start, &path).is_none());
        sp.train(start, &path, obs(12, 0x2000));
        let p = sp.predict(start, &path).unwrap();
        assert_eq!(p.len, 12);
        assert_eq!(p.end.unwrap().target, Addr::new(0x2000));
        assert!(!p.from_l2);
    }

    #[test]
    fn long_streams_are_capped() {
        let mut sp = StreamPredictor::new(64, 256, 4, Dolc::HPCA2004, 64);
        let start = Addr::new(0x1000);
        let path = StreamPath::new();
        sp.train(start, &path, obs(200, 0x2000));
        let p = sp.predict(start, &path).unwrap();
        assert_eq!(p.len, 64);
        assert!(p.end.is_none());
    }

    #[test]
    fn path_correlated_streams_move_to_l2() {
        let mut sp = StreamPredictor::new(64, 256, 4, Dolc::HPCA2004, 64);
        let start = Addr::new(0x1000);
        let mut path_a = StreamPath::new();
        path_a.push(Addr::new(0x5014));
        let mut path_b = StreamPath::new();
        path_b.push(Addr::new(0x9a2c));

        // The same start behaves differently depending on the path.
        for _ in 0..6 {
            sp.train(start, &path_a, obs(8, 0x2000));
            sp.train(start, &path_b, obs(20, 0x3000));
        }
        let pa = sp.predict(start, &path_a).unwrap();
        let pb = sp.predict(start, &path_b).unwrap();
        assert!(pa.from_l2 || pb.from_l2, "cascade never engaged");
        // At least one of the two paths must be predicted exactly right;
        // with L2 engaged both should be.
        if pa.from_l2 {
            assert_eq!(pa.len, 8);
            assert_eq!(pa.end.unwrap().target, Addr::new(0x2000));
        }
        if pb.from_l2 {
            assert_eq!(pb.len, 20);
            assert_eq!(pb.end.unwrap().target, Addr::new(0x3000));
        }
    }

    #[test]
    fn hysteresis_resists_one_off_noise() {
        let mut sp = StreamPredictor::new(64, 256, 4, Dolc::HPCA2004, 64);
        let start = Addr::new(0x1000);
        let path = StreamPath::new();
        sp.train(start, &path, obs(12, 0x2000));
        sp.train(start, &path, obs(12, 0x2000));
        sp.train(start, &path, obs(5, 0x7000)); // one-off deviation
        let p = sp.predict(start, &path).unwrap();
        assert_eq!(p.len, 12, "hysteresis should keep the stable stream");
        sp.train(start, &path, obs(5, 0x7000));
        sp.train(start, &path, obs(5, 0x7000));
        let p = sp.predict(start, &path).unwrap();
        assert_eq!(p.len, 5, "persistent change should eventually replace");
    }

    #[test]
    fn path_register_is_checkpointable_by_copy() {
        let mut path = StreamPath::new();
        path.push(Addr::new(0x104));
        let ckpt = path;
        path.push(Addr::new(0x20c));
        assert_ne!(
            path.dolc_hash(Addr::new(0x1000), Dolc::HPCA2004),
            ckpt.dolc_hash(Addr::new(0x1000), Dolc::HPCA2004)
        );
        path = ckpt;
        assert_eq!(path, ckpt);
    }

    #[test]
    fn dolc_hash_depends_on_current_last_and_older() {
        let dolc = Dolc::HPCA2004;
        let mut p1 = StreamPath::new();
        let mut p2 = StreamPath::new();
        for i in 0..10u64 {
            p1.push(Addr::new(0x1000 + i * 68));
            p2.push(Addr::new(0x1000 + i * 68));
        }
        assert_eq!(
            p1.dolc_hash(Addr::new(0x4000), dolc),
            p2.dolc_hash(Addr::new(0x4000), dolc)
        );
        // Different current.
        assert_ne!(
            p1.dolc_hash(Addr::new(0x4000), dolc),
            p1.dolc_hash(Addr::new(0x4004), dolc)
        );
        // Different last element (low bits differ, as real stream starts do).
        p2.push(Addr::new(0xbeef_0014));
        assert_ne!(
            p1.dolc_hash(Addr::new(0x4000), dolc),
            p2.dolc_hash(Addr::new(0x4000), dolc)
        );
    }

    #[test]
    fn hpca_configuration() {
        let sp = StreamPredictor::hpca2004();
        assert_eq!(sp.max_stream(), 64);
        let ((l1_lookups, _), (l2_lookups, _), allocs) = sp.stats();
        assert_eq!((l1_lookups, l2_lookups, allocs), (0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "stream length must be positive")]
    fn zero_stream_cap_rejected() {
        let _ = StreamPredictor::hpca2004_with_cap(0);
    }
}
