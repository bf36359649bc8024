//! The gskew conditional-branch direction predictor
//! (Michaud, Seznec & Uhlig, ISCA 1997).

use smt_isa::Addr;

use crate::counters::{CounterTable, TwoBit};
use crate::history::GlobalHistory;

/// Number of banks in the skewed predictor.
const BANKS: usize = 3;

/// Per-bank index-decorrelation salts. The original design uses skewing
/// functions built from GF(2) shuffles of `(pc, history)`; we use three
/// independent avalanche-quality hashes, which have the same statistical
/// property the scheme relies on — two branches that conflict in one bank
/// almost never conflict in the others.
const SALTS: [u64; BANKS] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];

/// gskew: three counter banks read through decorrelated hashes of
/// `(pc, history)`; the prediction is a 2-of-3 majority vote, so a conflict
/// alias in any single bank is outvoted.
///
/// Update policy (Michaud et al.'s *partial update*):
/// * on a correct prediction, only the banks that agreed with the final
///   (majority) prediction are strengthened;
/// * on a misprediction, all banks are trained toward the actual outcome.
///
/// The paper pairs a 3 × 32K-entry gskew with 15 bits of history and the FTB
/// (Table 3), which [`Gskew::hpca2004`] reproduces. Each bank is a
/// bit-packed [`CounterTable`] (32 counters per `u64`), so the three
/// hpca2004 banks together occupy 24 KB of host memory rather than 96 KB.
#[derive(Clone, Debug)]
pub struct Gskew {
    banks: [CounterTable; BANKS],
    predictions: u64,
    correct: u64,
}

/// One batched read of all three gskew banks for a single `(pc, history)`
/// lookup: the three decorrelated indices and the three counters they
/// addressed, captured together by [`Gskew::probe`].
///
/// A probe is valid for [`Gskew::predict_with`] and [`Gskew::update_with`]
/// only while no bank has been written since it was taken; within one
/// front-end block prediction or one branch training that always holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GskewProbe {
    indices: [u64; BANKS],
    counters: [TwoBit; BANKS],
}

impl GskewProbe {
    /// The three banks' individual votes.
    pub fn votes(&self) -> [bool; BANKS] {
        [
            self.counters[0].taken(),
            self.counters[1].taken(),
            self.counters[2].taken(),
        ]
    }

    /// The 2-of-3 majority direction.
    pub fn taken(&self) -> bool {
        let v = self.votes();
        (u8::from(v[0]) + u8::from(v[1]) + u8::from(v[2])) >= 2
    }
}

impl Gskew {
    /// Table 3's bank size: 32K counters per bank (15 index bits).
    pub const HPCA2004_ENTRIES_PER_BANK: usize = 32 * 1024;

    /// Creates a gskew predictor with `entries_per_bank` counters per bank.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_bank` is not a power of two.
    pub fn new(entries_per_bank: usize) -> Self {
        Gskew {
            banks: std::array::from_fn(|_| CounterTable::new(entries_per_bank)),
            predictions: 0,
            correct: 0,
        }
    }

    /// The paper's configuration: 3 banks of 32K entries, 15-bit history.
    pub fn hpca2004() -> Self {
        Gskew::new(Gskew::HPCA2004_ENTRIES_PER_BANK)
    }

    #[expect(clippy::cast_possible_truncation, reason = "bank < BANKS = 3")]
    fn index(&self, bank: usize, pc: Addr, history: GlobalHistory) -> u64 {
        let x = (pc.raw() >> 2) ^ (history.bits() << 17) ^ SALTS[bank];
        // splitmix64 finalizer for avalanche.
        let mut z = x.wrapping_add(SALTS[bank].rotate_left(bank as u32 * 21));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// All three decorrelated bank indices for `(pc, history)`, computed
    /// together so the shared `(pc, history)` mix is staged once.
    fn indices(&self, pc: Addr, history: GlobalHistory) -> [u64; BANKS] {
        [
            self.index(0, pc, history),
            self.index(1, pc, history),
            self.index(2, pc, history),
        ]
    }

    /// Issues the batched three-bank read for one `(pc, history)` lookup.
    ///
    /// The three decorrelated indices are computed together and the three
    /// packed-word reads issue together; the returned probe carries both, so
    /// a predicted block's direction lookup and its later training each cost
    /// exactly one probe instead of interleaved per-bank index/read pairs.
    pub fn probe(&self, pc: Addr, history: GlobalHistory) -> GskewProbe {
        let indices = self.indices(pc, history);
        let counters = [
            self.banks[0].get(indices[0]),
            self.banks[1].get(indices[1]),
            self.banks[2].get(indices[2]),
        ];
        GskewProbe { indices, counters }
    }

    /// The three banks' individual votes for `(pc, history)`.
    pub fn votes(&self, pc: Addr, history: GlobalHistory) -> [bool; BANKS] {
        self.probe(pc, history).votes()
    }

    /// Records and returns the majority prediction carried by `probe`.
    pub fn predict_with(&mut self, probe: &GskewProbe) -> bool {
        self.predictions += 1;
        probe.taken()
    }

    /// Predicts the direction of the conditional branch at `pc` by majority
    /// vote.
    pub fn predict(&mut self, pc: Addr, history: GlobalHistory) -> bool {
        let probe = self.probe(pc, history);
        self.predict_with(&probe)
    }

    /// Trains the predictor from a probe taken against the current table
    /// state (partial update).
    ///
    /// The probe's registered counter values stand in for re-reads: each
    /// trained bank is written back with [`CounterTable::set`], so training
    /// costs the one batched read in [`Gskew::probe`] plus at most three
    /// word writes. The probe must not be stale — no bank may have been
    /// written between the probe and this call.
    pub fn update_with(&mut self, probe: &GskewProbe, taken: bool) {
        let votes = probe.votes();
        let majority = probe.taken();
        let trained = |c: TwoBit| {
            let mut c = c;
            c.update(taken);
            c
        };
        if majority == taken {
            self.correct += 1;
            // Partial update: strengthen only the agreeing banks.
            for (b, &vote) in votes.iter().enumerate() {
                if vote == majority {
                    self.banks[b].set(probe.indices[b], trained(probe.counters[b]));
                }
            }
        } else {
            // Misprediction: retrain all banks.
            for b in 0..BANKS {
                self.banks[b].set(probe.indices[b], trained(probe.counters[b]));
            }
        }
    }

    /// Trains the predictor with a resolved branch (partial update).
    ///
    /// `history` must be the checkpointed prediction-time history.
    pub fn update(&mut self, pc: Addr, history: GlobalHistory, taken: bool) {
        let probe = self.probe(pc, history);
        self.update_with(&probe, taken);
    }

    /// `(predictions, correct-at-update)` counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.correct)
    }

    /// Total number of 2-bit counters across banks.
    pub fn entries(&self) -> usize {
        self.banks.iter().map(|b| b.len()).sum()
    }

    /// Hardware budget in bytes (2 bits per entry).
    pub fn budget_bytes(&self) -> usize {
        self.entries() / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branches() {
        let mut g = Gskew::new(1024);
        let pc = Addr::new(0x8000);
        let h = GlobalHistory::new(15);
        for _ in 0..10 {
            g.update(pc, h, false);
        }
        assert!(!g.predict(pc, h));
    }

    #[test]
    fn majority_vote_outvotes_a_poisoned_bank() {
        let mut g = Gskew::new(1 << 12);
        let h = GlobalHistory::new(15);
        let victim = Addr::new(0x4000);
        // Train the victim taken.
        for _ in 0..4 {
            g.update(victim, h, true);
        }
        assert!(g.predict(victim, h));
        // Poison bank 0's counter for the victim by hammering an alias that
        // shares bank 0's index (construct by brute force).
        let idx0 = g.index(0, victim, h) & g.banks[0].mask();
        let mut alias = None;
        for raw in (0u64..4_000_000).map(|i| 0x10_0000 + i * 4) {
            let a = Addr::new(raw);
            if a == victim {
                continue;
            }
            let same0 = (g.index(0, a, h) & g.banks[0].mask()) == idx0;
            let diff1 = (g.index(1, a, h) & g.banks[1].mask())
                != (g.index(1, victim, h) & g.banks[1].mask());
            let diff2 = (g.index(2, a, h) & g.banks[2].mask())
                != (g.index(2, victim, h) & g.banks[2].mask());
            if same0 && diff1 && diff2 {
                alias = Some(a);
                break;
            }
        }
        let alias = alias.expect("no single-bank alias found");
        for _ in 0..8 {
            g.update(alias, h, false);
        }
        // The alias weakened the shared bank-0 counter (aliasing happened),
        // but partial update stopped hammering it once the alias's other
        // banks learned not-taken, and the majority still predicts taken.
        let idx0_full = g.index(0, victim, h);
        assert!(
            g.banks[0].get(idx0_full).state() < 3,
            "alias never touched the shared counter"
        );
        assert!(
            g.predict(victim, h),
            "majority vote failed to outvote alias"
        );
        // The victim's own banks 1 and 2 are untouched.
        let votes = g.votes(victim, h);
        assert!(votes[1] && votes[2]);
    }

    #[test]
    fn partial_update_leaves_disagreeing_bank_for_its_own_branch() {
        let mut g = Gskew::new(1024);
        let pc = Addr::new(0xc000);
        let h = GlobalHistory::new(15);
        // All banks default to weak-taken; a taken outcome with the partial
        // policy strengthens all three (all agree with majority).
        g.update(pc, h, true);
        assert_eq!(g.votes(pc, h), [true, true, true]);
        // A not-taken outcome is a misprediction: all banks weaken.
        g.update(pc, h, false);
        g.update(pc, h, false);
        g.update(pc, h, false);
        assert!(!g.predict(pc, h));
    }

    #[test]
    fn batched_probe_matches_scalar_path() {
        // Driving one predictor through the probe API and a twin through the
        // scalar predict/update calls must keep them bit-identical: the
        // probe is a batching of the same reads, not a different predictor.
        let mut a = Gskew::new(1024);
        let mut b = Gskew::new(1024);
        let h = GlobalHistory::new(15);
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..2000u64 {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pc = Addr::new(((s >> 16) & 0xffff) * 4);
            let taken = s & 1 == 0;
            let p = a.probe(pc, h);
            let pa = a.predict_with(&p);
            // predict_with never writes a bank, so the probe is still fresh.
            a.update_with(&p, taken);
            let pb = b.predict(pc, h);
            b.update(pc, h, taken);
            assert_eq!(pa, pb, "prediction diverged at step {i}");
            assert_eq!(a.stats(), b.stats(), "stats diverged at step {i}");
        }
        assert_eq!(a.votes(Addr::new(0x40), h), b.votes(Addr::new(0x40), h));
    }

    #[test]
    fn hpca_configuration_sizes() {
        let g = Gskew::hpca2004();
        assert_eq!(g.entries(), 3 * 32 * 1024);
        assert_eq!(g.budget_bytes(), 24 * 1024);
    }

    #[test]
    fn indices_are_decorrelated_across_banks() {
        let g = Gskew::new(1 << 15);
        let h = GlobalHistory::new(15);
        let mask = g.banks[0].mask();
        let mut collisions = [0u32; 3];
        let base = Addr::new(0x40_0000);
        let others: Vec<Addr> = (1..2000u64).map(|i| Addr::new(0x40_0000 + i * 4)).collect();
        for &a in &others {
            for (b, slot) in collisions.iter_mut().enumerate() {
                if (g.index(b, a, h) & mask) == (g.index(b, base, h) & mask) {
                    *slot += 1;
                }
            }
        }
        // With 32K entries and 2000 probes, expected collisions per bank is
        // well under 1; allow a little slack.
        for (b, &c) in collisions.iter().enumerate() {
            assert!(c <= 2, "bank {b} had {c} collisions");
        }
    }
}
