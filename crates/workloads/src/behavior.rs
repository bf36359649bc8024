//! Deterministic per-instruction behaviour generators.
//!
//! Every dynamic outcome in a synthetic benchmark — a conditional branch's
//! direction, an indirect jump's target, a load's effective address — is a
//! *pure function* of `(static instruction, occurrence index)`. This gives
//! the two properties the reproduction needs:
//!
//! 1. **Determinism**: identical seeds produce identical dynamic streams, so
//!    experiments are exactly reproducible and predictor state is meaningful.
//! 2. **Learnability**: generators are chosen so that predictors can learn
//!    them to a *calibrated* degree — loop branches and short patterns are
//!    perfectly history-predictable, biased branches are predictable only to
//!    their bias, uniformly random addresses defeat caches beyond the
//!    working-set size.

use smt_isa::Addr;

/// Fast, high-quality 64-bit mixing function (splitmix64 finalizer).
///
/// Used to derive per-occurrence pseudo-random values from a salt and an
/// occurrence counter without any mutable RNG state.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Direction behaviour of a static conditional branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum BranchBehavior {
    /// Loop back-edge: taken `period - 1` consecutive times, then not taken
    /// once. Perfectly predictable by a history predictor whose history
    /// covers the period; near-perfect (1/period miss rate) for bimodal.
    Loop {
        /// Loop trip count (≥ 2); the branch is taken `period - 1` of every
        /// `period` executions.
        period: u32,
    },
    /// Repeating direction pattern of up to 64 bits. Perfectly predictable
    /// by global/history predictors when `len` fits the history register.
    Pattern {
        /// Bit `i % len` of `bits` gives the direction of occurrence `i`
        /// (1 = taken).
        bits: u64,
        /// Pattern length in bits (1 ..= 64).
        len: u32,
    },
    /// Bernoulli branch: taken with probability `p_taken_milli / 1000`,
    /// decided by hashing the occurrence index at `run`-occurrence
    /// granularity.
    ///
    /// With `run = 1` every occurrence is independent noise — the genuinely
    /// hard branches that set the predictor-accuracy ceiling. With larger
    /// `run` the branch holds its direction for runs of executions, the
    /// *phase-like* behaviour of real biased branches (guard tests, error
    /// checks), which history predictors exploit.
    Biased {
        /// Taken probability in thousandths (0 ..= 1000).
        p_taken_milli: u32,
        /// Per-branch hash salt.
        salt: u64,
        /// Direction run length in occurrences (≥ 1).
        run: u32,
    },
    /// History-correlated branch: the direction is a fixed pseudo-random
    /// function of the last `depth` *conditional-branch outcomes* on the
    /// executing thread's architectural path (marginally taken with
    /// probability `p_taken_milli / 1000`).
    ///
    /// This is the behaviour real global-history predictors earn their keep
    /// on — a branch whose outcome correlates with nearby branches. gshare
    /// and gskew learn it exactly (their index contains the function's
    /// input); a bimodal predictor only sees the marginal bias.
    Correlated {
        /// Marginal taken probability in thousandths.
        p_taken_milli: u32,
        /// Correlation depth in history bits (1 ..= 16).
        depth: u32,
        /// Per-branch hash salt.
        salt: u64,
    },
}

impl BranchBehavior {
    /// Direction of the `n`-th dynamic execution of this branch, given the
    /// executing thread's architectural conditional-outcome history
    /// (`path_hist`, most recent outcome in bit 0).
    ///
    /// Only [`BranchBehavior::Correlated`] consults the history; the other
    /// behaviours are pure functions of `n`.
    pub(crate) fn taken(&self, n: u64, path_hist: u64) -> bool {
        match *self {
            BranchBehavior::Loop { period } => (n % period as u64) != (period as u64 - 1),
            BranchBehavior::Pattern { bits, len } => (bits >> (n % len as u64)) & 1 == 1,
            BranchBehavior::Biased {
                p_taken_milli,
                salt,
                run,
            } => (mix64(salt ^ (n / run.max(1) as u64)) % 1000) < p_taken_milli as u64,
            BranchBehavior::Correlated {
                p_taken_milli,
                depth,
                salt,
            } => {
                let mask = if depth >= 64 {
                    u64::MAX
                } else {
                    (1u64 << depth) - 1
                };
                (mix64(salt ^ (path_hist & mask)) % 1000) < p_taken_milli as u64
            }
        }
    }
}

/// Target behaviour of a static indirect jump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct IndirectBehavior {
    /// Candidate targets (switch arms, virtual-call receivers).
    pub targets: Vec<Addr>,
    /// Hash salt selecting among targets per occurrence.
    pub salt: u64,
    /// If non-zero, occurrence `n` reuses the target of occurrence `n-1`
    /// with probability `sticky_milli / 1000` (temporal locality that a BTB
    /// can exploit). Stickiness is emulated by hashing `n / run_len`.
    pub sticky_run: u32,
}

impl IndirectBehavior {
    /// Target of the `n`-th dynamic execution.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    #[expect(clippy::cast_possible_truncation, reason = "idx < targets.len()")]
    pub(crate) fn target(&self, n: u64) -> Addr {
        assert!(!self.targets.is_empty(), "indirect branch with no targets");
        let idx = if self.sticky_run > 1 {
            mix64(self.salt ^ (n / self.sticky_run as u64)) % self.targets.len() as u64
        } else {
            mix64(self.salt ^ n) % self.targets.len() as u64
        };
        self.targets[idx as usize]
    }
}

/// Effective-address behaviour of a static load or store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum MemBehavior {
    /// Sequential/strided access over a small region — the cache-friendly
    /// pattern of ILP benchmarks.
    Stride {
        /// Region base address.
        base: Addr,
        /// Stride in bytes between consecutive occurrences.
        stride: u32,
        /// Number of accesses before wrapping to `base`.
        period: u32,
    },
    /// Pseudo-random access uniformly over a working set. Working sets larger
    /// than a cache level defeat that level.
    Region {
        /// Region base address.
        base: Addr,
        /// Working-set size in bytes.
        size: u64,
        /// Per-instruction hash salt.
        salt: u64,
    },
    /// Pointer-chase access: pseudo-random over a (typically huge) working
    /// set, and flagged so the program builder serializes consecutive links
    /// through a register dependence — the latency-bound pattern of
    /// mcf/twolf-like benchmarks.
    Chase {
        /// Region base address.
        base: Addr,
        /// Working-set size in bytes.
        size: u64,
        /// Per-instruction hash salt.
        salt: u64,
    },
}

/// Data accesses are aligned to this many bytes.
pub(crate) const ACCESS_ALIGN: u64 = 8;

impl MemBehavior {
    /// Effective address of the `n`-th dynamic execution.
    pub(crate) fn address(&self, n: u64) -> Addr {
        match *self {
            MemBehavior::Stride {
                base,
                stride,
                period,
            } => base + (n % period.max(1) as u64) * stride as u64,
            MemBehavior::Region { base, size, salt } | MemBehavior::Chase { base, size, salt } => {
                let slots = (size / ACCESS_ALIGN).max(1);
                base + (mix64(salt ^ n) % slots) * ACCESS_ALIGN
            }
        }
    }

    /// Whether this is a pointer-chase access (serialized by construction).
    pub(crate) fn is_chase(&self) -> bool {
        matches!(self, MemBehavior::Chase { .. })
    }
}

/// Per-static-instruction behaviour, stored alongside the instruction table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Behavior {
    /// No dynamic behaviour (plain ALU instruction, direct jump/call/return).
    None,
    /// Conditional-branch direction generator.
    Branch(BranchBehavior),
    /// Indirect-jump target generator.
    Indirect(IndirectBehavior),
    /// Load/store address generator.
    Mem(MemBehavior),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_behavior_taken_period_minus_one_times() {
        let b = BranchBehavior::Loop { period: 4 };
        let dirs: Vec<bool> = (0..8).map(|n| b.taken(n, 0)).collect();
        assert_eq!(dirs, [true, true, true, false, true, true, true, false]);
    }

    #[test]
    fn pattern_behavior_repeats() {
        let b = BranchBehavior::Pattern {
            bits: 0b0110,
            len: 4,
        };
        let dirs: Vec<bool> = (0..8).map(|n| b.taken(n, 0)).collect();
        assert_eq!(dirs, [false, true, true, false, false, true, true, false]);
    }

    #[test]
    fn biased_behavior_matches_bias_in_the_long_run() {
        let b = BranchBehavior::Biased {
            p_taken_milli: 800,
            salt: 0xdead_beef,
            run: 1,
        };
        let taken = (0..100_000).filter(|&n| b.taken(n, 0)).count();
        let rate = taken as f64 / 100_000.0;
        assert!((rate - 0.8).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn biased_behavior_is_deterministic() {
        let b = BranchBehavior::Biased {
            p_taken_milli: 500,
            salt: 7,
            run: 1,
        };
        let a: Vec<bool> = (0..64).map(|n| b.taken(n, 0)).collect();
        let c: Vec<bool> = (0..64).map(|n| b.taken(n, 0)).collect();
        assert_eq!(a, c);
    }

    #[test]
    fn indirect_targets_cycle_within_set() {
        let t = IndirectBehavior {
            targets: vec![Addr::new(0x100), Addr::new(0x200), Addr::new(0x300)],
            salt: 3,
            sticky_run: 1,
        };
        for n in 0..100 {
            let tgt = t.target(n);
            assert!(t.targets.contains(&tgt));
        }
    }

    #[test]
    fn indirect_sticky_runs_repeat_targets() {
        let t = IndirectBehavior {
            targets: vec![Addr::new(0x100), Addr::new(0x200), Addr::new(0x300)],
            salt: 9,
            sticky_run: 8,
        };
        // Within one run of 8 occurrences the target is constant.
        for run in 0..16u64 {
            let first = t.target(run * 8);
            for i in 1..8 {
                assert_eq!(t.target(run * 8 + i), first);
            }
        }
    }

    #[test]
    fn stride_addresses_wrap() {
        let m = MemBehavior::Stride {
            base: Addr::new(0x1_0000),
            stride: 8,
            period: 4,
        };
        assert_eq!(m.address(0), Addr::new(0x1_0000));
        assert_eq!(m.address(1), Addr::new(0x1_0008));
        assert_eq!(m.address(4), Addr::new(0x1_0000));
        assert!(!m.is_chase());
    }

    #[test]
    fn region_addresses_stay_in_region_and_are_aligned() {
        let m = MemBehavior::Region {
            base: Addr::new(0x10_0000),
            size: 4096,
            salt: 11,
        };
        for n in 0..10_000 {
            let a = m.address(n);
            assert!(a >= Addr::new(0x10_0000));
            assert!(a < Addr::new(0x10_1000));
            assert_eq!(a.raw() % ACCESS_ALIGN, 0);
        }
    }

    #[test]
    fn region_addresses_cover_working_set() {
        let m = MemBehavior::Region {
            base: Addr::new(0),
            size: 1024,
            salt: 5,
        };
        let distinct: std::collections::BTreeSet<u64> =
            (0..10_000).map(|n| m.address(n).raw()).collect();
        // 128 slots of 8 bytes; nearly all should be touched.
        assert!(
            distinct.len() > 120,
            "only {} distinct slots",
            distinct.len()
        );
    }

    #[test]
    fn correlated_branch_is_a_function_of_history() {
        let b = BranchBehavior::Correlated {
            p_taken_milli: 400,
            depth: 6,
            salt: 99,
        };
        // Same history, same occurrence → same outcome; the occurrence
        // index is irrelevant.
        for hist in 0..64u64 {
            let x = b.taken(0, hist);
            assert_eq!(b.taken(17, hist), x);
            // Bits beyond the depth are masked off.
            assert_eq!(b.taken(0, hist | (1 << 20)), x);
        }
        // Marginal rate tracks the bias over random histories. With depth 6
        // there are only 64 distinct history inputs, so allow for the
        // small-sample deviation of 64 Bernoulli draws.
        let taken = (0..100_000u64).filter(|&h| b.taken(0, mix64(h))).count();
        let rate = taken as f64 / 100_000.0;
        assert!((rate - 0.4).abs() < 0.15, "marginal rate {rate}");
    }

    #[test]
    fn chase_is_flagged() {
        let m = MemBehavior::Chase {
            base: Addr::new(0),
            size: 1 << 24,
            salt: 1,
        };
        assert!(m.is_chase());
    }
}
