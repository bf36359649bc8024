//! SPECint2000 benchmark clones: per-benchmark calibration profiles.
//!
//! The paper (Table 1) characterizes its twelve SPECint2000 inputs chiefly by
//! average dynamic basic-block size; Table 2 then classifies benchmarks as
//! high-ILP or memory-bounded. A [`BenchmarkProfile`] captures the
//! distributional properties the evaluation actually exercises:
//!
//! * average basic-block size (→ how far a 1-prediction/cycle fetch engine
//!   can see, and how long FTB blocks / streams get);
//! * branch-behaviour mix (→ predictor accuracy and taken-branch rate);
//! * memory working-set size and pointer-chase fraction (→ ILP vs MEM
//!   thread quality, the load that "clogs" shared resources in §5.2);
//! * dependence density (→ exploitable ILP).

/// Memory-behaviour class of a benchmark clone (paper Table 2 vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemClass {
    /// High instruction-level parallelism, cache-friendly.
    Ilp,
    /// Mildly memory-bounded (vpr, perlbmk in the paper's 4_MEM mix).
    MildMem,
    /// Strongly memory-bounded (mcf, twolf).
    Mem,
}

/// Calibration profile for one synthetic benchmark clone.
///
/// Passive configuration record (public fields by design); consumed by
/// [`crate::builder::ProgramBuilder`].
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (SPECint2000 short name).
    pub name: &'static str,
    /// Target average dynamic basic-block size, from Table 1.
    pub avg_bb_size: f64,
    /// Memory class.
    pub mem_class: MemClass,
    /// Number of callee functions (besides the driver).
    pub num_funcs: u32,
    /// Basic blocks ("runs") per function, before loop expansion.
    pub runs_per_func: u32,
    /// Fraction of conditional branches that are loop back-edges.
    pub loop_frac: f64,
    /// Fraction of conditional branches with a repeating pattern
    /// (history-predictable).
    pub pattern_frac: f64,
    /// Fraction of conditional branches whose outcome is a function of the
    /// recent path history (what global-history predictors exploit).
    pub corr_frac: f64,
    /// Remaining conditional branches are Bernoulli; their taken-probability
    /// is drawn from this range and mirrored around 0.5 half the time.
    pub bias_range: (f64, f64),
    /// Fraction of Bernoulli branches that are *hard* (bias near 0.5);
    /// controls the floor of predictor accuracy.
    pub hard_frac: f64,
    /// Loop trip counts are drawn from this range.
    pub loop_period: (u32, u32),
    /// Fraction of block-ending branches that are calls.
    pub call_frac: f64,
    /// Fraction of block-ending branches that are indirect jumps.
    pub indirect_frac: f64,
    /// Data working-set size in bytes.
    pub working_set: u64,
    /// Fraction of loads in a pointer-chase chain (serialized misses).
    pub chase_frac: f64,
    /// Fraction of loads/stores with strided (cache-friendly) access; the
    /// rest are uniform over the working set.
    pub stride_frac: f64,
    /// Instruction-mix fractions within straight-line code, in order:
    /// loads, stores, fp, int multiplies (rest are 1-cycle int ALU).
    pub mix: InstMix,
    /// Number of independent dependence chains in straight-line code;
    /// larger means more ILP.
    pub dep_chains: u32,
}

/// Instruction-mix fractions for straight-line code.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of floating-point operations.
    pub fp: f64,
    /// Fraction of integer multiplies.
    pub mul: f64,
}

impl InstMix {
    /// Typical SPECint mix.
    const INT: InstMix = InstMix {
        load: 0.24,
        store: 0.10,
        fp: 0.01,
        mul: 0.03,
    };
}

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

impl BenchmarkProfile {
    /// Profile of the named SPECint2000 benchmark clone.
    ///
    /// Accepts the twelve SPECint2000 short names used by the paper
    /// (`gzip`, `vpr`, `gcc`, `mcf`, `crafty`, `parser`, `eon`, `perlbmk`,
    /// `gap`, `vortex`, `bzip2`, `twolf`).
    ///
    /// # Errors
    ///
    /// Returns `None` for an unknown name.
    pub(crate) fn by_name(name: &str) -> Option<BenchmarkProfile> {
        Some(match name {
            "gzip" => Self::gzip(),
            "vpr" => Self::vpr(),
            "gcc" => Self::gcc(),
            "mcf" => Self::mcf(),
            "crafty" => Self::crafty(),
            "parser" => Self::parser(),
            "eon" => Self::eon(),
            "perlbmk" => Self::perlbmk(),
            "gap" => Self::gap(),
            "vortex" => Self::vortex(),
            "bzip2" => Self::bzip2(),
            "twolf" => Self::twolf(),
            _ => return None,
        })
    }

    /// All twelve profiles, in Table 1 order.
    pub fn all() -> Vec<BenchmarkProfile> {
        vec![
            Self::gzip(),
            Self::vpr(),
            Self::gcc(),
            Self::mcf(),
            Self::crafty(),
            Self::parser(),
            Self::eon(),
            Self::perlbmk(),
            Self::gap(),
            Self::vortex(),
            Self::bzip2(),
            Self::twolf(),
        ]
    }

    fn base(name: &'static str, avg_bb: f64, mem_class: MemClass) -> BenchmarkProfile {
        BenchmarkProfile {
            name,
            avg_bb_size: avg_bb,
            mem_class,
            num_funcs: 16,
            runs_per_func: 28,
            loop_frac: 0.32,
            pattern_frac: 0.03,
            corr_frac: 0.08,
            bias_range: (0.03, 0.18),
            hard_frac: 0.015,
            loop_period: (6, 24),
            call_frac: 0.08,
            indirect_frac: 0.015,
            working_set: 48 * KB,
            chase_frac: 0.0,
            stride_frac: 0.75,
            mix: InstMix::INT,
            dep_chains: 12,
        }
    }

    /// 164.gzip — compression; high ILP, very predictable, tiny working set.
    pub fn gzip() -> BenchmarkProfile {
        BenchmarkProfile {
            pattern_frac: 0.03,
            hard_frac: 0.02,
            dep_chains: 16,
            working_set: 40 * KB,
            ..Self::base("gzip", 11.02, MemClass::Ilp)
        }
    }

    /// 175.vpr — place & route; mildly memory-bounded, harder branches.
    pub(crate) fn vpr() -> BenchmarkProfile {
        BenchmarkProfile {
            hard_frac: 0.02,
            working_set: 3 * MB,
            chase_frac: 0.10,
            stride_frac: 0.45,
            dep_chains: 8,
            ..Self::base("vpr", 9.68, MemClass::MildMem)
        }
    }

    /// 176.gcc — compiler; short blocks, big code footprint, many calls and
    /// indirect jumps.
    pub(crate) fn gcc() -> BenchmarkProfile {
        BenchmarkProfile {
            num_funcs: 28,
            runs_per_func: 26,
            call_frac: 0.14,
            indirect_frac: 0.05,
            hard_frac: 0.035,
            working_set: 160 * KB,
            stride_frac: 0.70,
            dep_chains: 10,
            ..Self::base("gcc", 5.76, MemClass::Ilp)
        }
    }

    /// 181.mcf — network simplex; tiny blocks, huge pointer-chased working
    /// set. The canonical memory-bounded thread.
    pub(crate) fn mcf() -> BenchmarkProfile {
        BenchmarkProfile {
            hard_frac: 0.03,
            working_set: 32 * MB,
            chase_frac: 0.25,
            stride_frac: 0.15,
            dep_chains: 4,
            mix: InstMix {
                load: 0.30,
                store: 0.09,
                fp: 0.0,
                mul: 0.01,
            },
            ..Self::base("mcf", 3.92, MemClass::Mem)
        }
    }

    /// 186.crafty — chess; high ILP, long blocks, predictable.
    pub(crate) fn crafty() -> BenchmarkProfile {
        BenchmarkProfile {
            hard_frac: 0.025,
            dep_chains: 16,
            working_set: 64 * KB,
            ..Self::base("crafty", 9.24, MemClass::Ilp)
        }
    }

    /// 197.parser — link parser; shortish blocks, moderate memory.
    pub(crate) fn parser() -> BenchmarkProfile {
        BenchmarkProfile {
            hard_frac: 0.025,
            working_set: 128 * KB,
            stride_frac: 0.70,
            dep_chains: 8,
            ..Self::base("parser", 6.37, MemClass::Ilp)
        }
    }

    /// 252.eon — C++ ray tracer; some FP, deep call chains, high ILP.
    pub(crate) fn eon() -> BenchmarkProfile {
        BenchmarkProfile {
            call_frac: 0.16,
            indirect_frac: 0.04,
            hard_frac: 0.02,
            dep_chains: 16,
            working_set: 32 * KB,
            mix: InstMix {
                load: 0.24,
                store: 0.12,
                fp: 0.14,
                mul: 0.02,
            },
            ..Self::base("eon", 8.73, MemClass::Ilp)
        }
    }

    /// 253.perlbmk — interpreter; indirect-branch heavy, mildly
    /// memory-bounded (grouped with MEM in the paper's 4_MEM workload).
    pub(crate) fn perlbmk() -> BenchmarkProfile {
        BenchmarkProfile {
            num_funcs: 18,
            call_frac: 0.12,
            indirect_frac: 0.06,
            hard_frac: 0.025,
            working_set: 2 * MB,
            chase_frac: 0.12,
            stride_frac: 0.45,
            ..Self::base("perlbmk", 10.06, MemClass::MildMem)
        }
    }

    /// 254.gap — group theory; high ILP.
    pub(crate) fn gap() -> BenchmarkProfile {
        BenchmarkProfile {
            hard_frac: 0.025,
            dep_chains: 14,
            working_set: 96 * KB,
            ..Self::base("gap", 9.16, MemClass::Ilp)
        }
    }

    /// 255.vortex — OO database; call-heavy, large code, high ILP.
    pub fn vortex() -> BenchmarkProfile {
        BenchmarkProfile {
            num_funcs: 22,
            call_frac: 0.15,
            hard_frac: 0.02,
            working_set: 160 * KB,
            dep_chains: 8,
            ..Self::base("vortex", 6.50, MemClass::Ilp)
        }
    }

    /// 256.bzip2 — compression; high ILP, predictable, strided.
    pub(crate) fn bzip2() -> BenchmarkProfile {
        BenchmarkProfile {
            pattern_frac: 0.03,
            hard_frac: 0.02,
            dep_chains: 16,
            working_set: 128 * KB,
            stride_frac: 0.85,
            ..Self::base("bzip2", 10.02, MemClass::Ilp)
        }
    }

    /// 300.twolf — place & route; strongly memory-bounded, hard branches.
    pub(crate) fn twolf() -> BenchmarkProfile {
        BenchmarkProfile {
            hard_frac: 0.025,
            working_set: 12 * MB,
            chase_frac: 0.20,
            stride_frac: 0.20,
            dep_chains: 5,
            mix: InstMix {
                load: 0.27,
                store: 0.10,
                fp: 0.01,
                mul: 0.02,
            },
            ..Self::base("twolf", 8.00, MemClass::Mem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twelve_profiles_exist_in_table1_order() {
        let all = BenchmarkProfile::all();
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap", "vortex",
                "bzip2", "twolf"
            ]
        );
    }

    #[test]
    fn by_name_round_trips() {
        for p in BenchmarkProfile::all() {
            let q = BenchmarkProfile::by_name(p.name).unwrap();
            assert_eq!(p, q);
        }
        assert!(BenchmarkProfile::by_name("nosuch").is_none());
    }

    #[test]
    fn table1_bb_sizes_match_paper() {
        let expect = [
            ("gzip", 11.02),
            ("vpr", 9.68),
            ("gcc", 5.76),
            ("mcf", 3.92),
            ("crafty", 9.24),
            ("parser", 6.37),
            ("eon", 8.73),
            ("perlbmk", 10.06),
            ("gap", 9.16),
            ("vortex", 6.50),
            ("bzip2", 10.02),
            ("twolf", 8.00),
        ];
        for (name, bb) in expect {
            let p = BenchmarkProfile::by_name(name).unwrap();
            assert!((p.avg_bb_size - bb).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn mem_classes_match_table2_grouping() {
        assert!(BenchmarkProfile::mcf().mem_class != MemClass::Ilp);
        assert!(BenchmarkProfile::twolf().mem_class != MemClass::Ilp);
        assert!(BenchmarkProfile::vpr().mem_class != MemClass::Ilp);
        assert!(BenchmarkProfile::perlbmk().mem_class != MemClass::Ilp);
        for ilp in [
            "gzip", "gcc", "crafty", "parser", "eon", "gap", "vortex", "bzip2",
        ] {
            assert!(
                BenchmarkProfile::by_name(ilp).unwrap().mem_class == MemClass::Ilp,
                "{ilp} should be ILP"
            );
        }
    }

    #[test]
    fn memory_bound_profiles_exceed_l2() {
        // L2 is 1 MB (Table 3); strongly memory-bound clones must overflow it.
        assert!(BenchmarkProfile::mcf().working_set > 1024 * 1024);
        assert!(BenchmarkProfile::twolf().working_set > 1024 * 1024);
        // ILP clones fit in L2.
        assert!(BenchmarkProfile::gzip().working_set <= 1024 * 1024);
        assert!(BenchmarkProfile::eon().working_set <= 1024 * 1024);
    }

    #[test]
    fn fractions_are_probabilities() {
        for p in BenchmarkProfile::all() {
            for f in [
                p.loop_frac,
                p.pattern_frac,
                p.hard_frac,
                p.call_frac,
                p.indirect_frac,
                p.chase_frac,
                p.stride_frac,
                p.mix.load,
                p.mix.store,
                p.mix.fp,
                p.mix.mul,
            ] {
                assert!((0.0..=1.0).contains(&f), "{}: fraction {f}", p.name);
            }
            assert!(p.loop_frac + p.pattern_frac <= 1.0, "{}", p.name);
            assert!(
                p.mix.load + p.mix.store + p.mix.fp + p.mix.mul < 1.0,
                "{}",
                p.name
            );
            assert!(p.loop_period.0 >= 2 && p.loop_period.1 > p.loop_period.0);
        }
    }
}
