//! The paper's multithreaded workloads (Table 2).
//!
//! Workloads combine 2–8 benchmark clones and are classified by the
//! characteristics of the included benchmarks: high instruction-level
//! parallelism (**ILP**), bad memory behaviour (**MEM**), or a mix of both
//! (**MIX**). As in the paper, MEM workloads only exist for 2 and 4 threads
//! (SPECint2000 has few truly memory-bounded benchmarks).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use smt_isa::Addr;

use crate::builder::ProgramBuilder;
use crate::program::Program;
use crate::spec::BenchmarkProfile;

/// Cache key: everything that determines a program's contents —
/// benchmark name, base address, and the thread-mixed seed.
type ProgramKey = (&'static str, u64, u64);

/// Process-wide cache of built programs for [`Workload::programs_shared`].
/// Sweep harnesses build the same (workload, seed) pair for dozens of
/// cells; with the cache each distinct program is synthesised once and
/// every cell shares the `Arc`.
static PROGRAM_CACHE: Mutex<BTreeMap<ProgramKey, Arc<Program>>> = Mutex::new(BTreeMap::new());

/// Workload classification (Table 2 vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadClass {
    /// Only high-ILP benchmarks.
    Ilp,
    /// Only memory-bounded benchmarks.
    Mem,
    /// Mixed ILP and memory-bounded benchmarks.
    Mix,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadClass::Ilp => write!(f, "ILP"),
            WorkloadClass::Mem => write!(f, "MEM"),
            WorkloadClass::Mix => write!(f, "MIX"),
        }
    }
}

/// A named multithreaded workload: an ordered list of benchmark clones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    name: String,
    class: WorkloadClass,
    benchmarks: Vec<&'static str>,
}

/// Error building a workload's programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownBenchmarkError {
    name: String,
}

impl std::fmt::Display for UnknownBenchmarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark name `{}`", self.name)
    }
}

impl std::error::Error for UnknownBenchmarkError {}

/// Per-thread address-space separation: threads' code/data regions never
/// overlap, as distinct processes' working sets never alias usefully.
const THREAD_SPACE: u64 = 0x4000_0000;

impl Workload {
    /// Creates a custom workload from benchmark names. The workload keeps
    /// each profile's own name, so the caller's strings need not outlive it.
    ///
    /// # Errors
    ///
    /// Returns an error if any name is not one of the twelve SPECint2000
    /// clones.
    pub fn custom(
        name: impl Into<String>,
        class: WorkloadClass,
        benchmarks: &[&str],
    ) -> Result<Self, UnknownBenchmarkError> {
        let benchmarks = benchmarks
            .iter()
            .map(|&b| {
                BenchmarkProfile::by_name(b)
                    .map(|p| p.name)
                    .ok_or_else(|| UnknownBenchmarkError {
                        name: b.to_string(),
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(Workload {
            name: name.into(),
            class,
            benchmarks,
        })
    }

    #[expect(clippy::expect_used, reason = "table 2 names are valid")]
    fn table2(name: &str, class: WorkloadClass, benchmarks: &[&str]) -> Self {
        Workload::custom(name, class, benchmarks).expect("table 2 names are valid")
    }

    /// `2_ILP`: eon, gcc.
    pub fn ilp2() -> Self {
        Self::table2("2_ILP", WorkloadClass::Ilp, &["eon", "gcc"])
    }

    /// `2_MEM`: mcf, twolf.
    pub fn mem2() -> Self {
        Self::table2("2_MEM", WorkloadClass::Mem, &["mcf", "twolf"])
    }

    /// `2_MIX`: gzip, twolf — the workload of Figures 2 and 4.
    pub fn mix2() -> Self {
        Self::table2("2_MIX", WorkloadClass::Mix, &["gzip", "twolf"])
    }

    /// `4_ILP`: eon, gcc, gzip, bzip2.
    pub fn ilp4() -> Self {
        Self::table2(
            "4_ILP",
            WorkloadClass::Ilp,
            &["eon", "gcc", "gzip", "bzip2"],
        )
    }

    /// `4_MEM`: mcf, twolf, vpr, perlbmk.
    pub fn mem4() -> Self {
        Self::table2(
            "4_MEM",
            WorkloadClass::Mem,
            &["mcf", "twolf", "vpr", "perlbmk"],
        )
    }

    /// `4_MIX`: gzip, twolf, bzip2, mcf.
    pub fn mix4() -> Self {
        Self::table2(
            "4_MIX",
            WorkloadClass::Mix,
            &["gzip", "twolf", "bzip2", "mcf"],
        )
    }

    /// `6_ILP`: eon, gcc, gzip, bzip2, crafty, vortex.
    pub(crate) fn ilp6() -> Self {
        Self::table2(
            "6_ILP",
            WorkloadClass::Ilp,
            &["eon", "gcc", "gzip", "bzip2", "crafty", "vortex"],
        )
    }

    /// `6_MIX`: gzip, twolf, bzip2, mcf, vpr, eon.
    pub(crate) fn mix6() -> Self {
        Self::table2(
            "6_MIX",
            WorkloadClass::Mix,
            &["gzip", "twolf", "bzip2", "mcf", "vpr", "eon"],
        )
    }

    /// `8_ILP`: eon, gcc, gzip, bzip2, crafty, vortex, gap, parser.
    pub fn ilp8() -> Self {
        Self::table2(
            "8_ILP",
            WorkloadClass::Ilp,
            &[
                "eon", "gcc", "gzip", "bzip2", "crafty", "vortex", "gap", "parser",
            ],
        )
    }

    /// `8_MIX`: gzip, twolf, bzip2, mcf, vpr, eon, gap, parser.
    pub fn mix8() -> Self {
        Self::table2(
            "8_MIX",
            WorkloadClass::Mix,
            &[
                "gzip", "twolf", "bzip2", "mcf", "vpr", "eon", "gap", "parser",
            ],
        )
    }

    /// All ten Table 2 workloads, in the paper's order.
    pub fn all_table2() -> Vec<Workload> {
        vec![
            Self::ilp2(),
            Self::mem2(),
            Self::mix2(),
            Self::ilp4(),
            Self::mem4(),
            Self::mix4(),
            Self::ilp6(),
            Self::mix6(),
            Self::ilp8(),
            Self::mix8(),
        ]
    }

    /// The ILP workloads of Figures 5 and 6.
    pub fn ilp_suite() -> Vec<Workload> {
        vec![Self::ilp2(), Self::ilp4(), Self::ilp6(), Self::ilp8()]
    }

    /// The memory-bounded workloads of Figures 7 and 8, in figure order.
    pub fn mem_suite() -> Vec<Workload> {
        vec![
            Self::mix2(),
            Self::mem2(),
            Self::mix4(),
            Self::mem4(),
            Self::mix6(),
            Self::mix8(),
        ]
    }

    /// Workload name (e.g. `"4_MIX"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload class.
    pub fn class(&self) -> WorkloadClass {
        self.class
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.benchmarks.len()
    }

    /// The benchmark names, in thread order.
    pub fn benchmarks(&self) -> &[&'static str] {
        &self.benchmarks
    }

    /// Builds one synthetic program per thread, in disjoint address spaces.
    ///
    /// The same `seed` reproduces the same programs exactly; each thread's
    /// program additionally mixes in its thread index, so two instances of
    /// the same benchmark in one workload get distinct programs.
    ///
    /// # Errors
    ///
    /// Returns an error if a benchmark name is unknown (impossible for the
    /// built-in Table 2 workloads).
    pub fn programs(&self, seed: u64) -> Result<Vec<Program>, UnknownBenchmarkError> {
        self.benchmarks
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let (profile, base, mixed) = self.thread_recipe(t, name, seed)?;
                Ok(ProgramBuilder::new(profile)
                    .base(Addr::new(base))
                    .seed(mixed)
                    .build())
            })
            .collect()
    }

    /// Like [`Workload::programs`], but serves each distinct program from a
    /// process-wide cache as a shared [`Arc`].
    ///
    /// Programs are immutable once built, so all consumers of the same
    /// (benchmark, thread slot, seed) triple — every sweep cell running
    /// this workload, in particular — share one allocation instead of
    /// re-synthesising and copying megabytes of instruction and behaviour
    /// tables per simulator. The cache is keyed by everything that
    /// determines the program bytes, so a hit is bit-identical to a fresh
    /// build.
    ///
    /// # Errors
    ///
    /// Returns an error if a benchmark name is unknown (impossible for the
    /// built-in Table 2 workloads).
    pub fn programs_shared(&self, seed: u64) -> Result<Vec<Arc<Program>>, UnknownBenchmarkError> {
        self.benchmarks
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let (profile, base, mixed) = self.thread_recipe(t, name, seed)?;
                #[expect(clippy::expect_used, reason = "a poisoned cache is unrecoverable")]
                let mut cache = PROGRAM_CACHE.lock().expect("program cache poisoned");
                if let Some(p) = cache.get(&(*name, base, mixed)) {
                    return Ok(Arc::clone(p));
                }
                let p = Arc::new(
                    ProgramBuilder::new(profile)
                        .base(Addr::new(base))
                        .seed(mixed)
                        .build(),
                );
                cache.insert((*name, base, mixed), Arc::clone(&p));
                Ok(p)
            })
            .collect()
    }

    /// The (profile, base address, mixed seed) triple that fully determines
    /// thread `t`'s program.
    fn thread_recipe(
        &self,
        t: usize,
        name: &'static str,
        seed: u64,
    ) -> Result<(BenchmarkProfile, u64, u64), UnknownBenchmarkError> {
        let profile = BenchmarkProfile::by_name(name).ok_or_else(|| UnknownBenchmarkError {
            name: name.to_string(),
        })?;
        // Stagger bases by a non-power-of-two amount in addition to
        // the per-thread space: with pure power-of-two spacing every
        // thread's hot lines would map to the *same* cache sets
        // (page-coloring pathology a real OS's physical mapping
        // avoids), and 4+ threads would thrash the 2-way L1I forever.
        let stagger = t as u64 * 0x1_1040;
        Ok((
            profile,
            0x0040_0000 + t as u64 * THREAD_SPACE + stagger,
            seed ^ (t as u64).wrapping_mul(0x9e37_79b9),
        ))
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: {}",
            self.name,
            self.class,
            self.benchmarks.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let all = Workload::all_table2();
        assert_eq!(all.len(), 10);
        let w = Workload::mix2();
        assert_eq!(w.benchmarks(), ["gzip", "twolf"]);
        assert_eq!(w.num_threads(), 2);
        assert_eq!(w.class(), WorkloadClass::Mix);
        assert_eq!(
            Workload::mem4().benchmarks(),
            ["mcf", "twolf", "vpr", "perlbmk"]
        );
        assert_eq!(
            Workload::ilp8().benchmarks(),
            ["eon", "gcc", "gzip", "bzip2", "crafty", "vortex", "gap", "parser"]
        );
    }

    #[test]
    fn mem_workloads_only_for_2_and_4_threads() {
        for w in Workload::all_table2() {
            if w.class() == WorkloadClass::Mem {
                assert!(w.num_threads() <= 4, "{}", w.name());
            }
        }
    }

    #[test]
    fn programs_live_in_disjoint_address_spaces() {
        let progs = Workload::mix4().programs(1).unwrap();
        assert_eq!(progs.len(), 4);
        for (i, a) in progs.iter().enumerate() {
            for b in progs.iter().skip(i + 1) {
                let ws = BenchmarkProfile::by_name(a.name()).unwrap().working_set;
                let a_end = a.base().raw() + 0x1000_0000 + ws;
                assert!(
                    a_end <= b.base().raw() || b.base().raw() + THREAD_SPACE <= a.base().raw(),
                    "address overlap between {} and {}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn same_benchmark_twice_gets_distinct_programs() {
        let w = Workload::custom("twin", WorkloadClass::Ilp, &["gzip", "gzip"]).unwrap();
        let progs = w.programs(7).unwrap();
        assert_eq!(progs[0].name(), progs[1].name());
        assert_ne!(progs[0].base(), progs[1].base());
        // Instruction streams differ because the seeds mix the thread index.
        assert_ne!(progs[0].len(), progs[1].len());
    }

    #[test]
    fn shared_programs_match_owned_builds_and_hit_the_cache() {
        let w = Workload::mix4();
        let owned = w.programs(1234).unwrap();
        let shared = w.programs_shared(1234).unwrap();
        assert_eq!(owned.len(), shared.len());
        for (o, s) in owned.iter().zip(shared.iter()) {
            assert_eq!(o, s.as_ref(), "cache served different program bytes");
        }
        // A second request serves the very same allocations.
        let again = w.programs_shared(1234).unwrap();
        for (a, b) in shared.iter().zip(again.iter()) {
            assert!(Arc::ptr_eq(a, b), "cache missed on identical recipe");
        }
        // A different seed is a different program.
        let other = w.programs_shared(1235).unwrap();
        assert!(!Arc::ptr_eq(&shared[0], &other[0]));
        assert_ne!(shared[0].as_ref(), other[0].as_ref());
    }

    #[test]
    fn custom_rejects_unknown_names() {
        let err = Workload::custom("bad", WorkloadClass::Ilp, &["gzip", "nosuch"]);
        assert!(err.is_err());
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("nosuch"));
    }

    #[test]
    fn display_is_informative() {
        let s = Workload::mix2().to_string();
        assert!(s.contains("2_MIX"));
        assert!(s.contains("gzip"));
        assert!(s.contains("MIX"));
    }
}
