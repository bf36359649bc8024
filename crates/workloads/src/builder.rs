//! Synthesis of static programs from benchmark profiles.
//!
//! A program is a *driver* function plus `num_funcs` callee functions. Each
//! function is a sequence of **runs**: straight-line instructions followed by
//! one block-ending branch (so the run length distribution *is* the
//! basic-block size distribution, calibrated to Table 1 of the paper).
//! Run-ending branches are loop back-edges (bounded trip counts), forward
//! conditional skips (biased / patterned), calls (strictly to later-indexed
//! functions, so the call graph is a DAG and execution always terminates),
//! indirect jumps over a small forward target set, and one final return.
//! The driver loops forever, calling every callee in turn — the walker
//! simulates a fixed instruction budget, never program exit.

use smt_isa::{Addr, ArchReg, BranchKind, InstClass, StaticInst, NUM_ARCH_INT};

use crate::behavior::{Behavior, BranchBehavior, IndirectBehavior, MemBehavior};
use crate::program::Program;
use crate::rng::Srng;
use crate::spec::BenchmarkProfile;

/// Registers reserved for pointer-chase chains (`r = load [r]`); four
/// independent chains bound the memory-level parallelism of a
/// memory-bounded clone the way mcf's few active lists do.
const CHASE_REGS: [u16; 4] = [
    NUM_ARCH_INT - 1,
    NUM_ARCH_INT - 2,
    NUM_ARCH_INT - 3,
    NUM_ARCH_INT - 4,
];

/// Offset of the data region from the code base.
const DATA_OFFSET: u64 = 0x1000_0000;

/// Builds synthetic [`Program`]s from [`BenchmarkProfile`]s.
///
/// # Example
///
/// ```
/// use smt_workloads::{BenchmarkProfile, ProgramBuilder};
/// use smt_isa::Addr;
///
/// let prog = ProgramBuilder::new(BenchmarkProfile::gzip())
///     .base(Addr::new(0x40_0000))
///     .seed(7)
///     .build();
/// assert!(prog.end() > prog.base().add_insts(500)); // over 500 instructions
/// assert_eq!(prog.name(), "gzip");
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    profile: BenchmarkProfile,
    base: Addr,
    seed: u64,
}

/// Placeholder targets patched after layout.
#[derive(Clone, Debug)]
enum Pending {
    /// No control-flow target (non-branch, or return).
    None,
    /// Start of run `run` of function `func`.
    Run { func: usize, run: usize },
    /// Entry of function `func`.
    Func(usize),
    /// Indirect target set: starts of the listed runs of `func`.
    IndirectRuns {
        func: usize,
        runs: Vec<usize>,
        salt: u64,
        sticky: u32,
    },
}

/// One instruction during generation, before addresses exist.
#[derive(Clone, Debug)]
struct GenInst {
    class: InstClass,
    dest: Option<ArchReg>,
    srcs: [Option<ArchReg>; 2],
    behavior: Behavior,
    target: Pending,
}

/// One function during generation.
#[derive(Clone, Debug, Default)]
struct GenFunc {
    insts: Vec<GenInst>,
    /// Index into `insts` of the first instruction of each run.
    run_starts: Vec<usize>,
}

impl ProgramBuilder {
    /// Creates a builder for the given profile with default base and seed.
    pub fn new(profile: BenchmarkProfile) -> Self {
        ProgramBuilder {
            profile,
            base: Addr::new(0x0040_0000),
            seed: 0,
        }
    }

    /// Sets the code base address (threads get disjoint address spaces).
    pub fn base(mut self, base: Addr) -> Self {
        self.base = base;
        self
    }

    /// Sets the generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the program.
    pub fn build(self) -> Program {
        let p = &self.profile;
        let mut rng = Srng::new(self.seed ^ hash_name(p.name));
        let data_base = self.base + DATA_OFFSET;

        // Generate callees first (any callee may call higher-indexed ones),
        // then the driver, which calls each callee round-robin forever.
        let nf = p.num_funcs as usize;
        let mut funcs: Vec<GenFunc> = (0..nf)
            .map(|f| gen_function(p, &mut rng, f, nf, data_base))
            .collect();
        funcs.push(gen_driver(p, &mut rng, nf));
        let driver = nf; // index of the driver in `funcs`

        // Layout: driver first (entry point), then callees.
        let order: Vec<usize> = std::iter::once(driver).chain(0..nf).collect();
        let mut func_base = vec![0usize; funcs.len()];
        let mut cursor = 0usize;
        for &f in &order {
            func_base[f] = cursor;
            cursor += funcs[f].insts.len();
        }
        let total = cursor;

        // Address of the start of run `r` in function `f`.
        let run_addr = |f: usize, r: usize| -> Addr {
            self.base
                .add_insts((func_base[f] + funcs[f].run_starts[r]) as u64)
        };

        let mut insts = Vec::with_capacity(total);
        let mut behaviors = Vec::with_capacity(total);
        let mut id = 0u32;
        for &f in &order {
            for gi in &funcs[f].insts {
                let addr = self.base.add_insts(id as u64);
                let (target, behavior) = match &gi.target {
                    Pending::None => (None, gi.behavior.clone()),
                    Pending::Run { func: tf, run } => {
                        (Some(run_addr(*tf, *run)), gi.behavior.clone())
                    }
                    Pending::Func(tf) => (
                        Some(self.base.add_insts(func_base[*tf] as u64)),
                        gi.behavior.clone(),
                    ),
                    Pending::IndirectRuns {
                        func: tf,
                        runs,
                        salt,
                        sticky,
                    } => {
                        let targets = runs.iter().map(|&r| run_addr(*tf, r)).collect();
                        (
                            None,
                            Behavior::Indirect(IndirectBehavior {
                                targets,
                                salt: *salt,
                                sticky_run: *sticky,
                            }),
                        )
                    }
                };
                insts.push(StaticInst {
                    id,
                    addr,
                    class: gi.class,
                    dest: gi.dest,
                    srcs: gi.srcs,
                    target,
                });
                behaviors.push(behavior);
                id += 1;
            }
        }

        Program::new(
            p.name,
            self.base,
            self.base, // entry = first instruction of the driver
            insts,
            behaviors,
            p.working_set,
        )
    }
}

impl GenFunc {
    fn push(&mut self, gi: GenInst) {
        self.insts.push(gi);
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Generates the straight-line portion of a run (everything but the ending
/// branch): `len` instructions with the profile's mix and dependence shape.
fn gen_straight(
    p: &BenchmarkProfile,
    rng: &mut Srng,
    out: &mut GenFunc,
    len: u64,
    data_base: Addr,
) {
    let pool: Vec<u16> = (1..=p.dep_chains.min(24) as u16).collect();
    for _ in 0..len {
        let x = rng.f64();
        let m = p.mix;
        let (class, is_load, is_store, is_fp) = if x < m.load {
            (InstClass::Load, true, false, false)
        } else if x < m.load + m.store {
            (InstClass::Store, false, true, false)
        } else if x < m.load + m.store + m.fp {
            (InstClass::FpAlu, false, false, true)
        } else if x < m.load + m.store + m.fp + m.mul {
            (InstClass::IntMul, false, false, false)
        } else {
            (InstClass::IntAlu, false, false, false)
        };

        let pick_int = |rng: &mut Srng| ArchReg::int(*rng.pick(&pool));
        let pick_fp = |rng: &mut Srng| ArchReg::fp(*rng.pick(&pool));

        if is_load {
            let chase = rng.chance(p.chase_frac);
            let behavior = if chase {
                Behavior::Mem(MemBehavior::Chase {
                    base: data_base,
                    size: p.working_set,
                    salt: rng.next_u64(),
                })
            } else if rng.chance(p.stride_frac) {
                // Small private strided region inside the working set.
                let region = 1u64 << rng.range(10, 14); // 1–8 KB
                let offset = rng.range(0, (p.working_set.saturating_sub(region)).max(1));
                #[expect(clippy::cast_possible_truncation, reason = "region ≤ 16 KB")]
                let period = (region / 8) as u32;
                Behavior::Mem(MemBehavior::Stride {
                    base: data_base + (offset & !7),
                    stride: 8,
                    period,
                })
            } else {
                Behavior::Mem(MemBehavior::Region {
                    base: data_base,
                    size: p.working_set,
                    salt: rng.next_u64(),
                })
            };
            let (dest, src) = if chase {
                // r = load [r]: serializes consecutive links of one chain;
                // distinct chains overlap their misses.
                let chain = ArchReg::int(*rng.pick(&CHASE_REGS));
                (chain, chain)
            } else {
                (pick_int(rng), pick_int(rng))
            };
            out.push(GenInst {
                class,
                dest: Some(dest),
                srcs: [Some(src), None],
                behavior,
                target: Pending::None,
            });
        } else if is_store {
            let behavior = if rng.chance(p.stride_frac) {
                let region = 1u64 << rng.range(10, 13);
                let offset = rng.range(0, (p.working_set.saturating_sub(region)).max(1));
                #[expect(clippy::cast_possible_truncation, reason = "region ≤ 16 KB")]
                let period = (region / 8) as u32;
                Behavior::Mem(MemBehavior::Stride {
                    base: data_base + (offset & !7),
                    stride: 8,
                    period,
                })
            } else {
                Behavior::Mem(MemBehavior::Region {
                    base: data_base,
                    size: p.working_set,
                    salt: rng.next_u64(),
                })
            };
            out.push(GenInst {
                class,
                dest: None,
                srcs: [Some(pick_int(rng)), Some(pick_int(rng))],
                behavior,
                target: Pending::None,
            });
        } else if is_fp {
            let src2 = if rng.chance(0.5) {
                Some(pick_fp(rng))
            } else {
                None
            };
            out.push(GenInst {
                class,
                dest: Some(pick_fp(rng)),
                srcs: [Some(pick_fp(rng)), src2],
                behavior: Behavior::None,
                target: Pending::None,
            });
        } else {
            let src2 = if rng.chance(0.25) {
                Some(pick_int(rng))
            } else {
                None
            };
            out.push(GenInst {
                class,
                dest: Some(pick_int(rng)),
                srcs: [Some(pick_int(rng)), src2],
                behavior: Behavior::None,
                target: Pending::None,
            });
        }
    }
}

/// Conditional-branch direction behaviour for a *forward* (non-back-edge)
/// branch, drawn from the profile's mix.
fn forward_cond_behavior(p: &BenchmarkProfile, rng: &mut Srng) -> BranchBehavior {
    // `loop_frac` of conditionals are back edges, handled structurally; the
    // remaining mass splits between patterns, history-correlated branches
    // and Bernoulli branches.
    let rest = 1.0 - p.loop_frac;
    let pattern_share = if rest > 0.0 {
        p.pattern_frac / rest
    } else {
        0.0
    };
    let corr_share = if rest > 0.0 { p.corr_frac / rest } else { 0.0 };
    if rng.chance(pattern_share) {
        // Short alternation-style patterns (the classic history-
        // predictable case).
        let len = rng.range_u32(2, 5);
        BranchBehavior::Pattern {
            bits: 0b0110_1001 ^ (rng.next_u64() & 0b11),
            len,
        }
    } else if rng.chance(corr_share / (1.0 - pattern_share).max(1e-9)) {
        // Correlated with the recent path: mostly biased not-taken
        // marginally, fully determined by the last few outcomes.
        let pm = if rng.chance(0.5) {
            rng.range_u32(100, 301)
        } else {
            rng.range_u32(700, 901)
        };
        BranchBehavior::Correlated {
            p_taken_milli: pm,
            depth: rng.range_u32(2, 6),
            salt: rng.next_u64(),
        }
    } else if rng.chance(p.hard_frac) {
        // Hard branch: bias close to 1/2, independent noise per occurrence
        // — the accuracy ceiling no predictor beats.
        let pm = rng.range_u32(350, 651);
        BranchBehavior::Biased {
            p_taken_milli: pm,
            salt: rng.next_u64(),
            run: 1,
        }
    } else {
        // Easy branch: strongly biased, usually towards not-taken (error
        // checks / guard tests), sometimes mirrored; the direction is
        // phase-sticky over runs of occurrences, as in real codes.
        let (lo, hi) = p.bias_range;
        let base = lo + (hi - lo) * rng.f64();
        let p_taken = if rng.chance(0.35) { 1.0 - base } else { base };
        #[expect(clippy::cast_possible_truncation, reason = "p_taken ∈ [0, 1]")]
        let p_taken_milli = (p_taken * 1000.0) as u32;
        BranchBehavior::Biased {
            p_taken_milli,
            salt: rng.next_u64(),
            run: rng.range_u32(1000, 8000),
        }
    }
}

/// Generates one callee function.
fn gen_function(
    p: &BenchmarkProfile,
    rng: &mut Srng,
    this: usize,
    num_funcs: usize,
    data_base: Addr,
) -> GenFunc {
    let mut f = GenFunc::default();
    let runs = (p.runs_per_func as u64 * rng.range(75, 126) / 100).max(4) as usize;
    let bb_mean = p.avg_bb_size;
    // `bb_mean` is a Table 1 block size (3.9–11.0 instructions), and a
    // float-to-int `as` saturates, so none of the casts below can wrap.
    #[expect(clippy::cast_possible_truncation, reason = "small bb_mean")]
    let cap = (bb_mean * 4.0).ceil() as u64;

    // Pre-draw all run lengths, then rescale so the function's mean hits the
    // Table 1 target exactly. The blend of a geometric tail and a uniform
    // body keeps the short-tailed skew of real block-size distributions
    // while the rescale stops loop-weighted (dynamic) means from drifting.
    #[expect(clippy::cast_possible_truncation, reason = "small bb_mean")]
    let mut lengths: Vec<u64> = (0..runs)
        .map(|_| {
            if rng.chance(0.3) {
                rng.geometric(bb_mean, cap.max(2))
            } else {
                let lo = (bb_mean * 0.6).max(1.0) as u64;
                let hi = (bb_mean * 1.4).max(2.0) as u64;
                rng.range(lo, hi + 1)
            }
        })
        .collect();
    #[expect(clippy::cast_possible_truncation, reason = "runs × bb_mean is small")]
    let target_total = (runs as f64 * bb_mean).round() as i64;
    let mut total: i64 = lengths.iter().map(|&l| l as i64).sum();
    while total != target_total {
        let i = rng.range_usize(0, runs);
        if total < target_total && lengths[i] < cap {
            lengths[i] += 1;
            total += 1;
        } else if total > target_total && lengths[i] > 1 {
            lengths[i] -= 1;
            total -= 1;
        }
    }

    // Runs already covered by a previous back edge cannot start another one:
    // in-function loops never nest directly (nesting comes from calls), so a
    // single loop nest cannot multiply into dominating the dynamic stream.
    let mut last_back_edge: i64 = -1;

    for (r, &run_len) in lengths.iter().enumerate() {
        f.run_starts.push(f.insts.len());
        gen_straight(p, rng, &mut f, run_len.saturating_sub(1), data_base);

        // Ending branch.
        let last = r == runs - 1;
        let cond_src = ArchReg::int(1 + rng.range_u16(0, u64::from(p.dep_chains.min(24))));
        if last {
            f.push(GenInst {
                class: InstClass::Branch(BranchKind::Return),
                dest: None,
                srcs: [None, None],
                behavior: Behavior::None,
                target: Pending::None,
            });
            continue;
        }
        let x = rng.f64();
        let callable = this + 1 < num_funcs;
        if callable && x < p.call_frac {
            let callee = rng.range_usize(this + 1, num_funcs);
            f.push(GenInst {
                class: InstClass::Branch(BranchKind::Call),
                dest: None,
                srcs: [None, None],
                behavior: Behavior::None,
                target: Pending::Func(callee),
            });
        } else if x < p.call_frac + p.indirect_frac && r + 3 < runs {
            // Indirect jump over 2–6 forward runs.
            let k = rng.range_usize(2, 7);
            let targets: Vec<usize> = (0..k).map(|_| rng.range_usize(r + 1, runs)).collect();
            f.push(GenInst {
                class: InstClass::Branch(BranchKind::Indirect),
                dest: None,
                srcs: [Some(cond_src), None],
                behavior: Behavior::None,
                target: Pending::IndirectRuns {
                    func: this,
                    runs: targets,
                    salt: rng.next_u64(),
                    sticky: rng.range_u32(2, 17),
                },
            });
        } else if r >= 1
            && rng.chance(p.loop_frac)
            && (r as i64 - rng.range(2, 5).min(r as u64) as i64) > last_back_edge
        {
            // Back edge: loop over the last 2–4 runs (wider spans average
            // block sizes within the hot loop). The guard above re-draws the
            // span implicitly; recompute it deterministically from the rng
            // state for the actual edge.
            let span = rng.range_usize(2, 5).min(r);
            #[expect(clippy::cast_possible_truncation, reason = "last_back_edge < r")]
            let span = span.min((r as i64 - last_back_edge - 1).max(1) as usize);
            let (lo, hi) = p.loop_period;
            let period = rng.range_u32(u64::from(lo), u64::from(hi) + 1);
            f.push(GenInst {
                class: InstClass::Branch(BranchKind::Cond),
                dest: None,
                srcs: [Some(cond_src), None],
                behavior: Behavior::Branch(BranchBehavior::Loop { period }),
                target: Pending::Run {
                    func: this,
                    run: r - span,
                },
            });
            last_back_edge = r as i64;
        } else {
            // Forward conditional skipping 1–2 runs.
            let skip = rng.range_usize(1, 3);
            let tgt = (r + 1 + skip).min(runs - 1);
            f.push(GenInst {
                class: InstClass::Branch(BranchKind::Cond),
                dest: None,
                srcs: [Some(cond_src), None],
                behavior: Behavior::Branch(forward_cond_behavior(p, rng)),
                target: Pending::Run {
                    func: this,
                    run: tgt,
                },
            });
        }
    }
    f
}

/// Generates the driver: an infinite loop calling every callee in turn.
///
/// The driver's own function index is `num_funcs` (it is generated last).
fn gen_driver(p: &BenchmarkProfile, rng: &mut Srng, num_funcs: usize) -> GenFunc {
    let mut f = GenFunc::default();
    for callee in 0..num_funcs {
        f.run_starts.push(f.insts.len());
        // A couple of glue instructions between calls.
        let glue = rng.range(1, 4);
        for _ in 0..glue {
            #[expect(clippy::cast_possible_truncation, reason = "callee % dep_chains < 24")]
            f.push(GenInst {
                class: InstClass::IntAlu,
                dest: Some(ArchReg::int(
                    1 + (callee % p.dep_chains.max(1) as usize) as u16,
                )),
                srcs: [Some(ArchReg::int(1)), None],
                behavior: Behavior::None,
                target: Pending::None,
            });
        }
        f.push(GenInst {
            class: InstClass::Branch(BranchKind::Call),
            dest: None,
            srcs: [None, None],
            behavior: Behavior::None,
            target: Pending::Func(callee),
        });
    }
    // Jump back to the top of the driver, forever.
    f.run_starts.push(f.insts.len());
    f.push(GenInst {
        class: InstClass::Branch(BranchKind::Jump),
        dest: None,
        srcs: [None, None],
        behavior: Behavior::None,
        target: Pending::Run {
            func: num_funcs,
            run: 0,
        },
    });
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::InstClass;

    fn build(name: &str, seed: u64) -> Program {
        ProgramBuilder::new(BenchmarkProfile::by_name(name).unwrap())
            .seed(seed)
            .build()
    }

    #[test]
    fn build_is_deterministic() {
        let a = build("gzip", 1);
        let b = build("gzip", 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = build("gzip", 1);
        let b = build("gzip", 2);
        let same = a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y);
        assert!(!same);
    }

    #[test]
    fn every_benchmark_builds() {
        for p in BenchmarkProfile::all() {
            let prog = ProgramBuilder::new(p.clone()).seed(3).build();
            assert!(prog.len() > 200, "{} too small: {}", p.name, prog.len());
            // Static BB size should land near the Table 1 target.
            let bb = prog.static_stats().avg_bb_size();
            assert!(
                (bb - p.avg_bb_size).abs() / p.avg_bb_size < 0.30,
                "{}: static bb {bb:.2} vs target {:.2}",
                p.name,
                p.avg_bb_size
            );
        }
    }

    #[test]
    fn direct_branches_have_targets_inside_program() {
        let prog = build("gcc", 5);
        for inst in prog.iter() {
            if let InstClass::Branch(k) = inst.class {
                match k {
                    BranchKind::Cond | BranchKind::Jump | BranchKind::Call => {
                        let t = inst.target.expect("direct branch without target");
                        assert!(prog.contains(t), "target {t} outside program");
                    }
                    BranchKind::Return => assert!(inst.target.is_none()),
                    BranchKind::Indirect => {
                        if let crate::behavior::Behavior::Indirect(ib) = prog.behavior(inst.id) {
                            assert!(!ib.targets.is_empty());
                            for &t in &ib.targets {
                                assert!(prog.contains(t));
                            }
                        } else {
                            panic!("indirect branch without indirect behavior");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn calls_form_a_dag_toward_higher_addresses_only_from_entry() {
        // Callees are laid out after the driver; any call from a callee must
        // target a strictly later-laid-out function entry, guaranteeing
        // termination of every activation.
        let prog = build("vortex", 9);
        let mut entries: Vec<_> = prog
            .iter()
            .filter(|i| matches!(i.class, InstClass::Branch(BranchKind::Call)))
            .map(|i| i.target.unwrap())
            .collect();
        entries.sort();
        entries.dedup();
        for inst in prog.iter() {
            if matches!(inst.class, InstClass::Branch(BranchKind::Call)) {
                let t = inst.target.unwrap();
                // A call from inside a callee (i.e. from an address ≥ the
                // first callee entry) must go strictly forward.
                if !entries.is_empty() && inst.addr >= entries[0] {
                    assert!(t > inst.addr, "backward call {} -> {}", inst.addr, t);
                }
            }
        }
    }

    #[test]
    fn mem_instructions_have_mem_behavior() {
        let prog = build("mcf", 11);
        let mut chase = 0usize;
        let mut mem = 0usize;
        for inst in prog.iter() {
            if inst.class.is_mem() {
                match prog.behavior(inst.id) {
                    crate::behavior::Behavior::Mem(m) => {
                        mem += 1;
                        if m.is_chase() {
                            chase += 1;
                        }
                    }
                    other => panic!("mem inst with behavior {other:?}"),
                }
            }
        }
        assert!(mem > 100);
        // mcf has chase_frac 0.25 of loads; expect a visible chase share.
        assert!(chase as f64 > mem as f64 * 0.1, "chase {chase}/{mem}");
    }
}
