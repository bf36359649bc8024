//! The SMT out-of-order pipeline simulator.
//!
//! A 9-stage decoupled pipeline, cycle by cycle:
//!
//! ```text
//! predict → [FTQ] → fetch → [fetch buffer] → decode → rename → dispatch
//!          → [issue queues] → issue/execute → writeback → commit
//! ```
//!
//! The prediction stage and the fetch stage are decoupled through per-thread
//! fetch target queues (the paper's §4 modification of SMTSIM, after
//! Reinman et al. and Falcón et al. \[7\]); the fetch policy (ICOUNT) selects
//! both the thread the predictor serves and the FTQ(s) the fetch stage
//! drains. The fetch stage implements both architectures of the paper:
//! **1.X** (Figure 1: one thread per cycle, single I-cache port) and **2.X**
//! (Figure 3: two threads, two ports, bank-conflict logic, merge).
//!
//! Each stage lives in [`crate::pipeline`] as a tick function over the
//! shared `PipelineCtx` that reports whether it acted; the `Simulator` here
//! is the thin composition root: it builds that context, ticks every stage
//! once per [`Simulator::step`], and in [`Simulator::run_cycles`] lets the
//! event-driven scheduler skip the cycles after one in which no stage
//! acted.

use std::sync::Arc;

use smt_isa::{ArchReg, Presized, MAX_THREADS};
use smt_mem::MemoryHierarchy;
use smt_workloads::Program;

use crate::config::{
    FetchEngineKind, FetchPolicy, SimConfig, DECODE_WIDTH, FU_COUNTS, IQ_SIZES, REGS_FP, REGS_INT,
    ROB_SIZE,
};
use crate::diag::Diagnostic;
use crate::frontend::FrontEnd;
use crate::metrics::SimStats;
use crate::pipeline::{advance, end_cycles, tick, FrontFifo, PipelineCtx};
use crate::thread::ThreadState;
use crate::window::PhysReg;

/// Error constructing a [`Simulator`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// No programs were supplied.
    NoThreads,
    /// More programs than hardware contexts.
    TooManyThreads {
        /// Programs supplied.
        got: usize,
    },
    /// The configuration failed semantic validation
    /// ([`SimConfig::validate`]); the diagnostics describe every error
    /// found.
    InvalidConfig(Vec<Diagnostic>),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoThreads => write!(f, "workload has no programs"),
            BuildError::TooManyThreads { got } => {
                write!(
                    f,
                    "workload has {got} programs but at most {MAX_THREADS} contexts"
                )
            }
            BuildError::InvalidConfig(diags) => {
                write!(f, "configuration failed validation:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Simulator`].
///
/// # Example
///
/// ```
/// use smt_core::{FetchEngineKind, FetchPolicy, SimBuilder};
/// use smt_workloads::Workload;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = SimBuilder::new(Workload::mix2().programs(1)?)
///     .fetch_engine(FetchEngineKind::GskewFtb)
///     .fetch_policy(FetchPolicy::icount(2, 8))
///     .build()?;
/// let stats = sim.run_cycles(5_000);
/// assert!(stats.total_committed() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SimBuilder {
    programs: Vec<Arc<Program>>,
    engine: FetchEngineKind,
    cfg: SimConfig,
}

impl SimBuilder {
    /// Starts a builder for the given per-thread programs.
    pub fn new(programs: Vec<Program>) -> Self {
        SimBuilder::new_shared(programs.into_iter().map(Arc::new).collect())
    }

    /// Starts a builder for already-shared per-thread programs.
    ///
    /// Programs are immutable once built, so sweep cells (and threads
    /// running the same binary) can hand the same `Arc` to many simulators
    /// instead of deep-cloning megabytes of instruction and behavior
    /// tables per cell.
    pub fn new_shared(programs: Vec<Arc<Program>>) -> Self {
        SimBuilder {
            programs,
            engine: FetchEngineKind::GshareBtb,
            cfg: SimConfig::default(),
        }
    }

    /// Selects the fetch engine (default: gshare+BTB).
    pub fn fetch_engine(mut self, kind: FetchEngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// Selects the fetch policy (default: `ICOUNT.1.8`).
    pub fn fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.cfg.fetch_policy = policy;
        self
    }

    /// Replaces the whole configuration (Table 3 values by default).
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Builds the simulator.
    ///
    /// # Errors
    ///
    /// Fails if no programs or more than [`MAX_THREADS`] were supplied, or
    /// if [`SimConfig::validate`] finds a problem.
    pub fn build(self) -> Result<Simulator, BuildError> {
        Simulator::new(self.programs, self.engine, self.cfg)
    }
}

/// The SMT processor simulator: the whole machine state, ticked stage by
/// stage in reverse pipeline order each cycle.
#[derive(Clone, Debug)]
pub struct Simulator {
    pub(crate) ctx: PipelineCtx,
}

// The experiment harness moves each sweep cell's `Simulator` (and the
// configuration that builds it) onto a worker thread. The simulator owns
// every piece of its state — no `Rc`, `RefCell`, raw pointers or thread
// handles anywhere in the pipeline — so `Send` must hold structurally.
// This compile-time audit fails the build if a future field breaks that.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>();
    assert_send::<SimBuilder>();
    assert_send::<SimConfig>();
    assert_send::<SimStats>();
    assert_send::<BuildError>();
};

impl Simulator {
    pub(crate) fn new(
        programs: Vec<Arc<Program>>,
        engine_kind: FetchEngineKind,
        cfg: SimConfig,
    ) -> Result<Self, BuildError> {
        if programs.is_empty() {
            return Err(BuildError::NoThreads);
        }
        if programs.len() > MAX_THREADS {
            return Err(BuildError::TooManyThreads {
                got: programs.len(),
            });
        }
        let n = programs.len();
        let diags = cfg.validate();
        if !diags.is_empty() {
            return Err(BuildError::InvalidConfig(diags));
        }
        let frontend = FrontEnd::hpca2004(engine_kind, &cfg);
        let hist_bits = frontend.history_bits();

        let total_regs = (REGS_INT + REGS_FP) as usize;
        let mut free_int: Vec<PhysReg> = (0..REGS_INT).rev().collect();
        let mut free_fp: Vec<PhysReg> = (REGS_INT..REGS_INT + REGS_FP).rev().collect();
        // One extra, never-allocated register: the zero register missing
        // issue-queue sources name (`PipelineCtx::zero_reg`).
        let ready_at = vec![0u64; total_regs + 1];

        let mut threads: Vec<ThreadState> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| ThreadState::new(i, p, hist_bits))
            .collect();
        // Every window entry is either pre-dispatch (mirrored by a latch or
        // fetch-buffer slot) or dispatched (holds a ROB slot), so this bounds
        // the window — and with it the outstanding-miss list — for good.
        let window_cap = (ROB_SIZE + cfg.fetch_buffer + 2 * DECODE_WIDTH) as usize;
        // Architect the initial register mappings.
        for th in &mut threads {
            th.presize(cfg.ftq_depth as usize, window_cap);
            #[expect(
                clippy::expect_used,
                reason = "Table 3 registers cover MAX_THREADS contexts"
            )]
            let rename_map = (0..ArchReg::flat_count())
                .map(|flat| {
                    if flat < smt_isa::NUM_ARCH_INT as usize {
                        free_int
                            .pop()
                            .expect("enough int registers for initial maps")
                    } else {
                        free_fp.pop().expect("enough fp registers for initial maps")
                    }
                })
                .collect();
            th.rename_map = rename_map;
        }

        // The Table 3 machine provisions one outstanding fetch miss per
        // context.
        let mem = MemoryHierarchy::hpca2004(n);

        let width = cfg.fetch_policy.width;
        // Every queue is built at its configuration-derived high-water mark,
        // so the steady-state cycle loop never grows (= never reallocates)
        // any of them.
        let ctx = PipelineCtx {
            frontend,
            mem,
            threads,
            cycle: 0,
            front: FrontFifo::new(cfg.fetch_buffer as usize, DECODE_WIDTH as usize),
            iq: IQ_SIZES.map(|n| Presized::vec(n as usize)),
            stats_since: 0,
            free: [free_int.into(), free_fp.into()],
            ready_at,
            rob_occ: 0,
            preissue: [0; MAX_THREADS],
            stall_flags: [0; MAX_THREADS],
            stats: SimStats::new(width),
            // Only issued loads request flushes, at most one per L/S unit.
            // Allocated last (see the field).
            pending_flushes: Presized::vec(FU_COUNTS[1] as usize),
            cfg,
        };
        Ok(Simulator { ctx })
    }

    /// Statistics since construction or the last [`Simulator::reset_stats`].
    pub fn stats(&self) -> &SimStats {
        &self.ctx.stats
    }

    /// Clears the statistics while keeping all microarchitectural state
    /// (predictor tables, caches, in-flight instructions) — the standard way
    /// to exclude warmup from measurements.
    pub fn reset_stats(&mut self) {
        self.ctx.stats = SimStats::new(self.ctx.cfg.fetch_policy.width);
        self.ctx.stats_since = self.ctx.cycle;
    }

    /// Runs for `n` cycles and returns the cumulative statistics.
    ///
    /// The return value borrows the simulator's own counters (clone it if
    /// you need the snapshot to outlive further stepping).
    pub fn run_cycles(&mut self, n: u64) -> &SimStats {
        let mut left = n;
        while left > 0 {
            left -= advance(&mut self.ctx, left);
        }
        &self.ctx.stats
    }

    /// Advances the machine one cycle, never skipping.
    pub fn step(&mut self) {
        tick(&mut self.ctx);
        end_cycles(&mut self.ctx, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::Workload;

    fn sim(engine: FetchEngineKind, policy: FetchPolicy) -> Simulator {
        SimBuilder::new(Workload::mix2().programs(3).expect("programs"))
            .fetch_engine(engine)
            .fetch_policy(policy)
            .build()
            .expect("build")
    }

    #[test]
    fn reset_stats_keeps_microarchitectural_state() {
        let mut s = sim(FetchEngineKind::GshareBtb, FetchPolicy::icount(1, 8));
        s.run_cycles(5_000);
        let committed_before = s.stats().total_committed();
        assert!(committed_before > 0);
        s.reset_stats();
        assert_eq!(s.stats().total_committed(), 0);
        assert_eq!(s.stats().cycles, 0);
        // State survived: the machine keeps committing immediately, at a
        // rate at least as good as the cold start (warm predictors/caches).
        let warm = s.run_cycles(5_000);
        assert!(warm.total_committed() >= committed_before / 2);
        assert_eq!(warm.cycles, 5_000);
    }

    #[test]
    fn step_advances_exactly_one_cycle() {
        let mut s = sim(FetchEngineKind::GskewFtb, FetchPolicy::icount(1, 8));
        for expect in 1..=10u64 {
            s.step();
            assert_eq!(s.ctx.cycle, expect);
        }
    }

    /// The squash-heavy 2-thread cell, plus `ICOUNT.2.8` with FLUSH on the
    /// 4-thread mix (asserted to flush), so both callers of the shared
    /// rollback run under the invariant checks below.
    fn rollback_cells() -> [(Simulator, bool); 2] {
        let flush = SimBuilder::new(Workload::mix4().programs(3).expect("programs"))
            .fetch_policy(FetchPolicy::icount(2, 8).with_flush())
            .build()
            .expect("build");
        [
            (
                sim(FetchEngineKind::GshareBtb, FetchPolicy::icount(2, 8)),
                false,
            ),
            (flush, true),
        ]
    }

    #[test]
    fn window_stays_contiguous_under_squashes() {
        // Run long enough to take many squash/redirect (and FLUSH) cycles
        // and verify the per-thread window sequence-number invariant the
        // O(1) lookup relies on.
        for (mut s, flushing) in rollback_cells() {
            for _ in 0..200 {
                s.run_cycles(50);
                for (tid, th) in s.ctx.threads.iter().enumerate() {
                    let mut prev = None;
                    for ctl in th.window.iter() {
                        if let Some(p) = prev {
                            assert_eq!(ctl.seq, p + 1, "window gap in thread {tid}");
                        }
                        prev = Some(ctl.seq);
                    }
                }
            }
            assert!(s.stats().squashed > 0, "test never exercised a squash");
            assert_eq!(s.stats().flushes > 0, flushing, "FLUSH coverage");
        }
    }

    #[test]
    fn physical_registers_are_conserved() {
        // free + in-flight-held + architectural = total, at every point.
        let stream = sim(FetchEngineKind::Stream, FetchPolicy::icount(2, 16));
        let [_, flush] = rollback_cells();
        for (mut s, flushing) in [(stream, false), flush] {
            let mapped = s.ctx.threads.len() * smt_isa::ArchReg::flat_count();
            for _ in 0..100 {
                s.run_cycles(100);
                let held: usize = s
                    .ctx
                    .threads
                    .iter()
                    .flat_map(|t| t.window.iter())
                    .filter(|c| c.dispatched() && c.phys_dest.is_some())
                    .count();
                let free: usize = s.ctx.free.iter().map(|f| f.len()).sum();
                assert_eq!(
                    free + held + mapped,
                    (REGS_INT + REGS_FP) as usize,
                    "register leak or double-free"
                );
            }
            assert_eq!(s.stats().flushes > 0, flushing, "FLUSH coverage");
        }
    }

    #[test]
    fn stall_buckets_sum_to_cycles_per_thread() {
        let mut s = sim(FetchEngineKind::GshareBtb, FetchPolicy::icount(2, 8));
        let n = s.ctx.threads.len();
        s.run_cycles(3_000);
        let stats = s.stats();
        for tid in 0..n {
            assert_eq!(
                stats.stalls.total(tid),
                stats.cycles,
                "stall buckets + residual must equal cycles for thread {tid}"
            );
        }
        for tid in n..MAX_THREADS {
            assert_eq!(stats.stalls.total(tid), 0, "inactive thread {tid} charged");
        }
    }
}
