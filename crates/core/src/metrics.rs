//! Simulation statistics: the paper's two headline metrics plus the
//! distributions quoted in §3.1/§3.2.

use smt_isa::MAX_THREADS;

use crate::pipeline::{
    STALL_BANK_CONFLICT, STALL_DCACHE_MISS, STALL_FETCH_STARVED, STALL_ICACHE_MISS,
    STALL_ISSUE_WIDTH, STALL_ROB_FULL,
};

/// Histogram of instructions delivered per fetch cycle (0 ..= 16).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchDistribution {
    buckets: Vec<u64>,
}

impl FetchDistribution {
    /// Creates an empty distribution for widths up to `max_width`.
    pub(crate) fn new(max_width: u32) -> Self {
        FetchDistribution {
            buckets: vec![0; max_width as usize + 1],
        }
    }

    /// Records one fetch cycle that delivered `n` instructions.
    pub(crate) fn record(&mut self, n: u32) {
        let idx = (n as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Total fetch cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of fetch cycles that delivered at least `n` instructions.
    pub fn frac_at_least(&self, n: u32) -> f64 {
        let total = self.cycles();
        if total == 0 {
            return 0.0;
        }
        let ge: u64 = self.buckets.iter().skip(n as usize).sum();
        ge as f64 / total as f64
    }

    /// Fraction of fetch cycles that delivered exactly `n` instructions.
    pub fn frac_exactly(&self, n: u32) -> f64 {
        let total = self.cycles();
        if total == 0 {
            return 0.0;
        }
        self.buckets.get(n as usize).copied().unwrap_or(0) as f64 / total as f64
    }
}

/// Per-thread, per-cycle stall attribution, filled in by the pipeline
/// stages.
///
/// Every simulated cycle, each thread is charged to exactly **one** bucket:
/// the most severe bottleneck any stage observed for it that cycle, or the
/// `residual` bucket when no stage reported one (the thread was making
/// progress, idle, or hidden behind another thread's work). Consequently,
/// for every thread `t`, the six stall buckets plus `residual` sum to
/// [`SimStats::cycles`] — an invariant the test suite asserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles fetch was blocked behind an I-cache miss.
    pub icache_miss: [u64; MAX_THREADS],
    /// Cycles a 2.X second-port access was lost to an I-cache bank conflict.
    pub bank_conflict: [u64; MAX_THREADS],
    /// Cycles the thread was fetch-ready but the fetch policy served other
    /// threads (or the shared fetch buffer was full).
    pub fetch_starved: [u64; MAX_THREADS],
    /// Cycles dispatch was blocked because the shared ROB was full.
    pub rob_full: [u64; MAX_THREADS],
    /// Cycles a ready instruction could not issue for lack of functional
    /// units.
    pub issue_width: [u64; MAX_THREADS],
    /// Cycles commit was blocked behind an outstanding data-cache miss.
    pub dcache_miss: [u64; MAX_THREADS],
    /// Cycles with no attributed stall: progressing, idle, or overlapped.
    pub residual: [u64; MAX_THREADS],
}

impl StallBreakdown {
    /// Sum of all buckets (including the residual) for thread `tid` —
    /// equals [`SimStats::cycles`] for every simulated thread.
    pub fn total(&self, tid: usize) -> u64 {
        self.icache_miss[tid]
            + self.bank_conflict[tid]
            + self.fetch_starved[tid]
            + self.rob_full[tid]
            + self.issue_width[tid]
            + self.dcache_miss[tid]
            + self.residual[tid]
    }

    /// Charges `cycles` cycles of thread `tid` to the most severe stall
    /// among the observation bits `flags` (`pipeline::STALL_*`), or to the
    /// residual when none is set.
    ///
    /// Severity order (commit side outranks fetch side, since a blocked
    /// commit stalls the thread regardless of how well fetch is going):
    /// data-cache miss > ROB full > issue width > I-cache miss > bank
    /// conflict > fetch-policy starvation.
    pub(crate) fn charge(&mut self, tid: usize, flags: u8, cycles: u64) {
        let bucket = if flags & STALL_DCACHE_MISS != 0 {
            &mut self.dcache_miss
        } else if flags & STALL_ROB_FULL != 0 {
            &mut self.rob_full
        } else if flags & STALL_ISSUE_WIDTH != 0 {
            &mut self.issue_width
        } else if flags & STALL_ICACHE_MISS != 0 {
            &mut self.icache_miss
        } else if flags & STALL_BANK_CONFLICT != 0 {
            &mut self.bank_conflict
        } else if flags & STALL_FETCH_STARVED != 0 {
            &mut self.fetch_starved
        } else {
            &mut self.residual
        };
        bucket[tid] += cycles;
    }
}

/// Aggregated statistics of one simulation run.
///
/// Passive data record (public fields by design); produced by the simulator,
/// consumed by the experiment harness. Every field is an integer counter, so
/// equality is exact — the determinism tests compare whole `SimStats` values with
/// `==` to assert that reruns (serial or on different sweep workers) are
/// bit-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Cycles in which the fetch stage issued at least one I-cache access
    /// — the paper's IPFC denominator ("instructions provided by the fetch
    /// unit on every fetch request").
    pub fetch_cycles: u64,
    /// Instructions delivered by the fetch stage (correct + wrong path).
    pub fetched: u64,
    /// Wrong-path instructions delivered.
    pub fetched_wrong_path: u64,
    /// Instructions committed, per thread.
    pub committed: [u64; MAX_THREADS],
    /// Instructions squashed.
    pub squashed: u64,
    /// Conditional branches resolved on the correct path.
    pub cond_branches: u64,
    /// Conditional branches mispredicted (direction) on the correct path.
    pub cond_mispredicts: u64,
    /// Correct-path branches of any kind whose speculative next PC was
    /// wrong (direction, target, or misfetch).
    pub control_mispredicts: u64,
    /// Fetch blocks predicted.
    pub blocks_predicted: u64,
    /// Cycles in which fetch was stalled because the fetch buffer was full.
    pub fetch_buffer_stalls: u64,
    /// Cycles a 2.X second thread lost to an I-cache bank conflict.
    pub bank_conflicts: u64,
    /// Distribution of instructions per fetch cycle.
    pub distribution: FetchDistribution,
    /// Committed conditional branches that end a predicted block and whose
    /// prediction-time history checkpoint differs, in up to its 16 low
    /// bits, from the commit-time history `commit_hist`, which shifts on
    /// every committed conditional. A diagnostic that is not yet exact:
    /// gshare+BTB, where every conditional ends a block, counts 1.1–2.4%
    /// of its committed conditionals on the ILP workloads, and the block
    /// engines should compare against the block-end history
    /// `CommitPath::hist_end` instead (ROADMAP item 4).
    pub hist_mismatches: u64,
    /// Long-latency-load FLUSH events (Tullsen & Brown mechanism).
    pub flushes: u64,
    /// Per-thread stall attribution (one bucket per thread per cycle).
    pub stalls: StallBreakdown,
    /// Cycles skipped while the binding event was a data-side memory
    /// expiry (a load's completion). Skipped cycles are already included in
    /// `cycles`; the four `skip_*` counters are diagnostics for how much of
    /// the run the event-driven scheduler jumped over, split by the reason
    /// of the earliest event.
    pub skip_mem_wait: u64,
    /// Cycles skipped waiting on issue-side events: operand readiness in
    /// the issue queues, a non-load completion, or a decode-redirect timer.
    pub skip_issue_wait: u64,
    /// Cycles skipped waiting on an I-cache miss return (FTQ head blocked).
    pub skip_ftq_wait: u64,
    /// Cycles skipped while the STALL/FLUSH policy gate was the binding
    /// event (fetch deliberately idled until the long-latency load returns).
    pub skip_policy_idle: u64,
}

impl SimStats {
    /// Creates zeroed statistics for a given maximum fetch width.
    pub(crate) fn new(max_width: u32) -> Self {
        SimStats {
            distribution: FetchDistribution::new(max_width),
            ..SimStats::default()
        }
    }

    /// Total committed instructions across threads.
    pub fn total_committed(&self) -> u64 {
        self.committed.iter().sum()
    }

    /// Total cycles skipped by the event-driven scheduler, across every
    /// skip reason (already included in `cycles`).
    pub fn skipped_cycles(&self) -> u64 {
        self.skip_mem_wait + self.skip_issue_wait + self.skip_ftq_wait + self.skip_policy_idle
    }

    /// Commit throughput in instructions per cycle — the paper's overall
    /// SMT performance metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total_committed() as f64 / self.cycles as f64
    }

    /// Fetch throughput in instructions per fetch cycle — the paper's fetch
    /// performance metric.
    pub fn ipfc(&self) -> f64 {
        if self.fetch_cycles == 0 {
            return 0.0;
        }
        self.fetched as f64 / self.fetch_cycles as f64
    }

    /// Conditional-branch direction prediction accuracy in [0, 1].
    pub fn branch_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            return 1.0;
        }
        1.0 - self.cond_mispredicts as f64 / self.cond_branches as f64
    }

    /// Fraction of fetched instructions on the wrong path.
    pub fn wrong_path_fraction(&self) -> f64 {
        if self.fetched == 0 {
            return 0.0;
        }
        self.fetched_wrong_path as f64 / self.fetched as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_ipfc() {
        let mut s = SimStats::new(8);
        s.cycles = 1000;
        s.fetch_cycles = 800;
        s.fetched = 4000;
        s.committed[0] = 1500;
        s.committed[1] = 1500;
        assert!((s.ipc() - 3.0).abs() < 1e-12);
        assert!((s.ipfc() - 5.0).abs() < 1e-12);
        assert_eq!(s.total_committed(), 3000);
    }

    #[test]
    fn zero_cycles_are_safe() {
        let s = SimStats::new(8);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.ipfc(), 0.0);
        assert_eq!(s.branch_accuracy(), 1.0);
        assert_eq!(s.wrong_path_fraction(), 0.0);
    }

    #[test]
    fn distribution_fractions() {
        let mut d = FetchDistribution::new(8);
        d.record(0);
        d.record(4);
        d.record(8);
        d.record(8);
        assert_eq!(d.cycles(), 4);
        assert!((d.frac_at_least(4) - 0.75).abs() < 1e-12);
        assert!((d.frac_at_least(8) - 0.5).abs() < 1e-12);
        assert!((d.frac_exactly(8) - 0.5).abs() < 1e-12);
        assert!((d.frac_at_least(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_clamps_overwide_records() {
        let mut d = FetchDistribution::new(8);
        d.record(12); // clamped into the top bucket
        assert!((d.frac_exactly(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy() {
        let mut s = SimStats::new(8);
        s.cond_branches = 100;
        s.cond_mispredicts = 7;
        assert!((s.branch_accuracy() - 0.93).abs() < 1e-12);
    }
}
