//! Simulator configuration: the Table 3 machine as constants, and the
//! eight values an experiment varies.
//!
//! The paper evaluates one machine. Its back-end resources are the
//! constants below ([`DECODE_WIDTH`], [`ROB_SIZE`], [`IQ_SIZES`], …); its
//! predictor and memory geometry are the `hpca2004` constructors of
//! `smt-bpred` and `smt-mem`. [`SimConfig`] keeps only what the evaluation
//! and the ablations vary: the four fields of the `POLICY.n.X` fetch policy
//! (STALL/FLUSH included), the fetch-buffer size, the FTQ depth and the two
//! front-end block caps. [`SimConfig::validate`] checks those knobs and
//! reports problems as [`Diagnostic`]s with stable codes (the table lives
//! in the repository README); [`SimBuilder::build`](crate::SimBuilder::build)
//! runs it once, before building anything.

use std::fmt;

use smt_bpred::{Ftb, StreamPredictor};
use smt_isa::{MAX_THREADS, NUM_ARCH_FP, NUM_ARCH_INT};
use smt_mem::CacheConfig;

use crate::diag::Diagnostic;

/// Decode and rename width (Table 3: 8 instructions per cycle).
pub const DECODE_WIDTH: u32 = 8;
/// Commit width (8).
pub(crate) const COMMIT_WIDTH: u32 = 8;
/// Shared reorder-buffer capacity (256).
pub const ROB_SIZE: u32 = 256;
/// Integer physical registers (384).
pub const REGS_INT: u32 = 384;
/// Floating-point physical registers (384).
pub const REGS_FP: u32 = 384;
/// Issue-queue capacities in the pipeline's queue order: integer,
/// load/store, floating point (32 each).
pub const IQ_SIZES: [u32; 3] = [32, 32, 32];
/// Functional units serving each issue queue, in the same order: 6 integer
/// ALUs, 4 load/store units, 3 floating-point units.
pub const FU_COUNTS: [u32; 3] = [6, 4, 3];

// What the machine relies on of Table 3, checked when the crate compiles.
const _: () = {
    assert!(DECODE_WIDTH > 0 && COMMIT_WIDTH > 0 && ROB_SIZE > 0);
    let mut q = 0;
    while q < IQ_SIZES.len() {
        assert!(IQ_SIZES[q] > 0 && FU_COUNTS[q] > 0);
        q += 1;
    }
    // Every context's architectural registers are mapped at start, with a
    // decode group of rename headroom to spare.
    let headroom = DECODE_WIDTH as usize;
    assert!(REGS_INT as usize >= MAX_THREADS * NUM_ARCH_INT as usize + headroom);
    assert!(REGS_FP as usize >= MAX_THREADS * NUM_ARCH_FP as usize + headroom);
    // The L2 holds both L1s (no inclusion thrashing).
    let l1 = CacheConfig::HPCA2004_L1;
    assert!(CacheConfig::HPCA2004_L2.size_bytes >= 2 * l1.size_bytes);
    // The 2.X fetch unit's two I-cache ports need at least two banks, and
    // `Addr::bank` interleaves lines by masking with the bank count.
    assert!(l1.banks >= 2 && l1.banks.is_power_of_two());
};

/// Which high-performance fetch engine drives the front-end (paper §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FetchEngineKind {
    /// gshare (64K, 16-bit history) + BTB (2K, 4-way): the standard SMT
    /// front-end the paper compares against.
    GshareBtb,
    /// gskew (3×32K, 15-bit history) + FTB (2K, 4-way): the first proposed
    /// high-performance engine.
    GskewFtb,
    /// The stream front-end (1K + 4K cascaded stream predictor).
    Stream,
    /// A trace cache backed by a gshare+BTB core fetch unit — the
    /// high-complexity alternative the paper's related work compares
    /// against (Rotenberg et al.); included to reproduce the "stream fetch
    /// is within ~1.5% of a trace cache" comparison.
    TraceCache,
}

impl FetchEngineKind {
    /// The paper's three engines, in its presentation order.
    pub fn all() -> [FetchEngineKind; 3] {
        [
            FetchEngineKind::GshareBtb,
            FetchEngineKind::GskewFtb,
            FetchEngineKind::Stream,
        ]
    }

    /// The paper's engines plus the trace cache comparator.
    pub fn all_with_trace_cache() -> [FetchEngineKind; 4] {
        [
            FetchEngineKind::GshareBtb,
            FetchEngineKind::GskewFtb,
            FetchEngineKind::Stream,
            FetchEngineKind::TraceCache,
        ]
    }
}

impl fmt::Display for FetchEngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchEngineKind::GshareBtb => write!(f, "gshare+BTB"),
            FetchEngineKind::GskewFtb => write!(f, "gskew+FTB"),
            FetchEngineKind::Stream => write!(f, "stream"),
            FetchEngineKind::TraceCache => write!(f, "trace cache"),
        }
    }
}

impl std::str::FromStr for FetchEngineKind {
    type Err = Diagnostic;

    /// Parses the `Display` names and the CLI's short spellings.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gshare+BTB" | "gshare+btb" | "gshare" => Ok(FetchEngineKind::GshareBtb),
            "gskew+FTB" | "gskew+ftb" | "gskew" | "ftb" => Ok(FetchEngineKind::GskewFtb),
            "stream" => Ok(FetchEngineKind::Stream),
            "trace cache" | "tracecache" | "trace" | "tc" => Ok(FetchEngineKind::TraceCache),
            _ => Err(Diagnostic::error(
                "E0016",
                "engine",
                format!("unknown fetch engine {s:?}"),
                "expected one of: gshare+BTB (gshare), gskew+FTB (ftb), stream, trace cache (tc)",
            )),
        }
    }
}

/// How threads are prioritized for prediction/fetch slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyKind {
    /// ICOUNT (Tullsen et al.): prioritize the thread with the fewest
    /// instructions in the pre-issue pipeline stages.
    Icount,
    /// Round-robin rotation among eligible threads.
    RoundRobin,
    /// BRCOUNT (Tullsen et al.): fewest unresolved branches in the
    /// pre-issue stages.
    BrCount,
    /// MISSCOUNT (Tullsen et al.): fewest outstanding long-latency data
    /// misses.
    MissCount,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Icount => write!(f, "ICOUNT"),
            PolicyKind::RoundRobin => write!(f, "RR"),
            PolicyKind::BrCount => write!(f, "BRCOUNT"),
            PolicyKind::MissCount => write!(f, "MISSCOUNT"),
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = Diagnostic;

    /// Parses the paper's policy mnemonics (the `Display` spellings) and
    /// the CLI's lower-case ones.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ICOUNT" | "icount" => Ok(PolicyKind::Icount),
            "RR" | "rr" | "roundrobin" => Ok(PolicyKind::RoundRobin),
            "BRCOUNT" | "brcount" => Ok(PolicyKind::BrCount),
            "MISSCOUNT" | "misscount" => Ok(PolicyKind::MissCount),
            _ => Err(Diagnostic::error(
                "E0017",
                "policy",
                format!("unknown fetch policy {s:?}"),
                "expected one of: ICOUNT (icount), RR (rr), BRCOUNT (brcount), MISSCOUNT (misscount)",
            )),
        }
    }
}

/// What the front-end does about a thread with a long-latency (memory)
/// load in flight — the mechanisms of Tullsen & Brown (MICRO 2001), which
/// the paper's §5.2 cites as the orthodox answer to the resource-clogging
/// problem its 1.X fetch unit sidesteps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LongLatencyAction {
    /// Keep fetching the thread normally (the paper's configurations).
    #[default]
    None,
    /// STALL: gate the thread's prediction/fetch slots until the miss
    /// returns.
    Stall,
    /// FLUSH: additionally squash the thread's instructions younger than
    /// the missing load, freeing the shared queues they occupy.
    Flush,
}

impl fmt::Display for LongLatencyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LongLatencyAction::None => Ok(()),
            LongLatencyAction::Stall => write!(f, "-STALL"),
            LongLatencyAction::Flush => write!(f, "-FLUSH"),
        }
    }
}

/// A fetch policy in the paper's `POLICY.n.X` notation: up to `X`
/// instructions from up to `n` threads per cycle.
///
/// # Example
///
/// ```
/// use smt_core::FetchPolicy;
///
/// let p = FetchPolicy::icount(1, 16);
/// assert_eq!(p.to_string(), "ICOUNT.1.16");
/// assert_eq!(p.threads_per_cycle, 1);
/// assert_eq!(p.width, 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FetchPolicy {
    /// Thread-priority scheme.
    pub kind: PolicyKind,
    /// `n`: threads fetched per cycle (1 or 2).
    pub threads_per_cycle: u32,
    /// `X`: total instructions fetched per cycle (8 or 16).
    pub width: u32,
    /// Long-latency-load handling on top of the priority scheme.
    pub long_latency: LongLatencyAction,
}

impl FetchPolicy {
    /// `kind.n.X`: the body of the named constructors below.
    fn new(kind: PolicyKind, n: u32, width: u32) -> Self {
        assert!((1..=2).contains(&n), "n.X policies with n in {{1, 2}} only");
        assert!(width > 0, "zero fetch width");
        FetchPolicy {
            kind,
            threads_per_cycle: n,
            width,
            long_latency: LongLatencyAction::None,
        }
    }

    /// `ICOUNT.n.X`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn icount(n: u32, width: u32) -> Self {
        FetchPolicy::new(PolicyKind::Icount, n, width)
    }

    /// `RR.n.X` (round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn round_robin(n: u32, width: u32) -> Self {
        FetchPolicy::new(PolicyKind::RoundRobin, n, width)
    }

    /// `BRCOUNT.n.X`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn br_count(n: u32, width: u32) -> Self {
        FetchPolicy::new(PolicyKind::BrCount, n, width)
    }

    /// `MISSCOUNT.n.X`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn miss_count(n: u32, width: u32) -> Self {
        FetchPolicy::new(PolicyKind::MissCount, n, width)
    }

    /// Adds STALL gating for long-latency loads (Tullsen & Brown).
    pub fn with_stall(mut self) -> Self {
        self.long_latency = LongLatencyAction::Stall;
        self
    }

    /// Adds FLUSH recovery for long-latency loads (Tullsen & Brown).
    pub fn with_flush(mut self) -> Self {
        self.long_latency = LongLatencyAction::Flush;
        self
    }

    /// The four policies the paper sweeps: `1.8`, `2.8`, `1.16`, `2.16`.
    pub fn paper_sweep() -> [FetchPolicy; 4] {
        [
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ]
    }
}

impl fmt::Display for FetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}.{}.{}",
            self.kind, self.long_latency, self.threads_per_cycle, self.width
        )
    }
}

/// The values an experiment varies on the Table 3 machine.
///
/// Passive configuration record (public fields by design); everything else
/// about the machine is a Table 3 constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Fetch policy (`ICOUNT.1.8` … `ICOUNT.2.16`, STALL/FLUSH variants).
    pub fetch_policy: FetchPolicy,
    /// Intermediate fetch-buffer capacity in instructions (32).
    pub fetch_buffer: u32,
    /// Per-thread fetch target queue depth (4).
    pub ftq_depth: u32,
    /// Maximum predicted-stream length for the stream front-end (64).
    pub max_stream: u32,
    /// Maximum FTB fetch-block length (16).
    pub max_ftb_block: u32,
}

impl SimConfig {
    /// The paper's baseline configuration (Table 3) with the given fetch
    /// policy.
    pub fn hpca2004(fetch_policy: FetchPolicy) -> Self {
        SimConfig {
            fetch_policy,
            fetch_buffer: 32,
            ftq_depth: 4,
            max_stream: StreamPredictor::HPCA2004_MAX_STREAM,
            max_ftb_block: Ftb::HPCA2004_MAX_BLOCK,
        }
    }

    /// Semantically validates the configuration.
    ///
    /// Returns every problem found (not just the first); an empty vector
    /// means the configuration can be simulated. Builds nothing: the checks
    /// read the knobs alone.
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let p = &self.fetch_policy;
        if !(1..=2).contains(&p.threads_per_cycle) {
            diags.push(Diagnostic::error(
                "E0004",
                "fetch_policy.threads_per_cycle",
                format!(
                    "n.X policies fetch from 1 or 2 threads per cycle (got n = {})",
                    p.threads_per_cycle
                ),
                "use the paper's 1.X or 2.X architectures",
            ));
        }
        if p.width == 0 {
            diags.push(Diagnostic::error(
                "E0004",
                "fetch_policy.width",
                "fetch width X must be positive",
                "the paper sweeps X in {8, 16}",
            ));
        }
        if self.fetch_buffer < p.width {
            diags.push(Diagnostic::error(
                "E0005",
                "fetch_buffer",
                format!(
                    "fetch buffer ({} entries) cannot hold one fetch of width {}",
                    self.fetch_buffer, p.width
                ),
                "make fetch_buffer at least the fetch width (Table 3: 32)",
            ));
        }
        if self.ftq_depth == 0 {
            diags.push(Diagnostic::error(
                "E0006",
                "ftq_depth",
                "decoupled fetch needs at least one FTQ entry per thread",
                "the paper uses 4-deep fetch target queues",
            ));
        }
        if self.max_stream == 0 {
            diags.push(Diagnostic::error(
                "E0012",
                "max_stream",
                "maximum stream length must be positive",
                "the paper caps streams at 64 instructions",
            ));
        }
        if self.max_ftb_block == 0 {
            diags.push(Diagnostic::error(
                "E0012",
                "max_ftb_block",
                "maximum fetch-block length must be positive",
                "the paper uses 16-instruction blocks",
            ));
        }
        diags
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::hpca2004(FetchPolicy::icount(1, 8))
    }
}

#[cfg(test)]
// The validator tests mutate one field of the Table 3 default at a
// time; reassignment after `default()` is the point.
#[expect(clippy::field_reassign_with_default, reason = "one-field mutations")]
mod tests {
    use super::*;

    #[test]
    fn policy_display_matches_paper_notation() {
        assert_eq!(FetchPolicy::icount(2, 8).to_string(), "ICOUNT.2.8");
        assert_eq!(FetchPolicy::icount(1, 16).to_string(), "ICOUNT.1.16");
        assert_eq!(FetchPolicy::round_robin(1, 8).to_string(), "RR.1.8");
        assert_eq!(FetchPolicy::br_count(2, 16).to_string(), "BRCOUNT.2.16");
        assert_eq!(FetchPolicy::miss_count(1, 8).to_string(), "MISSCOUNT.1.8");
    }

    #[test]
    fn paper_sweep_covers_all_four() {
        let names: Vec<String> = FetchPolicy::paper_sweep()
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(
            names,
            ["ICOUNT.1.8", "ICOUNT.2.8", "ICOUNT.1.16", "ICOUNT.2.16"]
        );
    }

    #[test]
    #[should_panic(expected = "n.X")]
    fn three_thread_fetch_rejected() {
        let _ = FetchPolicy::icount(3, 8);
    }

    #[test]
    #[should_panic(expected = "zero fetch width")]
    fn zero_width_fetch_rejected() {
        let _ = FetchPolicy::round_robin(1, 0);
    }

    #[test]
    fn table3_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_buffer, 32);
        assert_eq!(c.ftq_depth, 4);
        assert_eq!((c.max_stream, c.max_ftb_block), (64, 16));
    }

    #[test]
    fn engine_display() {
        assert_eq!(FetchEngineKind::GshareBtb.to_string(), "gshare+BTB");
        assert_eq!(FetchEngineKind::GskewFtb.to_string(), "gskew+FTB");
        assert_eq!(FetchEngineKind::Stream.to_string(), "stream");
        assert_eq!(FetchEngineKind::all().len(), 3);
    }

    // ----- validator -----------------------------------------------------

    fn assert_rejects(cfg: &SimConfig, code: &str, field: &str) {
        let diags = cfg.validate();
        assert!(
            diags.iter().any(|d| d.code == code && d.field == field),
            "expected {code} on {field}, got {diags:?}"
        );
    }

    #[test]
    fn table3_config_validates_clean() {
        for policy in FetchPolicy::paper_sweep() {
            let diags = SimConfig::hpca2004(policy).validate();
            assert!(diags.is_empty(), "{policy}: {diags:?}");
        }
    }

    #[test]
    fn e0004_malformed_policy_rejected() {
        let mut cfg = SimConfig::default();
        cfg.fetch_policy.threads_per_cycle = 3;
        assert_rejects(&cfg, "E0004", "fetch_policy.threads_per_cycle");
        let mut cfg = SimConfig::default();
        cfg.fetch_policy.width = 0;
        assert_rejects(&cfg, "E0004", "fetch_policy.width");
    }

    #[test]
    fn e0005_fetch_buffer_smaller_than_width_rejected() {
        let mut cfg = SimConfig::hpca2004(FetchPolicy::icount(1, 16));
        cfg.fetch_buffer = 8;
        assert_rejects(&cfg, "E0005", "fetch_buffer");
    }

    #[test]
    fn e0006_zero_ftq_depth_rejected() {
        let mut cfg = SimConfig::default();
        cfg.ftq_depth = 0;
        assert_rejects(&cfg, "E0006", "ftq_depth");
    }

    #[test]
    fn e0012_zero_block_limits_rejected() {
        let mut cfg = SimConfig::default();
        cfg.max_stream = 0;
        assert_rejects(&cfg, "E0012", "max_stream");
        let mut cfg = SimConfig::default();
        cfg.max_ftb_block = 0;
        assert_rejects(&cfg, "E0012", "max_ftb_block");
    }

    #[test]
    fn every_problem_is_reported() {
        let cfg = SimConfig {
            fetch_buffer: 4,
            ftq_depth: 0,
            max_stream: 0,
            max_ftb_block: 0,
            ..SimConfig::default()
        };
        let codes: Vec<&str> = cfg.validate().iter().map(|d| d.code).collect();
        assert_eq!(codes, ["E0005", "E0006", "E0012", "E0012"]);
    }
}
