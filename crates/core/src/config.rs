//! Simulator configuration (Table 3 of the paper) and its semantic
//! validator.
//!
//! [`SimConfig::validate`] checks every structural invariant the simulator
//! relies on — predictor table geometry, memory-hierarchy shapes,
//! fetch-policy × hardware compatibility, resource bounds — and reports
//! problems as [`Diagnostic`]s with stable codes (the table lives in the
//! repository README). [`Simulator`](crate::Simulator) construction and
//! every experiment binary run the validator before simulating.

use std::fmt;

use smt_isa::{Diagnostic, NUM_ARCH_FP, NUM_ARCH_INT};
use smt_mem::{MemoryConfig, MemoryHierarchy};

use crate::frontend::{FrontEnd, GshareBtb, GskewFtb, LINE_BYTES};

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
    /// `ICOUNT.n.X`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn icount(n: u32, width: u32) -> Self {
        assert!((1..=2).contains(&n), "n.X policies with n in {{1, 2}} only");
        assert!(width > 0, "zero fetch width");
        FetchPolicy {
            kind: PolicyKind::Icount,
            threads_per_cycle: n,
            width,
            long_latency: LongLatencyAction::None,
        }
    }

    /// `RR.n.X` (round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn round_robin(n: u32, width: u32) -> Self {
        assert!((1..=2).contains(&n), "n.X policies with n in {{1, 2}} only");
        assert!(width > 0, "zero fetch width");
        FetchPolicy {
            kind: PolicyKind::RoundRobin,
            threads_per_cycle: n,
            width,
            long_latency: LongLatencyAction::None,
        }
    }

    /// `BRCOUNT.n.X`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn br_count(n: u32, width: u32) -> Self {
        assert!((1..=2).contains(&n), "n.X policies with n in {{1, 2}} only");
        assert!(width > 0, "zero fetch width");
        FetchPolicy {
            kind: PolicyKind::BrCount,
            threads_per_cycle: n,
            width,
            long_latency: LongLatencyAction::None,
        }
    }

    /// `MISSCOUNT.n.X`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not 1 or 2, or `width` is 0.
    pub fn miss_count(n: u32, width: u32) -> Self {
        assert!((1..=2).contains(&n), "n.X policies with n in {{1, 2}} only");
        assert!(width > 0, "zero fetch width");
        FetchPolicy {
            kind: PolicyKind::MissCount,
            threads_per_cycle: n,
            width,
            long_latency: LongLatencyAction::None,
        }
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

impl std::str::FromStr for FetchPolicy {
    type Err = Diagnostic;

    /// Parses the paper's `POLICY[-STALL|-FLUSH].n.X` notation — the exact
    /// strings `Display` produces (e.g. `"ICOUNT.2.8"`,
    /// `"ICOUNT-FLUSH.1.16"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |why: &str| {
            Diagnostic::error(
                "E0017",
                "policy",
                format!("malformed fetch policy {s:?}: {why}"),
                "expected POLICY[-STALL|-FLUSH].n.X, e.g. ICOUNT.2.8",
            )
        };
        let (rest, width_s) = s.rsplit_once('.').ok_or_else(|| bad("missing .X"))?;
        let (head, n_s) = rest.rsplit_once('.').ok_or_else(|| bad("missing .n"))?;
        let width: u32 = width_s.parse().map_err(|_| bad("X is not an integer"))?;
        let n: u32 = n_s.parse().map_err(|_| bad("n is not an integer"))?;
        if !(1..=2).contains(&n) {
            return Err(bad("n must be 1 or 2"));
        }
        if width == 0 {
            return Err(bad("X must be positive"));
        }
        let (kind_s, long_latency) = if let Some(k) = head.strip_suffix("-STALL") {
            (k, LongLatencyAction::Stall)
        } else if let Some(k) = head.strip_suffix("-FLUSH") {
            (k, LongLatencyAction::Flush)
        } else {
            (head, LongLatencyAction::None)
        };
        Ok(FetchPolicy {
            kind: kind_s.parse()?,
            threads_per_cycle: n,
            width,
            long_latency,
        })
    }
}

/// Branch-predictor and fetch-engine table geometry (Table 3).
///
/// Passive configuration record (public fields by design). Structural
/// legality (power-of-two tables, associativity dividing entries, positive
/// depths) is checked by [`SimConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// gshare pattern-history table entries (64K).
    pub gshare_entries: usize,
    /// gskew entries per bank, three banks (32K).
    pub gskew_entries_per_bank: usize,
    /// Branch target buffer entries (2K).
    pub btb_entries: usize,
    /// BTB associativity (4).
    pub btb_ways: usize,
    /// Fetch target buffer entries (2K).
    pub ftb_entries: usize,
    /// FTB associativity (4).
    pub ftb_ways: usize,
    /// Return-address-stack depth, replicated per thread (64).
    pub ras_depth: usize,
    /// First-level stream-predictor entries (1K).
    pub stream_l1_entries: usize,
    /// Second-level (DOLC-indexed) stream-predictor entries (4K).
    pub stream_l2_entries: usize,
    /// Stream-table associativity, both levels (4).
    pub stream_ways: usize,
    /// Trace-cache lines (512), for the related-work comparator.
    pub tc_entries: usize,
    /// Trace-cache associativity (4).
    pub tc_ways: usize,
}

impl PredictorConfig {
    /// The paper's Table 3 predictor geometry.
    pub fn hpca2004() -> Self {
        PredictorConfig {
            gshare_entries: 64 * 1024,
            gskew_entries_per_bank: 32 * 1024,
            btb_entries: 2048,
            btb_ways: 4,
            ftb_entries: 2048,
            ftb_ways: 4,
            ras_depth: 64,
            stream_l1_entries: 1024,
            stream_l2_entries: 4096,
            stream_ways: 4,
            tc_entries: 512,
            tc_ways: 4,
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::hpca2004()
    }
}

/// Processor resources (Table 3).
///
/// Passive configuration record (public fields by design).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Fetch policy (`ICOUNT.1.8` … `ICOUNT.2.16`).
    pub fetch_policy: FetchPolicy,
    /// Intermediate fetch-buffer capacity in instructions (32).
    pub fetch_buffer: u32,
    /// Decode and rename width (8).
    pub decode_width: u32,
    /// Commit width (8).
    pub commit_width: u32,
    /// Per-thread fetch target queue depth (4).
    pub ftq_depth: u32,
    /// Integer issue-queue capacity (32).
    pub iq_int: u32,
    /// Load/store issue-queue capacity (32).
    pub iq_ls: u32,
    /// Floating-point issue-queue capacity (32).
    pub iq_fp: u32,
    /// Shared reorder-buffer capacity (256).
    pub rob_size: u32,
    /// Integer physical registers (384).
    pub regs_int: u32,
    /// Floating-point physical registers (384).
    pub regs_fp: u32,
    /// Integer ALUs (6).
    pub fu_int: u32,
    /// Load/store units (4).
    pub fu_ls: u32,
    /// Floating-point units (3).
    pub fu_fp: u32,
    /// Maximum predicted-stream length for the stream front-end (64).
    pub max_stream: u32,
    /// Maximum FTB fetch-block length (16).
    pub max_ftb_block: u32,
    /// Branch-predictor and fetch-engine table geometry.
    pub predictor: PredictorConfig,
    /// Memory-hierarchy geometry (caches, MSHRs, TLBs). `mem.i_mshrs` is a
    /// floor: the simulator raises it to one MSHR per hardware thread, the
    /// paper's requirement.
    pub mem: MemoryConfig,
}

impl SimConfig {
    /// The paper's baseline configuration (Table 3) with the given fetch
    /// policy.
    pub fn hpca2004(fetch_policy: FetchPolicy) -> Self {
        SimConfig {
            fetch_policy,
            fetch_buffer: 32,
            decode_width: 8,
            commit_width: 8,
            ftq_depth: 4,
            iq_int: 32,
            iq_ls: 32,
            iq_fp: 32,
            rob_size: 256,
            regs_int: 384,
            regs_fp: 384,
            fu_int: 6,
            fu_ls: 4,
            fu_fp: 3,
            max_stream: 64,
            max_ftb_block: 16,
            predictor: PredictorConfig::hpca2004(),
            mem: MemoryConfig::hpca2004(1),
        }
    }

    /// Issue-queue capacities in the pipeline's queue order: integer,
    /// load/store, floating point.
    pub(crate) fn iq_sizes(&self) -> [u32; 3] {
        [self.iq_int, self.iq_ls, self.iq_fp]
    }

    /// Functional units serving each issue queue, in the same order.
    pub(crate) fn fu_counts(&self) -> [u32; 3] {
        [self.fu_int, self.fu_ls, self.fu_fp]
    }

    /// Semantically validates the configuration for a single-thread run.
    ///
    /// Returns every problem found (not just the first): `E`-codes are
    /// structural errors — the configuration must not be simulated —
    /// `W`-codes are legal-but-suspicious warnings. An empty vector means
    /// the configuration is clean. See [`SimConfig::validate_for_threads`]
    /// for thread-count-dependent resource checks.
    pub fn validate(&self) -> Vec<Diagnostic> {
        self.validate_for_threads(1)
    }

    /// Semantically validates the configuration for `threads` hardware
    /// contexts (adds the register-file sufficiency checks `E0007`/`W0102`).
    pub fn validate_for_threads(&self, threads: usize) -> Vec<Diagnostic> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        let push = |diags: &mut Vec<Diagnostic>, d: Diagnostic| {
            // Engines share substrates (e.g. the BTB), so construction can
            // report the same finding twice; keep the first of each.
            if !diags
                .iter()
                .any(|x| x.code == d.code && x.field == d.field && x.message == d.message)
            {
                diags.push(d);
            }
        };

        // --- Fetch policy shape (E0004) and compatibility (E0003). ---
        let p = &self.fetch_policy;
        if !(1..=2).contains(&p.threads_per_cycle) {
            push(
                &mut diags,
                Diagnostic::error(
                    "E0004",
                    "fetch_policy.threads_per_cycle",
                    format!(
                        "n.X policies fetch from 1 or 2 threads per cycle (got n = {})",
                        p.threads_per_cycle
                    ),
                    "use the paper's 1.X or 2.X architectures",
                ),
            );
        }
        if p.width == 0 {
            push(
                &mut diags,
                Diagnostic::error(
                    "E0004",
                    "fetch_policy.width",
                    "fetch width X must be positive".to_string(),
                    "the paper sweeps X in {8, 16}",
                ),
            );
        }
        if p.threads_per_cycle == 2 && self.mem.l1i.banks < 2 {
            push(
                &mut diags,
                Diagnostic::error(
                    "E0003",
                    "fetch_policy.threads_per_cycle",
                    format!(
                        "a 2.X fetch architecture needs a multi-banked I-cache \
                     (got {} bank)",
                        self.mem.l1i.banks
                    ),
                    "give mem.l1i at least 2 banks (Table 3 uses 8) or use a 1.X policy",
                ),
            );
        }

        // --- Front-end buffering (E0005, E0006). ---
        if self.fetch_buffer < p.width {
            push(
                &mut diags,
                Diagnostic::error(
                    "E0005",
                    "fetch_buffer",
                    format!(
                        "fetch buffer ({} entries) cannot hold one fetch of width {}",
                        self.fetch_buffer, p.width
                    ),
                    "make fetch_buffer at least the fetch width (Table 3: 32)",
                ),
            );
        }
        if self.ftq_depth == 0 {
            push(
                &mut diags,
                Diagnostic::error(
                    "E0006",
                    "ftq_depth",
                    "decoupled fetch needs at least one FTQ entry per thread".to_string(),
                    "the paper uses 4-deep fetch target queues",
                ),
            );
        }

        // --- Back-end resources (E0008). ---
        for (field, v) in [
            ("decode_width", self.decode_width),
            ("commit_width", self.commit_width),
            ("rob_size", self.rob_size),
            ("iq_int", self.iq_int),
            ("iq_ls", self.iq_ls),
            ("iq_fp", self.iq_fp),
            ("fu_int", self.fu_int),
            ("fu_ls", self.fu_ls),
            ("fu_fp", self.fu_fp),
        ] {
            if v == 0 {
                push(
                    &mut diags,
                    Diagnostic::error(
                        "E0008",
                        field,
                        "pipeline resource must be positive".to_string(),
                        "see Table 3 for the paper's sizes",
                    ),
                );
            }
        }

        // --- Register files vs. thread count (E0007, W0102). ---
        #[expect(clippy::cast_possible_truncation, reason = "threads ≤ MAX_THREADS = 8")]
        let threads = threads.max(1) as u32;
        let (need_int, need_fp) = (
            threads * u32::from(NUM_ARCH_INT),
            threads * u32::from(NUM_ARCH_FP),
        );
        for (field, have, need) in [
            ("regs_int", self.regs_int, need_int),
            ("regs_fp", self.regs_fp, need_fp),
        ] {
            if have < need {
                push(
                    &mut diags,
                    Diagnostic::error(
                        "E0007",
                        field,
                        format!(
                            "{have} physical registers cannot architect {threads} \
                         thread(s) × 32 architectural registers"
                        ),
                        "Table 3 provides 384 of each class for 8 contexts",
                    ),
                );
            } else if have < need + self.decode_width {
                push(
                    &mut diags,
                    Diagnostic::warning(
                        "W0102",
                        field,
                        format!(
                            "{have} physical registers leave fewer than \
                         decode_width ({}) free after architecting {threads} \
                         thread(s); rename will stall immediately",
                            self.decode_width
                        ),
                        "provide headroom beyond 32 per thread",
                    ),
                );
            }
        }

        // --- Predictor geometry: validate by construction (E0001, E0002,
        // E0012), exactly the checks the real constructors apply. ---
        for kind in FetchEngineKind::all_with_trace_cache() {
            if let Err(d) = FrontEnd::build(kind, self) {
                push(&mut diags, d);
            }
        }
        if let Err(d) = smt_bpred::ReturnStack::new(self.predictor.ras_depth) {
            push(&mut diags, d.in_field("predictor.ras_depth"));
        }
        // --- The engines' fixed history lengths vs. table index bits
        // (W0101). ---
        for (field, bits, entries) in [
            (
                "predictor.gshare_entries",
                GshareBtb::HIST_BITS,
                self.predictor.gshare_entries,
            ),
            (
                "predictor.gskew_entries_per_bank",
                GskewFtb::HIST_BITS,
                self.predictor.gskew_entries_per_bank,
            ),
        ] {
            if entries.is_power_of_two() && u64::from(bits) > entries.trailing_zeros() as u64 {
                push(
                    &mut diags,
                    Diagnostic::warning(
                        "W0101",
                        field,
                        format!(
                            "{bits}-bit history exceeds the {} index bits of a \
                         {entries}-entry table; distinct histories will alias",
                            entries.trailing_zeros()
                        ),
                        format!("grow the table to at least {} entries", 1u64 << bits),
                    ),
                );
            }
        }

        // --- Memory hierarchy: validate by construction (E0009, E0010,
        // E0011), with the same per-thread I-MSHR floor the simulator
        // applies. ---
        let mut mem_cfg = self.mem.clone();
        mem_cfg.i_mshrs = mem_cfg.i_mshrs.max(threads as usize);
        if let Err(d) = MemoryHierarchy::new(mem_cfg) {
            push(&mut diags, d);
        }
        if self.mem.l1i.line_bytes != LINE_BYTES {
            push(
                &mut diags,
                Diagnostic::error(
                    "E0015",
                    "mem.l1i.line_bytes",
                    format!(
                        "the fetch unit's block-building assumes {LINE_BYTES} B \
                     I-cache lines (got {})",
                        self.mem.l1i.line_bytes
                    ),
                    "use the 64 B line size of Table 3",
                ),
            );
        }
        if self.mem.l2.size_bytes < self.mem.l1i.size_bytes + self.mem.l1d.size_bytes {
            push(
                &mut diags,
                Diagnostic::warning(
                    "W0103",
                    "mem.l2.size_bytes",
                    format!(
                        "L2 ({} B) is smaller than L1I + L1D ({} B); inclusion \
                     thrashing will dominate",
                        self.mem.l2.size_bytes,
                        self.mem.l1i.size_bytes + self.mem.l1d.size_bytes
                    ),
                    "Table 3 uses a 1 MB L2 over 32 KB + 32 KB L1s",
                ),
            );
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
    fn table3_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_buffer, 32);
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.ftq_depth, 4);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.regs_int, 384);
        assert_eq!((c.fu_int, c.fu_ls, c.fu_fp), (6, 4, 3));
    }

    #[test]
    fn engine_display() {
        assert_eq!(FetchEngineKind::GshareBtb.to_string(), "gshare+BTB");
        assert_eq!(FetchEngineKind::GskewFtb.to_string(), "gskew+FTB");
        assert_eq!(FetchEngineKind::Stream.to_string(), "stream");
        assert_eq!(FetchEngineKind::all().len(), 3);
    }

    // ----- validator -----------------------------------------------------

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn assert_rejects(cfg: &SimConfig, threads: usize, code: &str) {
        let diags = cfg.validate_for_threads(threads);
        assert!(
            codes(&diags).contains(&code),
            "expected {code}, got {:?}",
            codes(&diags)
        );
        assert!(smt_isa::has_errors(&diags), "{code} should be an error");
    }

    #[test]
    fn table3_config_validates_clean_for_all_thread_counts() {
        for policy in FetchPolicy::paper_sweep() {
            let cfg = SimConfig::hpca2004(policy);
            for threads in 1..=smt_isa::MAX_THREADS {
                let diags = cfg.validate_for_threads(threads);
                assert!(diags.is_empty(), "{policy}: {diags:?}");
            }
        }
    }

    #[test]
    fn e0001_non_power_of_two_table_rejected() {
        let mut cfg = SimConfig::default();
        cfg.predictor.gshare_entries = 3000;
        assert_rejects(&cfg, 1, "E0001");
    }

    #[test]
    fn e0002_entries_not_multiple_of_ways_rejected() {
        let mut cfg = SimConfig::default();
        cfg.predictor.btb_entries = 2048;
        cfg.predictor.btb_ways = 5;
        assert_rejects(&cfg, 1, "E0002");
    }

    #[test]
    fn e0003_two_ported_fetch_needs_banked_icache() {
        let mut cfg = SimConfig::hpca2004(FetchPolicy::icount(2, 8));
        cfg.mem.l1i.banks = 1;
        assert_rejects(&cfg, 2, "E0003");
        // The 1.X architecture never needs the second port.
        let mut one = SimConfig::hpca2004(FetchPolicy::icount(1, 8));
        one.mem.l1i.banks = 1;
        assert!(!codes(&one.validate()).contains(&"E0003"));
    }

    #[test]
    fn e0004_malformed_policy_rejected() {
        let mut cfg = SimConfig::default();
        cfg.fetch_policy.threads_per_cycle = 3;
        assert_rejects(&cfg, 1, "E0004");
        let mut cfg = SimConfig::default();
        cfg.fetch_policy.width = 0;
        assert_rejects(&cfg, 1, "E0004");
    }

    #[test]
    fn e0005_fetch_buffer_smaller_than_width_rejected() {
        let mut cfg = SimConfig::hpca2004(FetchPolicy::icount(1, 16));
        cfg.fetch_buffer = 8;
        assert_rejects(&cfg, 1, "E0005");
    }

    #[test]
    fn e0006_zero_ftq_depth_rejected() {
        let mut cfg = SimConfig::default();
        cfg.ftq_depth = 0;
        assert_rejects(&cfg, 1, "E0006");
    }

    #[test]
    fn e0007_insufficient_registers_depends_on_thread_count() {
        let mut cfg = SimConfig::default();
        cfg.regs_int = 100; // < 4 threads × 32
        assert_rejects(&cfg, 4, "E0007");
        // But three threads fit (96 ≤ 100), modulo a headroom warning.
        let diags = cfg.validate_for_threads(3);
        assert!(!smt_isa::has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn e0008_zero_pipeline_resource_rejected() {
        for field in 0..3 {
            let mut cfg = SimConfig::default();
            match field {
                0 => cfg.rob_size = 0,
                1 => cfg.decode_width = 0,
                _ => cfg.fu_ls = 0,
            }
            assert_rejects(&cfg, 1, "E0008");
        }
    }

    #[test]
    fn e0009_bad_cache_geometry_rejected() {
        let mut cfg = SimConfig::default();
        cfg.mem.l1d.size_bytes = 48 * 1024; // 384 sets: not a power of two
        assert_rejects(&cfg, 1, "E0009");
    }

    #[test]
    fn e0009_non_power_of_two_l2_line_rejected() {
        // 1.5 MiB, 2-way, 48 B lines: a power-of-two set count (16384), and
        // no MSHR file sees the L2 line size.
        let mut cfg = SimConfig::default();
        cfg.mem.l2.size_bytes = 1536 * 1024;
        cfg.mem.l2.line_bytes = 48;
        assert_rejects(&cfg, 1, "E0009");
        let diags = cfg.validate_for_threads(1);
        assert!(diags.iter().any(|d| d.field == "mem.l2.line_bytes"));
    }

    #[test]
    fn e0010_zero_mshrs_rejected() {
        let mut cfg = SimConfig::default();
        cfg.mem.d_mshrs = 0;
        assert_rejects(&cfg, 1, "E0010");
    }

    #[test]
    fn e0011_bad_tlb_rejected() {
        let mut cfg = SimConfig::default();
        cfg.mem.itlb.entries = 0;
        assert_rejects(&cfg, 1, "E0011");
    }

    #[test]
    fn e0012_zero_block_limits_rejected() {
        let mut cfg = SimConfig::default();
        cfg.max_stream = 0;
        assert_rejects(&cfg, 1, "E0012");
        let mut cfg = SimConfig::default();
        cfg.max_ftb_block = 0;
        assert_rejects(&cfg, 1, "E0012");
    }

    #[test]
    fn e0013_zero_ras_rejected() {
        let mut cfg = SimConfig::default();
        cfg.predictor.ras_depth = 0;
        assert_rejects(&cfg, 1, "E0013");
    }

    #[test]
    fn e0015_foreign_line_size_rejected() {
        let mut cfg = SimConfig::default();
        cfg.mem.l1i.line_bytes = 32;
        assert_rejects(&cfg, 1, "E0015");
    }

    #[test]
    fn w0101_history_longer_than_index_warns() {
        let mut cfg = SimConfig::default();
        cfg.predictor.gshare_entries = 1024; // 10 index bits < 16-bit history
        let diags = cfg.validate();
        assert!(codes(&diags).contains(&"W0101"), "{diags:?}");
        assert!(!smt_isa::has_errors(&diags), "warning must not block");
    }

    #[test]
    fn w0102_no_rename_headroom_warns() {
        let mut cfg = SimConfig::default();
        cfg.regs_int = 8 * 32 + 4; // enough to architect, < decode_width spare
        let diags = cfg.validate_for_threads(8);
        assert!(codes(&diags).contains(&"W0102"), "{diags:?}");
        assert!(!smt_isa::has_errors(&diags));
    }

    #[test]
    fn w0103_undersized_l2_warns() {
        let mut cfg = SimConfig::default();
        cfg.mem.l2.size_bytes = 32 * 1024;
        let diags = cfg.validate();
        assert!(codes(&diags).contains(&"W0103"), "{diags:?}");
        assert!(!smt_isa::has_errors(&diags));
    }

    #[test]
    fn diagnostics_deduplicate_shared_substrates() {
        // The BTB backs both the gshare engine and the trace-cache engine;
        // one broken BTB must surface once, not once per engine.
        let mut cfg = SimConfig::default();
        cfg.predictor.btb_entries = 3000;
        let diags = cfg.validate();
        let hits = diags.iter().filter(|d| d.field.contains("btb")).count();
        assert_eq!(hits, 1, "{diags:?}");
    }
}
