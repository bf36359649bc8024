//! Randomized property tests on the substrates' invariants.
//!
//! Dependency-free: each property drives its subject with the workspace's
//! own deterministic [`Srng`] (splitmix64) over many seeded iterations, so
//! the suite runs identically everywhere (no proptest, no shrinking — a
//! failure message carries the seed that produced it).

use std::collections::{BTreeMap, VecDeque};

use smtfetch::bpred::{
    Btb, CounterTable, Ftb, GlobalHistory, Gskew, ObservedEnd, ReturnStack, SetAssoc, TwoBit,
};
use smtfetch::core::{
    BranchInfo, FetchEngineKind, FetchPolicy, InFlightCtl, SimBuilder, SimConfig, SimStats, Window,
};
use smtfetch::isa::{Addr, BranchKind, DynInst, InstClass};
use smtfetch::mem::{Cache, CacheConfig, MshrFile, MshrOutcome, Tlb};
use smtfetch::workloads::{BenchmarkProfile, ProgramBuilder, Srng, Walker, Workload};

/// Iterations per property (each with a distinct derived seed).
const CASES: u64 = 64;

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 2048,
        ways: 2,
        line_bytes: 64,
        banks: 2,
        hit_latency: 0,
    })
}

/// A cache access immediately after filling the same line always hits,
/// no matter what other fills happened before.
#[test]
fn cache_fill_then_access_hits() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x11 ^ case);
        let mut c = small_cache();
        let n = 1 + rng.range(0, 200);
        for _ in 0..n {
            let a = Addr::new(rng.range(0, 1 << 20));
            c.fill(a, false);
            assert!(c.access(a, false), "just-filled line missed (case {case})");
        }
    }
}

/// LRU never evicts the line touched most recently.
#[test]
fn cache_mru_line_survives_one_fill() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x22 ^ case);
        let mut c = small_cache();
        let probe = Addr::new(rng.range(0, 1 << 18) & !63);
        c.fill(probe, false);
        c.access(probe, false); // make it MRU
        c.fill(Addr::new(rng.range(0, 1 << 18) & !63), false);
        assert!(
            c.probe(probe),
            "MRU line evicted by a single fill (case {case})"
        );
    }
}

/// The RAS checkpoint/restore round-trips a push-pop speculation window.
#[test]
fn ras_checkpoint_roundtrip() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x33 ^ case);
        let depth = 1 + rng.range(0, 39) as usize;
        let mut ras = ReturnStack::new(64);
        for _ in 0..depth {
            ras.push(Addr::new((4 + rng.range(0, 1 << 30)) & !3));
        }
        let top_before = ras.peek();
        let depth_before = ras.depth();
        let ckpt = ras.checkpoint();
        // A short wrong-path burst of pushes and pops.
        let burst = rng.range(0, 8);
        for i in 0..burst {
            if rng.chance(0.5) {
                ras.push(Addr::new(0xdead_0000 + i * 4));
            } else {
                let _ = ras.pop();
            }
        }
        ras.restore(ckpt);
        assert_eq!(ras.depth(), depth_before, "case {case}");
        assert_eq!(ras.peek(), top_before, "case {case}");
    }
}

/// The bit-packed counter table is observably identical to the plain
/// byte-array reference model: over random interleaved update/read
/// sequences on random power-of-two geometries, every read agrees.
#[test]
fn packed_counter_table_matches_byte_reference() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x2b17 ^ case);
        // Sizes straddle the 32-counters-per-word boundary on purpose.
        let entries = 1usize << rng.range(0, 12);
        let mut packed = CounterTable::new(entries);
        let mut reference: Vec<TwoBit> = vec![TwoBit::default(); entries];
        let ops = 1 + rng.range(0, 2_000);
        for _ in 0..ops {
            // Indices beyond the table exercise the wrap-around path too.
            let index = rng.range(0, 4 * entries as u64);
            if rng.chance(0.7) {
                let taken = rng.chance(0.5);
                packed.update(index, taken);
                reference[index as usize & (entries - 1)].update(taken);
            }
            let got = packed.get(index);
            let want = reference[index as usize & (entries - 1)];
            assert_eq!(got, want, "index {index} of {entries} (case {case})");
        }
        // Full sweep at the end: no neighbour was silently disturbed.
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(packed.get(i as u64), *want, "sweep {i} (case {case})");
        }
    }
}

/// gskew's majority vote equals at least two of its bank votes.
#[test]
fn gskew_majority_is_consistent() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x44 ^ case);
        let mut g = Gskew::new(1024);
        let mut h = GlobalHistory::new(15);
        let n = 1 + rng.range(0, 60);
        for _ in 0..n {
            let pc = Addr::new(rng.range(0, 1 << 22) & !3);
            let outcome = rng.chance(0.5);
            let votes = g.votes(pc, h);
            let pred = g.predict(pc, h);
            let agreeing = votes.iter().filter(|&&v| v == pred).count();
            assert!(
                agreeing >= 2,
                "prediction disagrees with majority (case {case})"
            );
            g.update(pc, h, outcome);
            h.push(outcome);
        }
    }
}

/// A generic set-associative table never reports a tag that was not
/// inserted, and always finds one of the last `ways` tags of a set.
#[test]
fn set_assoc_finds_recent_inserts() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x55 ^ case);
        let mut t: SetAssoc<u64> = SetAssoc::new(16, 4);
        let n = 1 + rng.range(0, 100);
        for i in 0..n {
            let tag = rng.range(0, 1000);
            t.insert(0, tag, i);
            assert_eq!(t.peek(0, tag), Some(&i), "case {case}");
        }
        // A tag never inserted is never found.
        assert!(t.peek(0, 10_000).is_none(), "case {case}");
    }
}

/// The BTB only ever returns targets that were recorded for that PC.
#[test]
fn btb_returns_recorded_targets() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x66 ^ case);
        let mut btb = Btb::new(256, 4);
        let mut last = BTreeMap::new();
        let n = 1 + rng.range(0, 100);
        for _ in 0..n {
            let pc = Addr::new(rng.range(0, 1 << 16) & !3);
            let tgt = Addr::new((4 + rng.range(0, 1 << 20)) & !3);
            btb.record_taken(pc, tgt, BranchKind::Jump);
            last.insert(pc, tgt);
        }
        for (&pc, &tgt) in &last {
            if let Some(e) = btb.peek(pc) {
                assert_eq!(e.target, tgt, "stale target for {pc} (case {case})");
            }
        }
    }
}

/// FTB blocks never exceed the configured maximum length and never have
/// zero length.
#[test]
fn ftb_blocks_bounded() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x77 ^ case);
        let mut ftb = Ftb::new(64, 4, 16);
        let start = Addr::new(rng.range(0, 1 << 20) & !3);
        let n = 1 + rng.range(0, 60);
        for _ in 0..n {
            ftb.record_taken(
                start,
                ObservedEnd {
                    branch_pc: start.add_insts(rng.range(0, 100)),
                    kind: BranchKind::Cond,
                    target: Addr::new(0x9000),
                },
            );
            if let Some(p) = ftb.lookup(start) {
                assert!(
                    p.len >= 1 && p.len <= 16,
                    "block length {} (case {case})",
                    p.len
                );
            }
        }
    }
}

/// MSHR occupancy never exceeds capacity and always drains by the last
/// completion time.
#[test]
fn mshr_occupancy_bounded() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x88 ^ case);
        let mut m = MshrFile::new(4, 64);
        let mut horizon = 0;
        let n = 1 + rng.range(0, 80);
        for now in 0..n {
            let addr = Addr::new(rng.range(0, 1 << 14));
            let ready = now + 1 + rng.range(0, 299);
            match m.allocate(addr, now, ready) {
                MshrOutcome::Allocated | MshrOutcome::Merged(_) => {}
                MshrOutcome::Full => {}
            }
            assert!(m.outstanding(now) <= 4, "case {case}");
            horizon = horizon.max(ready);
        }
        assert_eq!(m.outstanding(horizon), 0, "case {case}");
    }
}

/// A fully-associative LRU TLB as a linear scan: the lookup `Tlb` replaced
/// with a sorted array and a page shift.
struct ScanTlb {
    entries: Vec<(u64, u64)>,
    capacity: usize,
    page_bytes: u64,
    penalty: u64,
    tick: u64,
}

impl ScanTlb {
    fn access(&mut self, addr: Addr) -> u64 {
        self.tick += 1;
        let page = addr.raw() / self.page_bytes;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
            e.1 = self.tick;
            return 0;
        }
        if self.entries.len() == self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].1)
                .unwrap();
            self.entries.remove(lru);
        }
        self.entries.push((page, self.tick));
        self.penalty
    }
}

/// `Tlb` gives the same penalty on every access as the linear-scan LRU
/// reference, over page-local random traces.
#[test]
fn tlb_matches_linear_scan_lru() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x71B ^ case);
        let capacity = rng.range_usize(1, 130);
        let page_bytes = 1 << rng.range(6, 14);
        let mut tlb = Tlb::new(capacity, page_bytes, 30);
        let mut reference = ScanTlb {
            entries: Vec::new(),
            capacity,
            page_bytes,
            penalty: 30,
            tick: 0,
        };
        // Mostly the same or a nearby page, sometimes a far one, over a
        // footprint of up to twice the capacity.
        let pages = 2 * capacity as u64 + 1;
        let mut page = 0u64;
        for i in 0..2_000 {
            page = match rng.range(0, 10) {
                0..=5 => page,
                6..=8 => (page + rng.range(0, 4)) % pages,
                _ => rng.range(0, pages),
            };
            let addr = Addr::new(page * page_bytes + rng.range(0, page_bytes));
            assert_eq!(
                tlb.access(addr),
                reference.access(addr),
                "case {case}, access {i}"
            );
        }
    }
}

/// An MSHR file that retires expired entries on every call: the `MshrFile`
/// behaviour before it kept the earliest ready cycle.
struct EagerMshr {
    slots: Vec<(Addr, u64)>,
    capacity: usize,
}

impl EagerMshr {
    fn retire(&mut self, now: u64) {
        self.slots.retain(|&(_, ready)| ready > now);
    }

    fn pending(&mut self, addr: Addr, now: u64) -> Option<u64> {
        self.retire(now);
        let line = addr.line(64);
        self.slots.iter().find(|s| s.0 == line).map(|s| s.1)
    }

    fn allocate(&mut self, addr: Addr, now: u64, ready: u64) -> MshrOutcome {
        self.retire(now);
        let line = addr.line(64);
        if let Some(&(_, r)) = self.slots.iter().find(|s| s.0 == line) {
            return MshrOutcome::Merged(r);
        }
        if self.slots.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.slots.push((line, ready));
        MshrOutcome::Allocated
    }
}

/// `MshrFile` with its early-returning `retire` gives the same outcomes and
/// outstanding counts as a file that retires on every call, over random
/// address/cycle traces.
#[test]
fn mshr_matches_eager_retire_reference() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x35E ^ case);
        let capacity = rng.range_usize(1, 17);
        let mut m = MshrFile::new(capacity, 64);
        let mut reference = EagerMshr {
            slots: Vec::new(),
            capacity,
        };
        let mut now = 0u64;
        for i in 0..1_000 {
            now += rng.range(0, 4) * rng.range(0, 8);
            let addr = Addr::new(rng.range(0, 1 << 11));
            match rng.range(0, 4) {
                0 => assert_eq!(m.pending(addr, now), reference.pending(addr, now)),
                1 => {
                    reference.retire(now);
                    assert_eq!(m.outstanding(now), reference.slots.len());
                }
                _ => {
                    let ready = now + 1 + rng.range(0, 120);
                    assert_eq!(
                        m.allocate(addr, now, ready),
                        reference.allocate(addr, now, ready),
                        "case {case}, op {i}"
                    );
                }
            }
        }
    }
}

/// Walkers are deterministic for every benchmark and seed, and the
/// instruction stream is contiguous (each next_pc is the next pc).
#[test]
fn walker_streams_are_contiguous() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x99 ^ case);
        let seed = rng.range(0, 500);
        let profiles = BenchmarkProfile::all();
        let profile = profiles[rng.range(0, profiles.len() as u64) as usize].clone();
        let prog = ProgramBuilder::new(profile).seed(seed).build();
        let mut w = Walker::new(prog, 0);
        let mut expected = w.pc();
        for _ in 0..2_000 {
            let d = w.next_inst();
            assert_eq!(d.pc, expected, "case {case}");
            expected = d.next_pc;
        }
    }
}

/// Workload programs never overlap in the address space.
#[test]
fn workload_programs_disjoint() {
    for seed in 0..CASES {
        let progs = Workload::mix4().programs(seed).unwrap();
        for (i, a) in progs.iter().enumerate() {
            for b in progs.iter().skip(i + 1) {
                let disjoint = a.end() <= b.base() || b.end() <= a.base();
                assert!(disjoint, "code overlap: {} and {}", a.name(), b.name());
            }
        }
    }
}

/// Runs the baseline engine on `2_MIX` for a few thousand cycles and
/// returns the full statistics snapshot.
fn stats_for_seed(seed: u64) -> SimStats {
    let programs = Workload::mix2()
        .programs(seed)
        .expect("table 2 workloads always build");
    let mut sim = SimBuilder::new(programs)
        .fetch_engine(FetchEngineKind::GshareBtb)
        .fetch_policy(FetchPolicy::icount(1, 8))
        .build()
        .expect("default config builds");
    sim.run_cycles(5_000).clone()
}

/// Runs `f` twice at once on two scoped threads, even on a one-core host.
#[expect(
    clippy::disallowed_methods,
    reason = "two simulators must run on two threads at once"
)]
fn twice_concurrently<T: Send>(f: impl Fn() -> T + Sync) -> [T; 2] {
    std::thread::scope(|s| {
        let a = s.spawn(&f);
        let b = s.spawn(&f);
        [a.join().unwrap(), b.join().unwrap()]
    })
}

/// Same-seed simulations are bit-identical — including when the two reruns
/// execute concurrently on different threads. `SimStats` is
/// all integer counters, so `==` is exact; any divergence would expose
/// hidden shared state or scheduling sensitivity in the simulator.
#[test]
fn same_seed_runs_identical_across_worker_threads() {
    for case in 0..4u64 {
        let seed = 0xbb ^ case;
        let serial = stats_for_seed(seed);
        let pair = twice_concurrently(|| stats_for_seed(seed));
        assert_eq!(
            pair[0], pair[1],
            "same-seed runs diverged across workers (seed {seed})"
        );
        assert_eq!(
            serial, pair[0],
            "parallel rerun diverged from the serial run (seed {seed})"
        );
    }
}

/// splitmix64-driven variant: random *validated* configurations are just as
/// deterministic — for each config the validator passes, two concurrent
/// same-seed runs on separate worker threads produce identical statistics.
/// The draws include values the validator rejects, and at least one is.
#[test]
#[expect(
    clippy::field_reassign_with_default,
    reason = "mutation-style by design"
)]
fn random_valid_configs_run_deterministically() {
    let mut rng = Srng::new(0xcc);
    let (mut checked, mut rejected) = (0u32, 0u32);
    for case in 0..40u64 {
        // Mutate one knob per case; invalid draws are skipped (soundness
        // of the gate is covered below), and at most 8 valid ones run.
        let mut cfg = SimConfig::default();
        cfg.fetch_policy = FetchPolicy::icount(1 + rng.range(0, 2) as u32, *rng.pick(&[8, 16]));
        match rng.range(0, 4) {
            0 => cfg.fetch_buffer = *rng.pick(&[8, 16, 32, 48]),
            1 => cfg.ftq_depth = rng.range(0, 6) as u32,
            2 => cfg.max_stream = rng.range(0, 32) as u32,
            _ => cfg.max_ftb_block = rng.range(0, 24) as u32,
        }
        if !cfg.validate().is_empty() {
            rejected += 1;
            continue;
        }
        if checked >= 8 {
            continue;
        }
        let engine = FetchEngineKind::all()[rng.range(0, 3) as usize];
        let run_once = || {
            let programs = Workload::mix2()
                .programs(0xd00d ^ case)
                .expect("table 2 workloads always build");
            let mut sim = SimBuilder::new(programs)
                .fetch_engine(engine)
                .config(cfg.clone())
                .build()
                .expect("validated config builds");
            sim.run_cycles(4_000).clone()
        };
        let pair = twice_concurrently(run_once);
        assert_eq!(
            pair[0], pair[1],
            "case {case}: same-seed runs of a random config diverged across workers"
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} random configs exercised");
    assert!(rejected > 0, "no draw hit the validator's reject side");
}

/// Any configuration the validator passes clean constructs a `Simulator`
/// without panicking — the validator is a sound gate for construction.
#[test]
fn validated_configs_always_build() {
    let mut rng = Srng::new(0xaa);
    let (mut built, mut rejected) = (0u32, 0u32);
    for case in 0..200 {
        // Mutate a few of the knobs per case. Each pool mixes values the
        // validator accepts with ones it must reject, so the property
        // exercises both sides of the gate.
        let mut cfg = SimConfig::default();
        cfg.fetch_policy.threads_per_cycle = rng.range(0, 4) as u32;
        cfg.fetch_policy.width = *rng.pick(&[0, 4, 8, 16, 24]);
        let mutations = 1 + rng.range(0, 3);
        for _ in 0..mutations {
            match rng.range(0, 4) {
                0 => cfg.fetch_buffer = *rng.pick(&[0, 8, 16, 32, 48]),
                1 => cfg.ftq_depth = rng.range(0, 6) as u32,
                2 => cfg.max_stream = rng.range(0, 80) as u32,
                _ => cfg.max_ftb_block = rng.range(0, 24) as u32,
            }
        }

        let threads = 1 + rng.range(0, 4) as usize;
        if !cfg.validate().is_empty() {
            rejected += 1;
            continue;
        }
        let programs = Workload::mix4().programs(case).unwrap();
        let sim = SimBuilder::new(programs.into_iter().take(threads).collect())
            .fetch_engine(FetchEngineKind::all_with_trace_cache()[rng.range(0, 4) as usize])
            .config(cfg)
            .build();
        assert!(
            sim.is_ok(),
            "validated config failed to build: {:?}",
            sim.err()
        );
        built += 1;
    }
    assert!(
        built > 10,
        "only {built}/200 random configs validated clean"
    );
    assert!(rejected > 0, "no draw hit the validator's reject side");
}

/// `Display` and `FromStr` are exact inverses for every fetch-engine kind
/// and every fetch-policy kind (the names the CLI's `--engine` and
/// `--policy` parse), and unknown names are rejected with the documented
/// codes.
#[test]
fn engine_and_policy_names_round_trip() {
    use smtfetch::core::PolicyKind;

    for kind in FetchEngineKind::all_with_trace_cache() {
        let name = kind.to_string();
        let parsed: FetchEngineKind = name.parse().unwrap_or_else(|e| {
            panic!("engine name {name:?} failed to parse back: {e:?}");
        });
        assert_eq!(parsed, kind, "engine round-trip changed the kind");
    }

    for kind in [
        PolicyKind::Icount,
        PolicyKind::RoundRobin,
        PolicyKind::BrCount,
        PolicyKind::MissCount,
    ] {
        let name = kind.to_string();
        let parsed: PolicyKind = name.parse().unwrap_or_else(|e| {
            panic!("policy name {name:?} failed to parse back: {e:?}");
        });
        assert_eq!(parsed, kind, "policy round-trip changed the kind");
    }

    // Rejections carry the documented diagnostic codes.
    let err = "frobnicator".parse::<FetchEngineKind>().unwrap_err();
    assert_eq!(err.code, "E0016");
    for junk in ["frobnicator", "ICOUNT.2.8", "ICOUNT-FLUSH", "Icount", ""] {
        let err = junk.parse::<PolicyKind>().unwrap_err();
        assert_eq!(err.code, "E0017", "{junk:?} accepted or wrong code");
    }
}

/// The per-stage stall attribution partitions time: for every active
/// thread, the seven buckets (six stall causes + useful residual) sum to
/// exactly the measured cycles, under every engine and fetch policy shape.
#[test]
fn stall_buckets_partition_cycles_for_every_engine_and_policy() {
    let policies = [
        FetchPolicy::icount(1, 8),
        FetchPolicy::icount(2, 8),
        FetchPolicy::round_robin(2, 16),
        FetchPolicy::miss_count(1, 8).with_flush(),
    ];
    for engine in FetchEngineKind::all_with_trace_cache() {
        for policy in policies {
            let programs = Workload::mix4().programs(7).unwrap();
            let n = programs.len();
            let mut sim = SimBuilder::new(programs)
                .fetch_engine(engine)
                .fetch_policy(policy)
                .build()
                .unwrap();
            // Across a reset boundary too: the buckets are part of the
            // resettable stats, so the invariant must hold per window.
            sim.run_cycles(500);
            sim.reset_stats();
            let stats = sim.run_cycles(2_000);
            for tid in 0..n {
                assert_eq!(
                    stats.stalls.total(tid),
                    stats.cycles,
                    "{engine} / {policy}: thread {tid} buckets do not partition cycles"
                );
            }
            for tid in n..smtfetch::isa::MAX_THREADS {
                assert_eq!(
                    stats.stalls.total(tid),
                    0,
                    "{engine} / {policy}: inactive thread {tid} charged"
                );
            }
        }
    }
}

/// The stall-partition invariant survives event-driven cycle skipping: on
/// the memory-bound workload — where the scheduler jumps over ~100-cycle
/// idle windows — the skipped cycles must land in the same per-thread
/// buckets a stepped run would have charged, so the partition still holds
/// exactly for every engine × policy-kind × long-latency-gate combination.
/// Each cell additionally proves the scheduler engaged, so the invariant is
/// tested *through* skips, not vacuously beside them.
#[test]
fn stall_buckets_partition_cycles_through_event_skips() {
    let policies = [
        FetchPolicy::icount(2, 8),
        FetchPolicy::icount(1, 8).with_stall(),
        FetchPolicy::icount(2, 8).with_flush(),
        FetchPolicy::round_robin(2, 8).with_stall(),
        FetchPolicy::br_count(2, 8).with_flush(),
        FetchPolicy::miss_count(2, 8).with_stall(),
    ];
    for engine in FetchEngineKind::all_with_trace_cache() {
        for policy in policies {
            let programs = Workload::mem2().programs(7).unwrap();
            let n = programs.len();
            let mut sim = SimBuilder::new(programs)
                .fetch_engine(engine)
                .fetch_policy(policy)
                .build()
                .unwrap();
            // Across a reset boundary too — and the boundary itself may
            // land mid-skip, which must not double- or under-charge.
            sim.run_cycles(501);
            sim.reset_stats();
            let stats = sim.run_cycles(4_003);
            assert!(
                stats.skipped_cycles() > 0,
                "{engine} / {policy}: the scheduler never engaged on mem2"
            );
            for tid in 0..n {
                assert_eq!(
                    stats.stalls.total(tid),
                    stats.cycles,
                    "{engine} / {policy}: thread {tid} buckets do not partition \
                     cycles through skips"
                );
            }
            for tid in n..smtfetch::isa::MAX_THREADS {
                assert_eq!(
                    stats.stalls.total(tid),
                    0,
                    "{engine} / {policy}: inactive thread {tid} charged"
                );
            }
        }
    }
}

/// One record of the naive array-of-structs reference window: the control
/// entry, its payload, and its branch record side by side in a plain deque.
#[derive(Clone, Copy, Debug)]
struct AosInst {
    ctl: InFlightCtl,
    di: DynInst,
    binfo: Option<BranchInfo>,
}

/// A deterministic random instruction (and, for branches, a branch record)
/// for sequence number `seq`.
fn random_inst(rng: &mut Srng, seq: u64) -> (DynInst, Option<BranchInfo>) {
    let pc = Addr::new(0x40_0000 + seq * 4);
    let class = match rng.range(0, 5) {
        0 => InstClass::IntAlu,
        1 => InstClass::Load,
        2 => InstClass::Store,
        3 => InstClass::FpAlu,
        _ => InstClass::Branch(BranchKind::Cond),
    };
    let taken = rng.chance(0.4);
    let next_pc = if taken {
        Addr::new(0x40_0000 + rng.range(0, 1 << 16) * 4)
    } else {
        pc.add_insts(1)
    };
    let di = DynInst {
        thread: 0,
        static_id: rng.range_u32(0, 1 << 16),
        pc,
        class,
        dest: None,
        srcs: [None, None],
        mem: None,
        taken,
        next_pc,
        wrong_path: rng.chance(0.1),
    };
    let binfo = matches!(class, InstClass::Branch(_)).then(|| BranchInfo {
        block_start: pc,
        is_end: rng.chance(0.5),
        spec_taken: rng.chance(0.5),
        spec_next: next_pc,
        mispredicted: rng.chance(0.2),
        decode_redirect: rng.chance(0.2),
    });
    (di, binfo)
}

/// The structure-of-arrays window is observably identical to a naive
/// array-of-structs reference deque: over random operation traces — pushes
/// (including sequence-number reuse after a pop-back, the squash pattern),
/// pops from both ends, and control-entry mutations — every lookup agrees
/// after every operation, on random window capacities that force the
/// payload ring to wrap many times.
#[test]
fn soa_window_matches_aos_reference() {
    for case in 0..CASES {
        let mut rng = Srng::new(0x50a0 ^ case);
        let cap = 4 + rng.range(0, 60) as usize;
        let mut soa = Window::new();
        soa.presize(cap);
        let mut aos: VecDeque<AosInst> = VecDeque::new();
        let mut next_seq = rng.range(0, 1000);
        let ops = 200 + rng.range(0, 800);
        for _ in 0..ops {
            match rng.range(0, 10) {
                0..=4 => {
                    if soa.len() < cap {
                        let seq = next_seq;
                        next_seq += 1;
                        let (di, binfo) = random_inst(&mut rng, seq);
                        soa.set_di(seq, di);
                        let ctl =
                            InFlightCtl::at_fetch(seq, rng.range(0, 1 << 20), &di, binfo.as_ref());
                        soa.push(ctl, binfo);
                        aos.push_back(AosInst { ctl, di, binfo });
                    }
                }
                5 => {
                    assert_eq!(
                        soa.pop_front(),
                        aos.pop_front().map(|r| r.ctl),
                        "case {case}"
                    );
                }
                6 => {
                    let popped = aos.pop_back();
                    assert_eq!(soa.pop_back(), popped.map(|r| r.ctl), "case {case}");
                    if let Some(r) = popped {
                        // Squash semantics: the popped seq is reused next.
                        next_seq = r.ctl.seq;
                    }
                }
                7 => {
                    if !aos.is_empty() {
                        let k = rng.range(0, aos.len() as u64) as usize;
                        let seq = aos[k].ctl.seq;
                        let c = soa.ctl_mut(seq).expect("live seq has a control entry");
                        if rng.chance(0.5) {
                            c.set_dispatched();
                            aos[k].ctl.set_dispatched();
                        }
                        if rng.chance(0.5) {
                            c.set_issued();
                            aos[k].ctl.set_issued();
                        }
                        let done = rng.range(0, 1 << 20);
                        c.done_at = done;
                        aos[k].ctl.done_at = done;
                        let p = rng.range_u32(0, 512);
                        c.phys_dest = Some(p);
                        aos[k].ctl.phys_dest = Some(p);
                    }
                }
                _ => {
                    if !aos.is_empty() {
                        let k = rng.range(0, aos.len() as u64) as usize;
                        let seq = aos[k].ctl.seq;
                        assert_eq!(
                            soa.tail_len_from(seq),
                            (aos.len() - k) as u32,
                            "case {case}"
                        );
                    }
                }
            }
            // Full observable-state comparison after every operation.
            assert_eq!(soa.len(), aos.len(), "case {case}");
            assert_eq!(soa.is_empty(), aos.is_empty(), "case {case}");
            assert_eq!(soa.front(), aos.front().map(|r| &r.ctl), "case {case}");
            assert_eq!(soa.back(), aos.back().map(|r| &r.ctl), "case {case}");
            for (got, want) in soa.iter().zip(aos.iter()) {
                assert_eq!(got, &want.ctl, "case {case}");
                assert_eq!(soa.di(want.ctl.seq), &want.di, "case {case}");
                assert_eq!(
                    format!("{:?}", soa.binfo(want.ctl.seq)),
                    format!("{:?}", want.binfo),
                    "case {case}"
                );
                assert_eq!(got.has_binfo(), want.binfo.is_some(), "case {case}");
                assert_eq!(
                    got.is_load(),
                    want.di.class == InstClass::Load,
                    "case {case}"
                );
                assert_eq!(got.is_branch(), want.di.class.is_branch(), "case {case}");
            }
            // A never-pushed seq resolves to no control entry.
            assert!(soa.ctl(next_seq).is_none(), "case {case}");
            if let Some(front) = aos.front() {
                if front.ctl.seq > 0 {
                    assert!(soa.ctl(front.ctl.seq - 1).is_none(), "case {case}");
                }
            }
        }
    }
}

/// The structure-of-arrays window is behaviorally transparent through the
/// whole simulator: for random validated configurations across every fetch
/// engine and every policy mnemonic, two independently built same-seed
/// simulators produce bit-identical statistics, and the per-thread stall
/// buckets still partition measured cycles exactly — the same observable
/// contract the pre-refactor array-of-structs window satisfied (whose byte
/// equivalence the un-re-blessed goldens pin).
#[test]
#[expect(
    clippy::field_reassign_with_default,
    reason = "mutation-style by design"
)]
fn soa_window_equivalent_across_engines_and_policies() {
    let policies = [
        FetchPolicy::icount(1, 8),
        FetchPolicy::icount(2, 8),
        FetchPolicy::round_robin(2, 16),
        FetchPolicy::br_count(2, 8),
        FetchPolicy::miss_count(2, 8).with_flush(),
    ];
    let mut rng = Srng::new(0x50a1);
    for (e, engine) in FetchEngineKind::all_with_trace_cache()
        .into_iter()
        .enumerate()
    {
        for (p, policy) in policies.into_iter().enumerate() {
            let mut cfg = SimConfig::default();
            cfg.fetch_policy = policy;
            // One random accepted axis per cell, as in the determinism
            // property above; invalid draws fall back to the baseline.
            let mut mutated = cfg.clone();
            match rng.range(0, 4) {
                0 => mutated.fetch_buffer = *rng.pick(&[16, 32, 48]),
                1 => mutated.ftq_depth = 1 + rng.range(0, 5) as u32,
                2 => mutated.max_stream = *rng.pick(&[16, 32, 64, 128]),
                _ => mutated.max_ftb_block = *rng.pick(&[8, 16, 32]),
            }
            if mutated.validate().is_empty() {
                cfg = mutated;
            }
            let seed = 0xd1f ^ ((e as u64) << 8) ^ p as u64;
            let run_once = || {
                let programs = Workload::mix4()
                    .programs(seed)
                    .expect("table 2 workloads always build");
                let n = programs.len();
                let mut sim = SimBuilder::new(programs)
                    .fetch_engine(engine)
                    .config(cfg.clone())
                    .build()
                    .expect("validated config builds");
                sim.run_cycles(500);
                sim.reset_stats();
                let stats = sim.run_cycles(2_000).clone();
                (n, stats)
            };
            let (n, a) = run_once();
            let (_, b) = run_once();
            assert_eq!(a, b, "{engine} / {policy}: same-seed runs diverged");
            for tid in 0..n {
                assert_eq!(
                    a.stalls.total(tid),
                    a.cycles,
                    "{engine} / {policy}: thread {tid} buckets do not partition cycles"
                );
            }
        }
    }
}
