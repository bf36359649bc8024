//! Differential fork tests: `Simulator::clone` is the one way to fork a
//! simulator, and a fork must continue exactly like the original.
//!
//! The contract under test: for any simulator `s`, running `s.clone()` and
//! `s` for the same number of further cycles gives equal `SimStats` (all
//! integers, so `==` is exact, stall attribution included). The random
//! round also compares the whole machine through its `Debug` rendering.
//! Configurations are drawn from a splitmix64 stream across every fetch
//! engine, every fetch-policy kind, both fetch architectures (1.X/2.X) and
//! the long-latency STALL/FLUSH variants; fork points are swept cycle by
//! cycle through a window so forks land mid-fetch-burst and
//! mid-misprediction-recovery, not just at quiet cycles.

use std::sync::Arc;

use smtfetch::core::{FetchEngineKind, FetchPolicy, SimBuilder, SimConfig, Simulator};
use smtfetch::workloads::{Program, Workload};

/// splitmix64: the test's only randomness source — seeded, so every run
/// draws the same configuration stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn build(programs: &[Arc<Program>], engine: FetchEngineKind, cfg: &SimConfig) -> Simulator {
    SimBuilder::new_shared(programs.to_vec())
        .fetch_engine(engine)
        .config(cfg.clone())
        .build()
        .expect("valid configuration")
}

/// Draws a fetch policy from the random stream: every kind, both `n`
/// values, both widths, and the three long-latency actions.
fn draw_policy(rng: &mut u64) -> FetchPolicy {
    let n = 1 + (splitmix64(rng) % 2) as u32;
    let width = if splitmix64(rng).is_multiple_of(2) {
        8
    } else {
        16
    };
    let policy = match splitmix64(rng) % 4 {
        0 => FetchPolicy::icount(n, width),
        1 => FetchPolicy::round_robin(n, width),
        2 => FetchPolicy::br_count(n, width),
        _ => FetchPolicy::miss_count(n, width),
    };
    match splitmix64(rng) % 3 {
        0 => policy,
        1 => policy.with_stall(),
        _ => policy.with_flush(),
    }
}

/// Across a splitmix64-drawn stream of configurations covering every engine
/// and policy kind, a simulator forked after `K` cycles and run for `M`
/// more is identical to the original running `K + M` straight: same
/// statistics and same whole-machine state.
#[test]
fn fork_is_identical_across_random_configs() {
    let mut rng = 0x5eed_2004_u64;
    let engines = FetchEngineKind::all_with_trace_cache();
    for round in 0..12 {
        let engine = engines[round % engines.len()];
        let cfg = SimConfig {
            fetch_policy: draw_policy(&mut rng),
            ..SimConfig::default()
        };
        // The memory-bound mix keeps misses, flushes and recoveries in
        // flight; the balanced mix covers the common case.
        let workload = if splitmix64(&mut rng).is_multiple_of(2) {
            Workload::mix2()
        } else {
            Workload::mem2()
        };
        let programs = workload.programs_shared(2004).expect("programs build");
        let k = 1_000 + splitmix64(&mut rng) % 3_000;
        let m = 500 + splitmix64(&mut rng) % 2_000;
        let what = format!(
            "round {round}: {} {engine} {} K={k} M={m}",
            workload.name(),
            cfg.fetch_policy
        );

        let mut reference = build(&programs, engine, &cfg);
        reference.run_cycles(k);
        let mut fork = reference.clone();
        reference.run_cycles(m);
        fork.run_cycles(m);
        assert_eq!(reference.stats(), fork.stats(), "{what}: SimStats diverged");
        assert_eq!(
            format!("{reference:?}"),
            format!("{fork:?}"),
            "{what}: machine state diverged"
        );
    }
}

/// Sweeps the fork point cycle by cycle through a 24-cycle window for every
/// engine, so forks land mid-burst (instructions in the FTQ, latches and
/// queues occupied) and mid-recovery (squashes and redirects in flight),
/// not just at whatever phase a round number hits.
#[test]
fn fork_is_identical_at_every_cycle_in_a_window() {
    const BASE: u64 = 2_000;
    const WINDOW: u64 = 24;
    const TAIL: u64 = 600;
    let cfg = SimConfig {
        // FLUSH keeps recoveries frequent, 2.16 keeps both ports busy.
        fetch_policy: FetchPolicy::icount(2, 16).with_flush(),
        ..SimConfig::default()
    };
    let programs = Workload::mem2().programs_shared(2004).expect("programs");
    for engine in FetchEngineKind::all_with_trace_cache() {
        // One serial reference walk, forking at every cycle offset.
        let mut reference = build(&programs, engine, &cfg);
        reference.run_cycles(BASE);
        let mut forks = Vec::new();
        for _ in 0..WINDOW {
            forks.push(reference.clone());
            reference.run_cycles(1);
        }
        reference.run_cycles(TAIL);
        for (off, mut fork) in forks.into_iter().enumerate() {
            fork.run_cycles(WINDOW - off as u64 + TAIL);
            assert_eq!(
                reference.stats(),
                fork.stats(),
                "{engine} forked at cycle {}: SimStats diverged",
                BASE + off as u64
            );
        }
    }
}
