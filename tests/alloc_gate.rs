//! Zero-allocation regression gate for the steady-state cycle loop.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! long enough for every queue to reach its pre-sized high-water mark, the
//! loop `predict → fetch → decode → rename → dispatch → issue → commit`
//! must run with **zero** heap allocations per cycle. Any new `Vec`,
//! `Box`, or `clone()` on the hot path fails here immediately.
//!
//! The counter is thread-local (const-initialised, so reading it never
//! allocates or races with the test harness's other worker threads): each
//! test only observes allocations made on its own thread, which is exactly
//! the thread its simulator steps on.
//!
//! The trace-cache engine is deliberately outside the gate: its fill unit
//! builds `Trace` objects (segment/direction vectors) at line-close by
//! design, which is inherent to that related-work comparator rather than to
//! the paper's three fetch engines measured by the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smtfetch::core::{FetchEngineKind, FetchPolicy, SimBuilder, Simulator};
use smtfetch::workloads::Workload;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation path (`alloc`, `alloc_zeroed`, `realloc`) on the
/// calling thread, then defers to the system allocator.
struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the only extra work is a
// const-initialised thread-local counter bump, which itself never allocates.
#[expect(unsafe_code, reason = "a global allocator is an unsafe trait")]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_so_far() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

/// Cycles to run before measuring: long enough for squashes, flushes, cache
/// misses and every queue's high-water mark to have occurred at least once.
const WARMUP_CYCLES: u64 = 20_000;
/// Cycles measured under the zero-allocation assertion.
const MEASURE_CYCLES: u64 = 5_000;

fn build(engine: FetchEngineKind, policy: FetchPolicy) -> Simulator {
    SimBuilder::new(
        Workload::mix2()
            .programs(2004)
            .expect("table 2 workloads always build"),
    )
    .fetch_engine(engine)
    .fetch_policy(policy)
    .build()
    .expect("valid configuration")
}

fn assert_steady_state_allocation_free(engine: FetchEngineKind, policy: FetchPolicy) {
    let mut sim = build(engine, policy);
    sim.run_cycles(WARMUP_CYCLES);
    let committed_before = sim.stats().total_committed();
    let before = allocations_so_far();
    sim.run_cycles(MEASURE_CYCLES);
    let allocated = allocations_so_far() - before;
    assert_eq!(
        allocated, 0,
        "{engine} under {policy}: {allocated} heap allocations in \
         {MEASURE_CYCLES} post-warmup cycles (steady state must be \
         allocation-free)"
    );
    // The measured window did real work — this was a live pipeline, not a
    // stalled machine trivially avoiding allocation.
    assert!(
        sim.stats().total_committed() > committed_before,
        "{engine} under {policy}: no instructions committed in the window"
    );
}

/// The paper's three fetch engines under the 1.X architecture (one thread,
/// one I-cache port per cycle).
#[test]
fn steady_state_is_allocation_free_1x() {
    for engine in [
        FetchEngineKind::GshareBtb,
        FetchEngineKind::GskewFtb,
        FetchEngineKind::Stream,
    ] {
        assert_steady_state_allocation_free(engine, FetchPolicy::icount(1, 8));
    }
}

/// The same engines under the 2.X architecture (two threads per cycle, two
/// ports, bank-conflict logic and merge).
#[test]
fn steady_state_is_allocation_free_2x() {
    for engine in [
        FetchEngineKind::GshareBtb,
        FetchEngineKind::GskewFtb,
        FetchEngineKind::Stream,
    ] {
        assert_steady_state_allocation_free(engine, FetchPolicy::icount(2, 8));
    }
}

/// The alternative priority metrics and the long-latency FLUSH mechanism
/// exercise distinct hot-path code (outstanding-miss accounting, pipeline
/// flush and rewind); they must be allocation-free too.
#[test]
fn steady_state_is_allocation_free_across_policies() {
    for policy in [
        FetchPolicy::round_robin(2, 8),
        FetchPolicy::br_count(2, 8),
        FetchPolicy::miss_count(2, 8),
        FetchPolicy::icount(2, 8).with_flush(),
    ] {
        assert_steady_state_allocation_free(FetchEngineKind::GshareBtb, policy);
    }
}

/// The event-driven scheduler stays inside the gate: drive the
/// memory-bound workload — whose ~100-cycle memory stalls produce the idle
/// windows the scheduler skips — across every fetch engine and every
/// policy kind (plain ICOUNT/RR and the STALL/FLUSH long-latency gates),
/// and require both that skipping actually engaged in the measured window
/// and that it allocated nothing. The horizon probes run *every* cycle (not
/// just idle ones), so this also gates the probes themselves.
#[test]
fn event_skip_heavy_steady_state_is_allocation_free() {
    for engine in [
        FetchEngineKind::GshareBtb,
        FetchEngineKind::GskewFtb,
        FetchEngineKind::Stream,
    ] {
        for policy in [
            FetchPolicy::icount(1, 8).with_flush(),
            FetchPolicy::icount(2, 8).with_stall(),
            FetchPolicy::round_robin(2, 8).with_stall(),
            FetchPolicy::br_count(2, 8).with_flush(),
            FetchPolicy::miss_count(2, 8),
        ] {
            let mut sim = SimBuilder::new(
                Workload::mem2()
                    .programs(2004)
                    .expect("table 2 workloads always build"),
            )
            .fetch_engine(engine)
            .fetch_policy(policy)
            .build()
            .expect("valid configuration");
            sim.run_cycles(WARMUP_CYCLES);
            let skipped_before = sim.stats().skipped_cycles();
            let before = allocations_so_far();
            sim.run_cycles(MEASURE_CYCLES);
            let allocated = allocations_so_far() - before;
            assert_eq!(
                allocated, 0,
                "{engine} under {policy}: {allocated} heap allocations in \
                 {MEASURE_CYCLES} skip-heavy post-warmup cycles"
            );
            assert!(
                sim.stats().skipped_cycles() > skipped_before,
                "{engine} under {policy}: the scheduler never engaged in the \
                 measured window"
            );
        }
    }
}

/// Forking a warmed simulator with `clone()` must hand back one that is
/// already in the zero-allocation steady state: the clone's cycle loop
/// allocates exactly as much as the original's, zero. The clone itself may
/// allocate freely — only the forked loop is under the gate.
#[test]
fn cloned_steady_state_is_allocation_free() {
    for engine in [
        FetchEngineKind::GshareBtb,
        FetchEngineKind::GskewFtb,
        FetchEngineKind::Stream,
    ] {
        let policy = FetchPolicy::icount(2, 8);
        let mut sim = build(engine, policy);
        sim.run_cycles(WARMUP_CYCLES);
        let mut fork = sim.clone();
        drop(sim);
        let committed_before = fork.stats().total_committed();
        let before = allocations_so_far();
        fork.run_cycles(MEASURE_CYCLES);
        let allocated = allocations_so_far() - before;
        assert_eq!(
            allocated, 0,
            "{engine} under {policy}: {allocated} heap allocations in \
             {MEASURE_CYCLES} cycles of a cloned simulator (a fork must \
             re-enter the allocation-free steady state)"
        );
        assert!(
            fork.stats().total_committed() > committed_before,
            "{engine} under {policy}: no instructions committed after the fork"
        );
    }
}

/// The counter itself works: an intentional allocation is observed. Guards
/// against the gate silently passing because counting broke.
#[test]
fn allocation_counter_detects_allocations() {
    let before = allocations_so_far();
    let v: Vec<u64> = Vec::with_capacity(64);
    let after = allocations_so_far();
    drop(v);
    assert!(after > before, "counting allocator missed a Vec allocation");
}
