//! A tiny, dependency-free timing harness for the workspace's benchmarks
//! (`benches/` are plain `harness = false` binaries built on it).
//!
//! Not a statistics suite: each benchmark runs a warmup pass and a fixed
//! number of timed samples, then prints the minimum and mean sample time
//! (minimum first — it is the least noisy estimator for CPU-bound code).
//! Wall-clock time is confined to this crate by design; the simulation
//! crates themselves are forbidden from reading clocks (`crates/clippy.toml`).

#![warn(missing_docs)]
// The library-only bans; the `benches/` binaries may panic on bad input.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation
)]

use std::time::{Duration, Instant};

/// Number of timed samples per benchmark.
pub const SAMPLES: u32 = 10;

/// Times `f` (after one untimed warmup call) and prints one report line.
///
/// Returns the minimum sample duration so callers can post-process.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Duration {
    bench_with_elements(name, 0, &mut f)
}

/// Like [`bench()`], additionally reporting throughput as `elements` work
/// items per sample (e.g. simulated cycles or predictor lookups).
pub fn bench_with_elements<R>(name: &str, elements: u64, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f()); // warmup; also defeats dead-code elision
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        std::hint::black_box(f());
        let dt = start.elapsed();
        min = min.min(dt);
        total += dt;
    }
    let mean = total / SAMPLES;
    if elements > 0 {
        let per_sec = elements as f64 / min.as_secs_f64().max(1e-12);
        println!(
            "{name:<40} min {:>12} mean {:>12} {:>14.0} elem/s",
            fmt_duration(min),
            fmt_duration(mean),
            per_sec
        );
    } else {
        println!(
            "{name:<40} min {:>12} mean {:>12}",
            fmt_duration(min),
            fmt_duration(mean)
        );
    }
    min
}

/// Renders a duration with a unit that keeps 3-4 significant digits.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_a_positive_minimum() {
        let min = bench("noop_spin", || {
            let mut x = 0u64;
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert!(min > Duration::ZERO);
    }

    #[test]
    fn durations_format_with_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs(50)), "50.00 s");
    }
}
