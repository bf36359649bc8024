//! A fixed host-speed probe, timed between cells, that scales host times to
//! a nominal host.
//!
//! On a shared machine the speed of the whole host drifts by tens of
//! percent over minutes, far more than the changes the benchmark has to
//! resolve. The probe is benchmark code that no change to the simulator
//! touches: xorshift-indexed reads and writes over a table the size of the
//! simulator's hot state, with dependent integer work and a data-dependent
//! branch. Timing it between cells measures the host's current speed for
//! this kind of code, and dividing by it cancels most of the drift.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Probe table size: 4 MiB, larger than the last-level cache share the
/// simulator gets, like the simulator's tables and programs.
const TABLE_WORDS: usize = 1 << 19;
/// Iterations per probe sample (a few milliseconds).
const ITERS: u64 = 200_000;
/// The probe's median time on the nominal host. Host times are reported as
/// if the probe took exactly this long.
pub const NOMINAL_NS: f64 = 3.0e6;

pub struct Probe {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            table: vec![1; TABLE_WORDS],
            samples: Vec::new(),
        }
    }

    /// Times one run of the probe kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(&mut self.table, ITERS));
        self.samples.push(t.elapsed().as_nanos() as f64);
    }

    /// Median probe time in nanoseconds (0 before any sample).
    pub fn median_ns(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that turns a host time into nominal-host time.
    pub fn to_nominal(&self) -> f64 {
        let m = self.median_ns();
        if m > 0.0 {
            NOMINAL_NS / m
        } else {
            1.0
        }
    }
}

fn kernel(table: &mut [u64], iters: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x & mask) as usize;
        let v = table[i];
        acc = acc.wrapping_mul(31).wrapping_add(v ^ x);
        if acc & 1 == 0 {
            table[i] = v.wrapping_add(acc);
        } else {
            acc = acc.rotate_left(7);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_does_the_work() {
        let mut a = vec![1; 1024];
        let mut b = vec![1; 1024];
        assert_eq!(kernel(&mut a, 5_000), kernel(&mut b, 5_000));
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v != 1), "the kernel writes the table");
    }

    #[test]
    fn nominal_scaling_follows_the_median_sample() {
        let mut p = Probe::new();
        assert_eq!(p.to_nominal(), 1.0);
        p.samples = vec![6.0e6, 1.0e6, 6.0e6];
        // A host twice as slow as nominal halves every reported time.
        assert_eq!(p.to_nominal(), 0.5);
    }
}
