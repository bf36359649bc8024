//! The one parallel map behind every experiment sweep.
//!
//! Every paper experiment is a cross product of independent cells — each
//! `(workload, engine, policy)` configuration is a self-contained,
//! seed-deterministic simulation (the `Simulator` is `Send`-audited in
//! `smt-core`). [`sweep_indexed`] runs the cells on scoped workers that
//! claim indices from an atomic counter, then sorts the results by index.
//! The counter only decides **who** computes a cell, never **what** it
//! computes, so the output equals `(0..n).map(f).collect()` for any
//! schedule.
//!
//! Zero dependencies by design (`std::thread::scope`, no rayon), per the
//! workspace's offline/zero-dep constraint. The worker count is the
//! machine's `available_parallelism()`; nothing else is configurable.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `f(0), …, f(n - 1)` on every available core and returns the
/// results in index order.
///
/// `f(i)` must be a pure function of `i` (each cell builds and runs its own
/// simulator); under that contract the output is that of the serial
/// `(0..n).map(f)`. Work is claimed dynamically, so long cells do not convoy
/// short ones. A panic in `f` is re-raised on the caller's thread.
#[expect(clippy::disallowed_methods, reason = "the one parallel map")]
pub fn sweep_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n.max(1));
    let next = AtomicUsize::new(0);
    let mut cells: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return claimed;
                        }
                        claimed.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    cells.sort_unstable_by_key(|&(i, _)| i);
    cells.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_serial_map_when_cells_finish_out_of_order() {
        // Larger index = less work, so cells finish out of order; the empty
        // and single-cell maps are the edge cases.
        let work = |i: usize| {
            let mut acc = i as u64;
            for k in 0..(64 - i) * 1_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, std::hint::black_box(acc))
        };
        for n in [0, 1, 64] {
            assert_eq!(sweep_indexed(n, work), (0..n).map(work).collect::<Vec<_>>());
        }
    }
}
