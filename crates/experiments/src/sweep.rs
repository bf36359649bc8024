//! Deterministic parallel sweep executor.
//!
//! Every paper experiment is a cross product of independent cells — each
//! `(workload, engine, policy)` configuration is a self-contained,
//! seed-deterministic simulation (the `Simulator` is `Send`-audited in
//! `smt-core`). The executor here exploits that: a scoped worker pool pulls
//! cell indices from an atomic work queue and writes each result into the
//! slot addressed by its *index*, never by completion order. The queue only
//! decides **who** computes a cell, never **what** the cell computes, so the
//! returned vector is bit-for-bit identical for any worker count — including
//! one.
//!
//! Zero dependencies by design (`std::thread::scope`, no rayon), per the
//! workspace's offline/zero-dep constraint. Wall-clock time is read in
//! exactly one place — the per-cell harness timer below, the one clock
//! escape (`#[expect(clippy::disallowed_methods)]`) in this crate — and
//! flows only into the [`CellStat`] observability records, never into
//! results.
//!
//! The worker count comes from one shared knob: `--jobs N` on any experiment
//! binary, the `SMT_JOBS` environment variable, or
//! `std::thread::available_parallelism()` as the validated default
//! ([`Jobs::from_cli`]).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on the worker count ([`Jobs::MAX`]): far above any real
/// machine, low enough to catch a mistyped `SMT_JOBS=10000`.
const MAX_JOBS: usize = 512;

/// A validated worker count for a sweep: always in `1..=`[`Jobs::MAX`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Jobs(usize);

/// Why a requested worker count was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobsError {
    /// Zero workers can make no progress.
    Zero,
    /// More workers than [`Jobs::MAX`].
    TooMany {
        /// The rejected count.
        got: usize,
    },
    /// The value was not a positive integer.
    Unparsable {
        /// The rejected text and where it came from.
        what: String,
    },
}

impl fmt::Display for JobsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobsError::Zero => write!(f, "--jobs/SMT_JOBS must be at least 1"),
            JobsError::TooMany { got } => {
                write!(f, "--jobs/SMT_JOBS {got} exceeds the maximum of {MAX_JOBS}")
            }
            JobsError::Unparsable { what } => {
                write!(
                    f,
                    "{what} is not a valid worker count (expected 1..={MAX_JOBS})"
                )
            }
        }
    }
}

impl std::error::Error for JobsError {}

impl Jobs {
    /// One worker: the serial schedule every parallel schedule must match.
    pub const SERIAL: Jobs = Jobs(1);

    /// The largest accepted worker count.
    pub const MAX: usize = MAX_JOBS;

    /// Validates a worker count.
    pub fn new(n: usize) -> Result<Jobs, JobsError> {
        match n {
            0 => Err(JobsError::Zero),
            n if n > MAX_JOBS => Err(JobsError::TooMany { got: n }),
            n => Ok(Jobs(n)),
        }
    }

    /// The worker count, always ≥ 1.
    pub fn get(self) -> usize {
        self.0
    }

    /// The machine's available parallelism, clamped to [`Jobs::MAX`]
    /// (1 when the capacity cannot be determined).
    pub fn default_parallelism() -> Jobs {
        #[expect(clippy::disallowed_methods, reason = "worker-count default only")]
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Jobs(n.clamp(1, MAX_JOBS))
    }

    /// Reads `SMT_JOBS`, falling back to [`Jobs::default_parallelism`] when
    /// unset. A set-but-invalid value is an error, not a silent fallback.
    pub fn from_env() -> Result<Jobs, JobsError> {
        match std::env::var("SMT_JOBS") {
            Ok(v) => v.trim().parse(),
            Err(_) => Ok(Jobs::default_parallelism()),
        }
    }

    /// Extracts `--jobs N` / `--jobs=N` from an argument stream, returning
    /// the parsed override (if any) and the remaining arguments in order.
    pub fn parse_args<I>(args: I) -> Result<(Option<Jobs>, Vec<String>), JobsError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut jobs = None;
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--jobs" {
                let v = it.next().ok_or_else(|| JobsError::Unparsable {
                    what: "--jobs (missing value)".to_string(),
                })?;
                jobs = Some(v.parse()?);
            } else if let Some(v) = arg.strip_prefix("--jobs=") {
                jobs = Some(v.parse()?);
            } else {
                rest.push(arg);
            }
        }
        Ok((jobs, rest))
    }

    /// The worker count for an experiment binary: `--jobs` beats `SMT_JOBS`
    /// beats `available_parallelism()`. Prints the problem and exits with
    /// status 2 on an invalid request — experiment binaries fail fast rather
    /// than sweep with a worker count the user did not ask for.
    pub fn from_cli() -> Jobs {
        Jobs::from_cli_with_rest().0
    }

    /// [`Jobs::from_cli`], additionally returning the non-`--jobs` arguments
    /// for binaries that take positional arguments of their own.
    pub fn from_cli_with_rest() -> (Jobs, Vec<String>) {
        let parsed =
            Jobs::parse_args(std::env::args().skip(1)).and_then(|(jobs, rest)| match jobs {
                Some(j) => Ok((j, rest)),
                None => Jobs::from_env().map(|j| (j, rest)),
            });
        match parsed {
            Ok(ok) => ok,
            Err(err) => {
                eprintln!("smt-experiments: {err}");
                std::process::exit(2);
            }
        }
    }
}

impl std::str::FromStr for Jobs {
    type Err = JobsError;

    fn from_str(s: &str) -> Result<Jobs, JobsError> {
        let n: usize = s.trim().parse().map_err(|_| JobsError::Unparsable {
            what: format!("{s:?}"),
        })?;
        Jobs::new(n)
    }
}

impl fmt::Display for Jobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-cell observability record: who computed a cell and how long it took.
///
/// Purely diagnostic — `worker` and `wall` depend on the machine and the
/// schedule; the *results* of a sweep never do. Excluded from golden
/// snapshots for exactly that reason.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// The cell's index in the sweep's stable order.
    pub index: usize,
    /// Human-readable cell label (e.g. `"2_MIX gshare+BTB ICOUNT.1.8"`).
    pub label: String,
    /// Which worker (0-based) computed the cell.
    pub worker: usize,
    /// Simulated cycles the cell measured (0 when not a simulation).
    pub sim_cycles: u64,
    /// Of `sim_cycles`, how many the event-driven scheduler skipped rather
    /// than stepped (0 when not a simulation, or not yet filled in —
    /// [`sweep_cells`] has no view into the result type, so simulation
    /// sweeps post-fill this from their results).
    pub skipped: u64,
    /// Wall-clock time the cell took on its worker.
    pub wall: Duration,
}

/// A completed sweep: results in stable cell order plus per-cell stats.
#[derive(Clone, Debug)]
pub struct Sweep<T> {
    /// One result per cell, in cell-index order — independent of worker
    /// count and completion order.
    pub results: Vec<T>,
    /// One [`CellStat`] per cell, same order.
    pub stats: Vec<CellStat>,
}

impl<T> Sweep<T> {
    /// The `k` slowest cells, slowest first — the stragglers that bound the
    /// sweep's wall-clock time.
    pub fn stragglers(&self, k: usize) -> Vec<&CellStat> {
        let mut by_wall: Vec<&CellStat> = self.stats.iter().collect();
        by_wall.sort_by(|a, b| b.wall.cmp(&a.wall).then(a.index.cmp(&b.index)));
        by_wall.truncate(k);
        by_wall
    }

    /// How many distinct workers computed at least one cell.
    pub fn workers_used(&self) -> usize {
        let mut workers: Vec<usize> = self.stats.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        workers.len()
    }
}

/// Runs `n` independent cells on a pool of `jobs` workers and returns the
/// results in cell-index order, with per-cell stats.
///
/// `f(i)` must be a pure function of `i` (each cell builds and runs its own
/// simulator); under that contract the output is identical for every worker
/// count. `label(i)` names cell `i` for the stats; `sim_cycles` records the
/// per-cell simulated length (purely informational).
///
/// Work is distributed dynamically: workers claim the next unclaimed index
/// from an atomic counter, so long cells do not convoy short ones.
pub fn sweep_cells<T, L, F>(n: usize, jobs: Jobs, sim_cycles: u64, label: L, f: F) -> Sweep<T>
where
    T: Send,
    L: Fn(usize) -> String,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.get().min(n.max(1));
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, T, Duration)>> = Vec::with_capacity(workers);
    #[expect(clippy::disallowed_methods, reason = "the audited sweep executor")]
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // The one audited wall-clock read in this crate: the
                        // harness timer feeding CellStat (results never see it).
                        #[expect(clippy::disallowed_methods, reason = "harness timer, not results")]
                        let start = Instant::now();
                        let out = f(i);
                        claimed.push((i, out, start.elapsed()));
                    }
                    claimed
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(claimed) => per_worker.push(claimed),
                // A cell panicked: re-raise on the caller's thread with the
                // original payload instead of a generic JoinError.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut stats: Vec<Option<CellStat>> = (0..n).map(|_| None).collect();
    for (worker, claimed) in per_worker.into_iter().enumerate() {
        for (index, out, wall) in claimed {
            results[index] = Some(out);
            stats[index] = Some(CellStat {
                index,
                label: label(index),
                worker,
                sim_cycles,
                skipped: 0,
                wall,
            });
        }
    }
    // The fetch_add queue hands out each index exactly once, and every
    // worker drains until the counter passes n, so every slot is filled.
    #[expect(clippy::expect_used, reason = "every index is claimed once")]
    let (results, stats) = (
        results
            .into_iter()
            .map(|slot| slot.expect("every cell index claimed exactly once"))
            .collect(),
        stats
            .into_iter()
            .map(|slot| slot.expect("every cell index claimed exactly once"))
            .collect(),
    );
    Sweep { results, stats }
}

/// [`sweep_cells`] without the observability trimmings: just the results,
/// in cell-index order.
pub fn sweep_indexed<T, F>(n: usize, jobs: Jobs, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    sweep_cells(n, jobs, 0, |i| format!("cell {i}"), f).results
}

/// Stderr report verbosity, from `SMT_SWEEP_REPORT`:
///
/// * `0` / unset — silent;
/// * `1` (or any non-numeric value) — per-sweep progress reports;
/// * `2` and up — progress plus a per-run stall-breakdown table.
///
/// Reports go to stderr only and never into golden snapshots; everything
/// above level 0 is a pure function of the simulated stats, so enabling it
/// cannot perturb results.
pub fn report_level() -> u8 {
    match std::env::var_os("SMT_SWEEP_REPORT") {
        None => 0,
        Some(v) => v.to_str().and_then(|s| s.parse::<u8>().ok()).unwrap_or(1),
    }
}

/// Whether per-sweep progress reports should be printed to stderr
/// (`SMT_SWEEP_REPORT` set to anything but `0`, i.e. [`report_level`] ≥ 1).
pub fn progress_report_enabled() -> bool {
    report_level() >= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_validate_bounds() {
        assert_eq!(Jobs::new(0), Err(JobsError::Zero));
        assert_eq!(Jobs::new(1), Ok(Jobs::SERIAL));
        assert_eq!(Jobs::new(Jobs::MAX).map(Jobs::get), Ok(Jobs::MAX));
        assert_eq!(
            Jobs::new(Jobs::MAX + 1),
            Err(JobsError::TooMany { got: Jobs::MAX + 1 })
        );
        assert!(Jobs::default_parallelism().get() >= 1);
    }

    #[test]
    fn jobs_parse_from_str() {
        assert_eq!("4".parse(), Ok(Jobs(4)));
        assert_eq!(" 8 ".parse(), Ok(Jobs(8)));
        assert!(matches!(
            "zero".parse::<Jobs>(),
            Err(JobsError::Unparsable { .. })
        ));
        assert_eq!("0".parse::<Jobs>(), Err(JobsError::Zero));
    }

    #[test]
    fn parse_args_extracts_jobs_and_keeps_rest() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (jobs, rest) = Jobs::parse_args(args(&["--jobs", "3", "out.md"])).unwrap();
        assert_eq!(jobs, Some(Jobs(3)));
        assert_eq!(rest, args(&["out.md"]));

        let (jobs, rest) = Jobs::parse_args(args(&["a", "--jobs=7", "b"])).unwrap();
        assert_eq!(jobs, Some(Jobs(7)));
        assert_eq!(rest, args(&["a", "b"]));

        let (jobs, rest) = Jobs::parse_args(args(&["plain"])).unwrap();
        assert_eq!(jobs, None);
        assert_eq!(rest, args(&["plain"]));

        assert!(Jobs::parse_args(args(&["--jobs"])).is_err());
        assert!(Jobs::parse_args(args(&["--jobs=many"])).is_err());
    }

    #[test]
    fn results_are_index_ordered_for_any_worker_count() {
        // Cells deliberately finish out of order (larger index = less work);
        // the output must be index-ordered regardless.
        let work = |i: usize| {
            let spins = (64 - i) * 1_000;
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
            i
        };
        let serial = sweep_indexed(64, Jobs::SERIAL, work);
        assert_eq!(serial, (0..64).collect::<Vec<_>>());
        for jobs in [2, 3, 8] {
            let parallel = sweep_indexed(64, Jobs::new(jobs).unwrap(), work);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn stats_cover_every_cell_once() {
        let sweep = sweep_cells(
            10,
            Jobs::new(4).unwrap(),
            123,
            |i| format!("c{i}"),
            |i| i * 2,
        );
        assert_eq!(sweep.results, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(sweep.stats.len(), 10);
        for (i, s) in sweep.stats.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.label, format!("c{i}"));
            assert_eq!(s.sim_cycles, 123);
            assert!(s.worker < 4);
        }
        assert!(sweep.workers_used() >= 1);
        let stragglers = sweep.stragglers(3);
        assert_eq!(stragglers.len(), 3);
        assert!(stragglers[0].wall >= stragglers[1].wall);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let sweep = sweep_cells(0, Jobs::new(8).unwrap(), 0, |i| i.to_string(), |i| i);
        assert!(sweep.results.is_empty());
        assert!(sweep.stats.is_empty());
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let out = sweep_indexed(3, Jobs::new(64).unwrap(), |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
