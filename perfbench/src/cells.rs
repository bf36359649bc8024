//! The three benchmark workloads: each is a serial list of simulator cells,
//! one cell per (Table 2 workload, fetch engine, fetch policy) triple.

use smt_core::{FetchEngineKind, FetchPolicy};
use smt_workloads::{Srng, Workload};

/// The simulator's default evaluation length: cycles simulated before the
/// statistics reset, and cycles measured after. Cells run at this length
/// reproduce the EXPERIMENTS.md tables, so every workload uses it.
pub const WARMUP_CYCLES: u64 = 30_000;
pub const MEASURE_CYCLES: u64 = 120_000;

/// One simulator configuration.
#[derive(Clone, Debug)]
pub struct Cell {
    pub workload: Workload,
    pub engine: FetchEngineKind,
    pub policy: FetchPolicy,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{} {} {}", self.workload.name(), self.engine, self.policy)
    }
}

/// A benchmark workload: its name and cells.
pub struct Spec {
    pub name: &'static str,
    pub cells: Vec<Cell>,
}

impl Spec {
    /// Puts the cells in the order `seed` draws (Fisher-Yates).
    pub fn shuffle(&mut self, seed: u64) {
        let mut rng = Srng::new(seed);
        for i in (1..self.cells.len()).rev() {
            let j = rng.range(0, i as u64 + 1) as usize;
            self.cells.swap(i, j);
        }
    }

    /// The distinct Table 2 workloads the cells use, in first-use order.
    pub fn table2(&self) -> Vec<Workload> {
        let mut out: Vec<Workload> = Vec::new();
        for c in &self.cells {
            if !out.iter().any(|w| w.name() == c.workload.name()) {
                out.push(c.workload.clone());
            }
        }
        out
    }
}

pub const NAMES: [&str; 3] = ["ilp_fig5", "mem_fig7", "wide_fig6"];

const GSHARE: FetchEngineKind = FetchEngineKind::GshareBtb;
const GSKEW: FetchEngineKind = FetchEngineKind::GskewFtb;
const STREAM: FetchEngineKind = FetchEngineKind::Stream;

/// Workload outermost, then policy, then engine: the order of the paper's
/// grouped-bar figures.
fn matrix(workloads: &[Workload], policies: &[FetchPolicy]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in workloads {
        for &policy in policies {
            for engine in FetchEngineKind::all() {
                cells.push(Cell {
                    workload: w.clone(),
                    engine,
                    policy,
                });
            }
        }
    }
    cells
}

pub fn spec(name: &str) -> Option<Spec> {
    let p18 = FetchPolicy::icount(1, 8);
    let p28 = FetchPolicy::icount(2, 8);
    let p116 = FetchPolicy::icount(1, 16);
    let p216 = FetchPolicy::icount(2, 16);
    match name {
        // Figure 5: ILP workloads at 1.8 and 2.8.
        "ilp_fig5" => Some(Spec {
            name: "ilp_fig5",
            cells: matrix(&Workload::ilp_suite(), &[p18, p28]),
        }),
        // Figure 7, memory-bound half, plus the two long-latency policies.
        "mem_fig7" => {
            let mut cells = matrix(
                &[
                    Workload::mem2(),
                    Workload::mem4(),
                    Workload::mix2(),
                    Workload::mix4(),
                ],
                &[p18, p28],
            );
            cells.push(Cell {
                workload: Workload::mem2(),
                engine: GSHARE,
                policy: FetchPolicy::icount(2, 8).with_stall(),
            });
            cells.push(Cell {
                workload: Workload::mem2(),
                engine: GSHARE,
                policy: FetchPolicy::icount(1, 8).with_flush(),
            });
            Some(Spec {
                name: "mem_fig7",
                cells,
            })
        }
        // Figures 6 and 8: single-thread 16-wide fetch against the
        // baseline's dual-thread 8-wide fetch.
        "wide_fig6" => {
            let mut cells = Vec::new();
            for w in [
                Workload::ilp4(),
                Workload::ilp8(),
                Workload::mix4(),
                Workload::mix8(),
            ] {
                for (engine, policy) in [
                    (GSHARE, p28),
                    (GSHARE, p116),
                    (GSKEW, p116),
                    (GSKEW, p216),
                    (STREAM, p116),
                    (STREAM, p216),
                ] {
                    cells.push(Cell {
                        workload: w.clone(),
                        engine,
                        policy,
                    });
                }
            }
            Some(Spec {
                name: "wide_fig6",
                cells,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_documented_lists() {
        let counts: Vec<usize> = NAMES.iter().map(|n| spec(n).unwrap().cells.len()).collect();
        assert_eq!(counts, [24, 26, 24]);
        assert!(spec("nope").is_none());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let labels = |seed| {
            let mut s = spec("ilp_fig5").unwrap();
            s.shuffle(seed);
            s.cells.iter().map(Cell::label).collect::<Vec<_>>()
        };
        assert_eq!(labels(7), labels(7));
        assert_ne!(labels(7), labels(8));
        let (mut a, mut b) = (labels(7), labels(8));
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn table2_lists_each_workload_once() {
        let names: Vec<String> = spec("mem_fig7")
            .unwrap()
            .table2()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, ["2_MEM", "4_MEM", "2_MIX", "4_MIX"]);
    }
}
