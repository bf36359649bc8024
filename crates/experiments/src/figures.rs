//! One experiment definition per table and figure of the paper.

use smt_core::{FetchEngineKind, FetchPolicy};
use smt_workloads::{BenchmarkProfile, DynStats, Walker, Workload, WorkloadClass};

use crate::report::{render_grouped_bars, render_markdown, render_table, Metric};
use crate::runner::{run, run_matrix, RunLength, RunResult, EXP_SEED};
use crate::sweep::sweep_indexed;

/// A completed experiment: its identity, rendered text, and raw results.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Paper artifact id (`"figure5"`, `"table1"`, …).
    pub id: &'static str,
    /// What the paper's artifact shows.
    pub caption: &'static str,
    /// Human-readable report (tables / ASCII bars).
    pub text: String,
    /// Markdown fragment for EXPERIMENTS.md.
    pub markdown: String,
    /// Raw results, when the experiment runs simulations.
    pub results: Vec<RunResult>,
}

fn experiment(
    id: &'static str,
    caption: &'static str,
    results: Vec<RunResult>,
    panels: &[Metric],
) -> Experiment {
    let mut text = String::new();
    for (panel, &m) in ('a'..='z').zip(panels.iter()) {
        text.push_str(&render_grouped_bars(
            &format!("{id}({panel}): {caption}"),
            &results,
            m,
        ));
        text.push('\n');
    }
    Experiment {
        id,
        caption,
        markdown: render_markdown(&results),
        text,
        results,
    }
}

/// All three fetch engines, paper order.
fn engines() -> [FetchEngineKind; 3] {
    FetchEngineKind::all()
}

/// **Table 1** — benchmark characteristics: measured dynamic average
/// basic-block size of every clone vs the paper's target.
///
/// Each benchmark's 320k-instruction walker measurement is an independent
/// cell, so the table sweeps in parallel like the figures.
pub fn table1() -> Experiment {
    let profiles = BenchmarkProfile::all();
    let streams = sweep_indexed(profiles.len(), |i| walk_profile(&profiles[i]));
    let mut rows = Vec::new();
    let mut md = String::from(
        "| benchmark | paper avg BB | clone avg BB | taken rate | avg stream |\n|---|---|---|---|---|\n",
    );
    for (p, s) in profiles.iter().zip(&streams) {
        rows.push(vec![
            p.name.to_string(),
            format!("{:.2}", p.avg_bb_size),
            format!("{:.2}", s.avg_bb_size()),
            format!("{:.2}", s.taken_rate()),
            format!("{:.1}", s.avg_stream_len()),
        ]);
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.1} |\n",
            p.name,
            p.avg_bb_size,
            s.avg_bb_size(),
            s.taken_rate(),
            s.avg_stream_len()
        ));
    }
    Experiment {
        id: "table1",
        caption:
            "SPECint2000 characteristics: paper's avg basic-block size vs the synthetic clones",
        text: render_table(
            &[
                "benchmark",
                "paper avg BB",
                "clone avg BB",
                "taken rate",
                "avg stream",
            ],
            &rows,
        ),
        markdown: md,
        results: Vec::new(),
    }
}

/// One benchmark clone's dynamic characteristics over a 300k-instruction
/// walk, after 20k instructions of warmup.
fn walk_profile(p: &BenchmarkProfile) -> DynStats {
    #[expect(clippy::expect_used, reason = "compiled-in profile names build")]
    let progs = Workload::custom("solo", WorkloadClass::Ilp, &[p.name])
        .expect("valid name")
        .programs(EXP_SEED)
        .expect("valid");
    let mut w = Walker::new(progs[0].clone(), 0);
    let _ = w.measure(20_000);
    w.measure(300_000)
}

/// **Table 2** — the multithreaded workloads.
pub fn table2() -> Experiment {
    let rows: Vec<Vec<String>> = Workload::all_table2()
        .iter()
        .map(|w| {
            vec![
                w.name().to_string(),
                w.class().to_string(),
                w.benchmarks().join(", "),
            ]
        })
        .collect();
    let mut md = String::from("| workload | class | benchmarks |\n|---|---|---|\n");
    for r in &rows {
        md.push_str(&format!("| {} | {} | {} |\n", r[0], r[1], r[2]));
    }
    Experiment {
        id: "table2",
        caption: "Multithreaded workloads",
        text: render_table(&["workload", "class", "benchmarks"], &rows),
        markdown: md,
        results: Vec::new(),
    }
}

/// **Table 3** — simulation parameters in force.
pub fn table3() -> Experiment {
    let c = smt_core::SimConfig::default();
    let rows: Vec<Vec<String>> = vec![
        vec!["Fetch width".into(), "8/16 instr.".into()],
        vec!["Fetch policy".into(), "ICOUNT".into()],
        vec!["Fetch buffer".into(), format!("{} instr.", c.fetch_buffer)],
        vec![
            "Dec. & Ren. width".into(),
            format!("{} instr.", c.decode_width),
        ],
        vec!["Gshare".into(), "64K-entry, 16 bits history".into()],
        vec!["Gskew".into(), "3 x 32K-entry, 15 bits history".into()],
        vec!["BTB/FTB".into(), "2K-entry, 4-way".into()],
        vec![
            "Stream predictor".into(),
            "1K-entry,4w + 4K-entry,4w; DOLC 16-2-4-10".into(),
        ],
        vec!["RAS (per thread)".into(), "64-entry".into()],
        vec!["FTQ (per thread)".into(), format!("{}-entry", c.ftq_depth)],
        vec![
            "Functional units".into(),
            format!("{} int, {} ld/st, {} fp", c.fu_int, c.fu_ls, c.fu_fp),
        ],
        vec![
            "Instruction queues".into(),
            format!("{}-entry int/ld-st/fp", c.iq_int),
        ],
        vec!["Reorder buffer".into(), format!("{}-entry", c.rob_size)],
        vec![
            "Physical registers".into(),
            format!("{} int + {} fp", c.regs_int, c.regs_fp),
        ],
        vec![
            "L1 I-cache".into(),
            "32KB, 2-way, 8 banks, 64B lines".into(),
        ],
        vec![
            "L1 D-cache".into(),
            "32KB, 2-way, 8 banks, 64B lines".into(),
        ],
        vec!["L2 cache".into(), "1MB, 2-way, 8 banks, 10 cyc.".into()],
        vec!["TLB".into(), "48-entry I + 128-entry D".into()],
        vec!["Main memory".into(), "100 cycles".into()],
    ];
    let mut md = String::from("| resource | value |\n|---|---|\n");
    for r in &rows {
        md.push_str(&format!("| {} | {} |\n", r[0], r[1]));
    }
    Experiment {
        id: "table3",
        caption: "Simulation parameters (Table 3)",
        text: render_table(&["resource", "value"], &rows),
        markdown: md,
        results: Vec::new(),
    }
}

/// **Figure 2** — fetch throughput of gshare+BTB fetching from one thread
/// (`1.8` vs `1.16`) on gzip–twolf, plus the §3.1 width distributions.
pub fn figure2(len: RunLength) -> Experiment {
    let results = run_matrix(
        &[Workload::mix2()],
        &[FetchEngineKind::GshareBtb],
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(1, 16)],
        len,
    );
    let mut e = experiment(
        "figure2",
        "gshare+BTB IPFC with ICOUNT.1.8 / ICOUNT.1.16 (gzip-twolf)",
        results,
        &[Metric::Ipfc],
    );
    e.text.push_str(&distribution_notes(&e.results));
    e
}

/// **Figure 4** — fetch throughput fetching from two threads
/// (`2.8`, `2.16`) against the Figure 2 single-thread results.
pub fn figure4(len: RunLength) -> Experiment {
    let results = run_matrix(
        &[Workload::mix2()],
        &[FetchEngineKind::GshareBtb],
        &[
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        len,
    );
    let mut e = experiment(
        "figure4",
        "gshare+BTB IPFC fetching from up to two threads (gzip-twolf)",
        results,
        &[Metric::Ipfc],
    );
    e.text.push_str(&distribution_notes(&e.results));
    e
}

fn distribution_notes(results: &[RunResult]) -> String {
    let mut s = String::from("fetch-width distribution (fraction of fetch cycles):\n");
    for r in results {
        s.push_str(&format!(
            "  {:<11} {:>11}: >=4: {:4.0}%  =8: {:4.0}%  >=8: {:4.0}%  >=16: {:4.0}%\n",
            r.engine,
            r.policy,
            r.frac_ge4 * 100.0,
            r.frac_eq8 * 100.0,
            r.frac_ge8 * 100.0,
            r.frac_ge16 * 100.0
        ));
    }
    s
}

/// **Figure 5** — ILP workloads, `1.8` vs `2.8`, all three engines:
/// (a) IPFC, (b) IPC.
pub fn figure5(len: RunLength) -> Experiment {
    let results = run_matrix(
        &Workload::ilp_suite(),
        &engines(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        len,
    );
    experiment(
        "figure5",
        "ICOUNT.1.8 vs ICOUNT.2.8, ILP workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **Figure 6** — ILP workloads, `2.8` vs `1.16` vs `2.16`.
pub fn figure6(len: RunLength) -> Experiment {
    let results = run_matrix(
        &Workload::ilp_suite(),
        &engines(),
        &[
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        len,
    );
    experiment(
        "figure6",
        "ICOUNT.1.16 vs ICOUNT.2.X, ILP workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **Figure 7** — memory-bounded workloads (MIX & MEM), `1.8` vs `2.8`.
pub fn figure7(len: RunLength) -> Experiment {
    let results = run_matrix(
        &Workload::mem_suite(),
        &engines(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        len,
    );
    experiment(
        "figure7",
        "ICOUNT.1.8 vs ICOUNT.2.8, memory-bounded workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **Figure 8** — memory-bounded workloads, `1.8` vs `1.16` vs `2.16`.
pub fn figure8(len: RunLength) -> Experiment {
    let results = run_matrix(
        &Workload::mem_suite(),
        &engines(),
        &[
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        len,
    );
    experiment(
        "figure8",
        "ICOUNT.1.16 vs ICOUNT.1.8 and ICOUNT.2.16, memory-bounded workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **§3.3 superscalar comparison** — each benchmark alone (one thread),
/// all three engines: the front-end comparison the paper cites from its
/// earlier work (gskew+FTB ≈ +5% IPC over gshare+BTB, stream ≈ +11%).
pub fn superscalar(len: RunLength) -> Experiment {
    // One cell per (benchmark, engine), benchmark outermost — the same
    // stable order the serial loop produced.
    let profiles = BenchmarkProfile::all();
    #[expect(clippy::expect_used, reason = "compiled-in profile names are valid")]
    let workloads: Vec<Workload> = profiles
        .iter()
        .map(|p| {
            Workload::custom("1_".to_string() + p.name, WorkloadClass::Ilp, &[p.name])
                .expect("valid")
        })
        .collect();
    let cells: Vec<(usize, FetchEngineKind)> = (0..profiles.len())
        .flat_map(|pi| engines().into_iter().map(move |e| (pi, e)))
        .collect();
    let results = sweep_indexed(cells.len(), |i| {
        let (pi, e) = cells[i];
        let mut r = run(&workloads[pi], e, FetchPolicy::icount(1, 16), len);
        r.workload = profiles[pi].name.to_string();
        r
    });
    // Geometric-mean speedups over gshare+BTB.
    let mut text = render_grouped_bars(
        "superscalar: single-thread IPC per front-end (ICOUNT.1.16)",
        &results,
        Metric::Ipc,
    );
    let gm = |engine: &str| -> f64 {
        let ratios: Vec<f64> = results
            .chunks(3)
            .filter_map(|c| {
                let base = c.iter().find(|r| r.engine == "gshare+BTB")?.ipc;
                let x = c.iter().find(|r| r.engine == engine)?.ipc;
                (base > 0.0).then_some(x / base)
            })
            .collect();
        let prod: f64 = ratios.iter().map(|r| r.ln()).sum();
        (prod / ratios.len().max(1) as f64).exp()
    };
    text.push_str(&format!(
        "\ngeomean IPC vs gshare+BTB: gskew+FTB {:+.1}%  stream {:+.1}%\n(paper: gskew+FTB +5%, stream +11%)\n",
        (gm("gskew+FTB") - 1.0) * 100.0,
        (gm("stream") - 1.0) * 100.0
    ));
    Experiment {
        id: "superscalar",
        caption: "Single-thread front-end comparison (paper §3.3)",
        markdown: render_markdown(&results),
        text,
        results,
    }
}

/// Runs one experiment at a run length (the tables ignore it).
pub type Runner = fn(RunLength) -> Experiment;

/// Every experiment, by ID, in paper order.
const EXPERIMENTS: [(&str, Runner); 10] = [
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("figure2", figure2),
    ("figure4", figure4),
    ("figure5", figure5),
    ("figure6", figure6),
    ("figure7", figure7),
    ("figure8", figure8),
    ("superscalar", superscalar),
];

/// The experiments named by `ids`, in the order given; no IDs selects every
/// experiment in paper order. An unknown ID is an error that lists the
/// valid ones.
pub fn select(ids: &[&str]) -> Result<Vec<(&'static str, Runner)>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    ids.iter()
        .map(|&id| {
            EXPERIMENTS
                .iter()
                .find(|(name, _)| *name == id)
                .copied()
                .ok_or_else(|| {
                    let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                    format!("unknown experiment `{id}` (valid: {})", valid.join(", "))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_without_simulation() {
        let t1 = table1();
        assert!(t1.text.contains("gzip"));
        assert!(t1.text.contains("11.02"));
        let t2 = table2();
        assert!(t2.text.contains("2_MIX"));
        assert_eq!(t2.text.lines().count(), 2 + 10);
        let t3 = table3();
        assert!(t3.text.contains("256-entry"));
        assert!(t3.markdown.contains("| Main memory | 100 cycles |"));
    }

    #[test]
    fn table1_matches_a_serial_walk() {
        let rows: Vec<String> = BenchmarkProfile::all()
            .iter()
            .map(|p| {
                let s = walk_profile(p);
                format!(
                    "| {} | {:.2} | {:.2} | {:.2} | {:.1} |",
                    p.name,
                    p.avg_bb_size,
                    s.avg_bb_size(),
                    s.taken_rate(),
                    s.avg_stream_len()
                )
            })
            .collect();
        let md = table1().markdown;
        assert_eq!(md.lines().skip(2).collect::<Vec<_>>(), rows);
    }

    #[test]
    fn select_resolves_ids() {
        let ids = |sel: Vec<(&'static str, Runner)>| -> Vec<&str> {
            sel.into_iter().map(|(id, _)| id).collect()
        };
        assert_eq!(
            ids(select(&["figure7", "table1"]).unwrap()),
            ["figure7", "table1"]
        );
        assert_eq!(ids(select(&[]).unwrap()), EXPERIMENTS.map(|(id, _)| id));
        let err = select(&["figure7", "figure3"]).unwrap_err();
        assert!(err.contains("`figure3`"), "{err}");
        assert!(
            err.contains("table1, table2, table3, figure2, figure4, figure5, figure6, figure7, figure8, superscalar"),
            "{err}"
        );
    }

    #[test]
    fn figure2_runs_smoke() {
        let e = figure2(RunLength::SMOKE);
        assert_eq!(e.results.len(), 2);
        assert!(e.text.contains("ICOUNT.1.8"));
        assert!(e.text.contains("fetch-width distribution"));
        assert!(e.results.iter().all(|r| r.ipfc > 0.0));
    }

    #[test]
    fn figure5_covers_ilp_suite() {
        let e = figure5(RunLength::SMOKE);
        // 4 workloads × 2 policies × 3 engines.
        assert_eq!(e.results.len(), 24);
        let names: std::collections::BTreeSet<_> =
            e.results.iter().map(|r| r.workload.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(e.text.contains("(IPFC)"));
        assert!(e.text.contains("(IPC)"));
    }
}
