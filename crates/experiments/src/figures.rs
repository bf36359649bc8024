//! One experiment definition per table and figure of the paper.

use smt_core::{FetchEngineKind, FetchPolicy};
use smt_workloads::{BenchmarkProfile, Walker, Workload, WorkloadClass};

use crate::report::{
    render_grouped_bars, render_markdown, render_sweep_stats, render_table, Metric,
};
use crate::runner::{run, run_matrix_sweep, RunLength, RunResult, EXP_SEED};
use crate::sweep::{progress_report_enabled, sweep_cells, CellStat, Jobs};

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

/// Prints a sweep's per-cell timing report to stderr when
/// `SMT_SWEEP_REPORT` is set (progress/straggler visibility; never mixed
/// into the experiment's own stdout artifact).
fn report_progress(id: &str, stats: &[CellStat]) {
    if progress_report_enabled() {
        eprintln!("{}", render_sweep_stats(id, stats));
    }
}

/// Runs a figure's matrix on `jobs` workers, reporting sweep progress.
fn matrix(
    id: &str,
    workloads: &[Workload],
    engines: &[FetchEngineKind],
    policies: &[FetchPolicy],
    len: RunLength,
    jobs: Jobs,
) -> Vec<RunResult> {
    let sweep = run_matrix_sweep(workloads, engines, policies, len, jobs);
    report_progress(id, &sweep.stats);
    sweep.results
}

/// **Table 1** — benchmark characteristics: measured dynamic average
/// basic-block size of every clone vs the paper's target.
///
/// Each benchmark's 320k-instruction walker measurement is an independent
/// cell, so the table sweeps in parallel like the figures.
pub fn table1(jobs: Jobs) -> Experiment {
    let profiles = BenchmarkProfile::all();
    let sweep = sweep_cells(
        profiles.len(),
        jobs,
        320_000,
        |i| profiles[i].name.to_string(),
        |i| {
            let p = &profiles[i];
            #[expect(clippy::expect_used, reason = "compiled-in profile names build")]
            let progs = Workload::custom("solo", WorkloadClass::Ilp, &[p.name])
                .expect("valid name")
                .programs(EXP_SEED)
                .expect("valid");
            let mut w = Walker::new(progs[0].clone(), 0);
            let _ = w.measure(20_000);
            w.measure(300_000)
        },
    );
    report_progress("table1", &sweep.stats);
    let mut rows = Vec::new();
    let mut md = String::from(
        "| benchmark | paper avg BB | clone avg BB | taken rate | avg stream |\n|---|---|---|---|---|\n",
    );
    for (p, s) in profiles.iter().zip(&sweep.results) {
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
pub fn figure2(len: RunLength, jobs: Jobs) -> Experiment {
    let results = matrix(
        "figure2",
        &[Workload::mix2()],
        &[FetchEngineKind::GshareBtb],
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(1, 16)],
        len,
        jobs,
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
pub fn figure4(len: RunLength, jobs: Jobs) -> Experiment {
    let results = matrix(
        "figure4",
        &[Workload::mix2()],
        &[FetchEngineKind::GshareBtb],
        &[
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        len,
        jobs,
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
pub fn figure5(len: RunLength, jobs: Jobs) -> Experiment {
    let results = matrix(
        "figure5",
        &Workload::ilp_suite(),
        &engines(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        len,
        jobs,
    );
    experiment(
        "figure5",
        "ICOUNT.1.8 vs ICOUNT.2.8, ILP workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **Figure 6** — ILP workloads, `2.8` vs `1.16` vs `2.16`.
pub fn figure6(len: RunLength, jobs: Jobs) -> Experiment {
    let results = matrix(
        "figure6",
        &Workload::ilp_suite(),
        &engines(),
        &[
            FetchPolicy::icount(2, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        len,
        jobs,
    );
    experiment(
        "figure6",
        "ICOUNT.1.16 vs ICOUNT.2.X, ILP workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **Figure 7** — memory-bounded workloads (MIX & MEM), `1.8` vs `2.8`.
pub fn figure7(len: RunLength, jobs: Jobs) -> Experiment {
    let results = matrix(
        "figure7",
        &Workload::mem_suite(),
        &engines(),
        &[FetchPolicy::icount(1, 8), FetchPolicy::icount(2, 8)],
        len,
        jobs,
    );
    experiment(
        "figure7",
        "ICOUNT.1.8 vs ICOUNT.2.8, memory-bounded workloads",
        results,
        &[Metric::Ipfc, Metric::Ipc],
    )
}

/// **Figure 8** — memory-bounded workloads, `1.8` vs `1.16` vs `2.16`.
pub fn figure8(len: RunLength, jobs: Jobs) -> Experiment {
    let results = matrix(
        "figure8",
        &Workload::mem_suite(),
        &engines(),
        &[
            FetchPolicy::icount(1, 8),
            FetchPolicy::icount(1, 16),
            FetchPolicy::icount(2, 16),
        ],
        len,
        jobs,
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
pub fn superscalar(len: RunLength, jobs: Jobs) -> Experiment {
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
    let sweep = sweep_cells(
        cells.len(),
        jobs,
        len.measure_cycles,
        |i| {
            let (pi, e) = cells[i];
            format!("{} {} ICOUNT.1.16", profiles[pi].name, e)
        },
        |i| {
            let (pi, e) = cells[i];
            let mut r = run(&workloads[pi], e, FetchPolicy::icount(1, 16), len);
            r.workload = profiles[pi].name.to_string();
            r
        },
    );
    report_progress("superscalar", &sweep.stats);
    let results = sweep.results;
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

/// All experiments in paper order, sweeping on `jobs` workers.
pub fn all(len: RunLength, jobs: Jobs) -> Vec<Experiment> {
    vec![
        table1(jobs),
        table2(),
        table3(),
        figure2(len, jobs),
        figure4(len, jobs),
        figure5(len, jobs),
        figure6(len, jobs),
        figure7(len, jobs),
        figure8(len, jobs),
        superscalar(len, jobs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_without_simulation() {
        let t1 = table1(Jobs::SERIAL);
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
    fn table1_is_jobs_invariant() {
        let serial = table1(Jobs::SERIAL);
        let parallel = table1(Jobs::new(4).expect("valid"));
        assert_eq!(serial.text, parallel.text);
        assert_eq!(serial.markdown, parallel.markdown);
    }

    #[test]
    fn figure2_runs_smoke() {
        let e = figure2(RunLength::SMOKE, Jobs::SERIAL);
        assert_eq!(e.results.len(), 2);
        assert!(e.text.contains("ICOUNT.1.8"));
        assert!(e.text.contains("fetch-width distribution"));
        assert!(e.results.iter().all(|r| r.ipfc > 0.0));
    }

    #[test]
    fn figure5_covers_ilp_suite() {
        let e = figure5(RunLength::SMOKE, Jobs::new(2).expect("valid"));
        // 4 workloads × 2 policies × 3 engines.
        assert_eq!(e.results.len(), 24);
        let names: std::collections::BTreeSet<_> =
            e.results.iter().map(|r| r.workload.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(e.text.contains("(IPFC)"));
        assert!(e.text.contains("(IPC)"));
    }
}
