//! One experiment definition per table and figure of the paper, plus the
//! three beyond-the-paper studies, and the registry the `all` binary runs.

use smt_core::{FetchEngineKind, FetchPolicy, SimConfig};
use smt_workloads::{BenchmarkProfile, DynStats, Walker, Workload, WorkloadClass};

use crate::report::{
    render_grouped_bars, render_markdown, render_markdown_table, render_table, Metric,
};
use crate::runner::{run, run_matrix, run_with_config, RunLength, RunResult, EXP_SEED};
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
    let rows: Vec<Vec<String>> = profiles
        .iter()
        .zip(&streams)
        .map(|(p, s)| {
            vec![
                p.name.to_string(),
                format!("{:.2}", p.avg_bb_size),
                format!("{:.2}", s.avg_bb_size()),
                format!("{:.2}", s.taken_rate()),
                format!("{:.1}", s.avg_stream_len()),
            ]
        })
        .collect();
    table_experiment(
        "table1",
        "SPECint2000 characteristics: paper's avg basic-block size vs the synthetic clones",
        &[
            "benchmark",
            "paper avg BB",
            "clone avg BB",
            "taken rate",
            "avg stream",
        ],
        &rows,
    )
}

/// An experiment that is one table, rendered as text and as markdown.
fn table_experiment(
    id: &'static str,
    caption: &'static str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> Experiment {
    Experiment {
        id,
        caption,
        text: render_table(headers, rows),
        markdown: render_markdown_table(headers, rows),
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
    table_experiment(
        "table2",
        "Multithreaded workloads",
        &["workload", "class", "benchmarks"],
        &rows,
    )
}

/// **Table 3** — simulation parameters in force.
pub fn table3() -> Experiment {
    use smt_bpred::{Btb, Dolc, Ftb, Gshare, Gskew, ReturnStack, StreamPredictor as Sp};
    use smt_core::{GshareBtb, GskewFtb, DECODE_WIDTH, FU_COUNTS, IQ_SIZES, REGS_FP, REGS_INT};
    use smt_mem::{CacheConfig, MemoryHierarchy, Tlb};

    // One row describes both target buffers.
    const _: () = assert!(
        Btb::HPCA2004_ENTRIES == Ftb::HPCA2004_ENTRIES && Btb::HPCA2004_WAYS == Ftb::HPCA2004_WAYS
    );
    let c = SimConfig::default();
    let (gshare, gshare_hist) = (Gshare::HPCA2004_ENTRIES >> 10, GshareBtb::HIST_BITS);
    let (gskew, gskew_hist) = (Gskew::HPCA2004_ENTRIES_PER_BANK >> 10, GskewFtb::HIST_BITS);
    let (btb, btb_ways) = (Btb::HPCA2004_ENTRIES >> 10, Btb::HPCA2004_WAYS);
    let (s1, s2) = (Sp::HPCA2004_L1_ENTRIES >> 10, Sp::HPCA2004_L2_ENTRIES >> 10);
    let Dolc {
        depth,
        older_bits,
        last_bits,
        current_bits,
    } = Dolc::HPCA2004;
    let [fu_int, fu_ls, fu_fp] = FU_COUNTS;
    let (l1, l2) = (CacheConfig::HPCA2004_L1, CacheConfig::HPCA2004_L2);
    let (kb, ways, banks, line) = (l1.size_bytes >> 10, l1.ways, l1.banks, l1.line_bytes);
    let l1 = format!("{kb}KB, {ways}-way, {banks} banks, {line}B lines");
    let (itlb, dtlb) = (Tlb::HPCA2004_ITLB_ENTRIES, Tlb::HPCA2004_DTLB_ENTRIES);
    let rows: Vec<Vec<String>> = [
        ("Fetch width", "8/16 instr.".to_string()),
        ("Fetch policy", "ICOUNT".to_string()),
        ("Fetch buffer", format!("{} instr.", c.fetch_buffer)),
        ("Dec. & Ren. width", format!("{DECODE_WIDTH} instr.")),
        ("Gshare", format!("{gshare}K-entry, {gshare_hist} bits history")),
        ("Gskew", format!("3 x {gskew}K-entry, {gskew_hist} bits history")),
        ("BTB/FTB", format!("{btb}K-entry, {btb_ways}-way")),
        (
            "Stream predictor",
            format!(
                "{s1}K-entry,{w}w + {s2}K-entry,{w}w; DOLC {depth}-{older_bits}-{last_bits}-{current_bits}",
                w = Sp::HPCA2004_WAYS
            ),
        ),
        ("RAS (per thread)", format!("{}-entry", ReturnStack::HPCA2004_DEPTH)),
        ("FTQ (per thread)", format!("{}-entry", c.ftq_depth)),
        ("Functional units", format!("{fu_int} int, {fu_ls} ld/st, {fu_fp} fp")),
        ("Instruction queues", format!("{}-entry int/ld-st/fp", IQ_SIZES[0])),
        ("Reorder buffer", format!("{}-entry", smt_core::ROB_SIZE)),
        ("Physical registers", format!("{REGS_INT} int + {REGS_FP} fp")),
        ("L1 I-cache", l1.clone()),
        ("L1 D-cache", l1),
        (
            "L2 cache",
            format!(
                "{}MB, {}-way, {} banks, {} cyc.",
                l2.size_bytes >> 20,
                l2.ways,
                l2.banks,
                l2.hit_latency
            ),
        ),
        ("TLB", format!("{itlb}-entry I + {dtlb}-entry D")),
        ("Main memory", format!("{} cycles", MemoryHierarchy::HPCA2004_MEMORY_LATENCY)),
    ]
    .into_iter()
    .map(|(resource, value)| vec![resource.to_string(), value])
    .collect();
    table_experiment(
        "table3",
        "Simulation parameters (Table 3)",
        &["resource", "value"],
        &rows,
    )
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

/// One text table and one markdown table per workload, each followed by
/// `note` of that workload's results. `results` holds `per_workload`
/// consecutive results for each workload, in order (the [`run_matrix`]
/// nesting when the workload is the outer axis).
fn per_workload_tables(
    workloads: &[Workload],
    results: &[RunResult],
    per_workload: usize,
    headers: &[&str],
    row: impl Fn(&RunResult) -> Vec<String>,
    note: impl Fn(&[RunResult]) -> String,
) -> (String, String) {
    let (mut text, mut md) = (String::new(), String::new());
    for (w, chunk) in workloads.iter().zip(results.chunks(per_workload)) {
        let rows: Vec<Vec<String>> = chunk.iter().map(&row).collect();
        let note = note(chunk);
        text.push_str(&format!(
            "== {}\n{}\n{note}",
            w.name(),
            render_table(headers, &rows)
        ));
        md.push_str(&format!(
            "**{}**\n\n{}\n{note}",
            w.name(),
            render_markdown_table(headers, &rows)
        ));
    }
    (text, md)
}

/// **Beyond the paper: trace cache** — the comparison the paper's related
/// work cites: "[the stream fetch] is only 1.5% lower than using a trace
/// cache mechanism, but with much lower complexity" (§2/§3.3).
///
/// All three paper engines plus a trace cache (512 lines × 16 instructions,
/// path-associative, gshare+BTB core fetch) on the ILP suite at
/// ICOUNT.1.16, where fetch bandwidth is the binding constraint.
pub fn tracecache(len: RunLength) -> Experiment {
    let workloads = Workload::ilp_suite();
    let engines = FetchEngineKind::all_with_trace_cache();
    let results = run_matrix(&workloads, &engines, &[FetchPolicy::icount(1, 16)], len);
    let (text, markdown) = per_workload_tables(
        &workloads,
        &results,
        engines.len(),
        &["engine", "IPFC", "IPC", "wrong-path"],
        |r| {
            vec![
                r.engine.clone(),
                format!("{:.2}", r.ipfc),
                format!("{:.2}", r.ipc),
                format!("{:.1}%", r.wrong_path * 100.0),
            ]
        },
        |chunk| {
            let ipc = |e: FetchEngineKind| {
                chunk
                    .iter()
                    .find(|r| r.engine == e.to_string())
                    .map_or(0.0, |r| r.ipc)
            };
            format!(
                "   stream vs trace cache: {:+.1}% IPC (paper: stream ~1.5% below)\n\n",
                (ipc(FetchEngineKind::Stream) / ipc(FetchEngineKind::TraceCache) - 1.0) * 100.0
            )
        },
    );
    Experiment {
        id: "tracecache",
        caption: "Stream fetch vs a trace cache, ICOUNT.1.16 on ILP workloads (beyond the paper)",
        text,
        markdown,
        results,
    }
}

/// **Beyond the paper: fetch policies** — the study the paper's conclusion
/// calls for ("future fetch policy proposals ... targeted to exploiting the
/// fetch potential provided by a high bandwidth fetch unit fetching from a
/// single thread").
///
/// The paper's configurations against the other classic policies —
/// BRCOUNT and MISSCOUNT (Tullsen et al., ISCA'96) and the STALL / FLUSH
/// long-latency mechanisms (Tullsen & Brown, MICRO 2001, the paper's
/// reference \[21\]) — on gskew+FTB, reporting raw throughput and fairness
/// (min/max per-thread IPC): STALL and FLUSH buy their throughput by
/// starving the memory-bound thread, while the paper's ICOUNT.1.X keeps it
/// alive.
pub fn policies(len: RunLength) -> Experiment {
    let policies = [
        FetchPolicy::icount(1, 8),
        FetchPolicy::icount(1, 16),
        FetchPolicy::icount(2, 8),
        FetchPolicy::br_count(2, 8),
        FetchPolicy::miss_count(2, 8),
        FetchPolicy::icount(2, 8).with_stall(),
        FetchPolicy::icount(2, 8).with_flush(),
        FetchPolicy::icount(1, 16).with_stall(),
    ];
    let workloads = [Workload::mix2(), Workload::mix4(), Workload::mem4()];
    let results = run_matrix(&workloads, &[FetchEngineKind::GskewFtb], &policies, len);
    let (mut text, mut markdown) = per_workload_tables(
        &workloads,
        &results,
        policies.len(),
        &["policy", "IPC", "fairness", "per-thread IPC"],
        |r| {
            let per: Vec<String> = r.per_thread_ipc.iter().map(|v| format!("{v:.2}")).collect();
            vec![
                r.policy.clone(),
                format!("{:.2}", r.ipc),
                format!("{:.2}", r.fairness),
                per.join("/"),
            ]
        },
        |_| String::new(),
    );
    let note = "STALL/FLUSH maximize raw IPC by starving the clogging thread;\n\
                the paper's single-thread wide fetch keeps every thread progressing.\n";
    text.push_str(note);
    markdown.push_str(note);
    Experiment {
        id: "policies",
        caption: "Fetch policies on gskew+FTB: throughput vs fairness (beyond the paper)",
        text,
        markdown,
        results,
    }
}

/// **Beyond the paper: ablations** of the design choices DESIGN.md calls
/// out — FTQ depth, fetch-buffer size, stream-length cap and FTB block cap
/// — on 4_ILP at ICOUNT.1.16: how sensitive the paper's conclusions are to
/// the secondary parameters of the decoupled front-end.
pub fn ablations(len: RunLength) -> Experiment {
    let w = Workload::ilp4();
    let base = SimConfig::hpca2004(FetchPolicy::icount(1, 16));
    let (stream, gskew) = (FetchEngineKind::Stream, FetchEngineKind::GskewFtb);
    let mut cells: Vec<(String, FetchEngineKind, SimConfig)> = Vec::new();
    for v in [1, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.ftq_depth = v;
        cells.push((format!("FTQ depth {v}"), stream, cfg));
    }
    for v in [16, 32, 64] {
        let mut cfg = base.clone();
        cfg.fetch_buffer = v;
        cells.push((format!("fetch buffer {v}"), stream, cfg));
    }
    for v in [16, 32, 64, 128] {
        let mut cfg = base.clone();
        cfg.max_stream = v;
        cells.push((format!("stream cap {v}"), stream, cfg));
    }
    for v in [8, 16, 32] {
        let mut cfg = base.clone();
        cfg.max_ftb_block = v;
        cells.push((format!("FTB block cap {v}"), gskew, cfg));
    }
    let results = sweep_indexed(cells.len(), |i| {
        let (_, engine, cfg) = &cells[i];
        run_with_config(&w, *engine, cfg.clone(), len)
    });
    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&results)
        .map(|((knob, _, _), r)| {
            vec![
                knob.clone(),
                r.engine.clone(),
                format!("{:.2}", r.ipfc),
                format!("{:.2}", r.ipc),
            ]
        })
        .collect();
    let mut e = table_experiment(
        "ablations",
        "Decoupled front-end ablations on 4_ILP with ICOUNT.1.16 (beyond the paper)",
        &["knob", "engine", "IPFC", "IPC"],
        &rows,
    );
    let note = "\nThe decoupled front-end is robust: a 2-deep FTQ already buys most of\n\
                the latency tolerance, and fetch-block caps mainly trade fetch\n\
                throughput against wrong-path depth.\n";
    e.text.push_str(note);
    e.markdown.push_str(note);
    e.results = results;
    e
}

/// Runs one experiment at a run length (the tables ignore it).
pub type Runner = fn(RunLength) -> Experiment;

/// Every experiment, by ID: the paper's artifacts in paper order, then the
/// three beyond-the-paper studies.
const EXPERIMENTS: [(&str, Runner); 13] = [
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
    ("tracecache", tracecache),
    ("policies", policies),
    ("ablations", ablations),
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
            err.contains(
                "table1, table2, table3, figure2, figure4, figure5, figure6, figure7, figure8, \
                 superscalar, tracecache, policies, ablations"
            ),
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

    #[test]
    fn beyond_the_paper_studies_run_smoke() {
        let p = policies(RunLength::SMOKE);
        // 3 workloads × 8 policies on gskew+FTB.
        assert_eq!(p.results.len(), 24);
        let t = tracecache(RunLength::SMOKE);
        // 4 ILP workloads × 4 engines.
        assert_eq!(t.results.len(), 16);
        let sections: Vec<&str> = t.text.split("== ").skip(1).collect();
        assert_eq!(sections.len(), 4);
        for (w, section) in Workload::ilp_suite().iter().zip(sections) {
            assert!(section.starts_with(w.name()), "{section}");
            assert!(section.contains("stream vs trace cache: "), "{section}");
        }
        let a = ablations(RunLength::SMOKE);
        // 4 FTQ depths + 3 buffers + 4 stream caps + 3 FTB caps.
        assert_eq!(a.results.len(), 14);
        for e in [&p, &t, &a] {
            assert!(!e.markdown.is_empty(), "{}", e.id);
            assert!(e.results.iter().all(|r| r.ipc > 0.0), "{}", e.id);
        }
    }
}
