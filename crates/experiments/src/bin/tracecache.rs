//! Beyond the paper's figures: the trace-cache comparison its related work
//! cites — "[the stream fetch] is only 1.5% lower than using a trace cache
//! mechanism, but with much lower complexity" (§2/§3.3).
//!
//! Compares all three paper engines plus a trace cache (512 lines × 16
//! instructions, path-associative, gshare+BTB core fetch) on the ILP suite
//! at ICOUNT.1.16, where fetch bandwidth is the binding constraint.

use smt_core::{FetchEngineKind, FetchPolicy};
use smt_experiments::{render_table, run_matrix, RunLength};
use smt_workloads::Workload;

fn main() {
    smt_experiments::preflight_default();
    let len = RunLength::from_env();
    let policy = FetchPolicy::icount(1, 16);
    let workloads = Workload::ilp_suite();
    let engines = FetchEngineKind::all_with_trace_cache();
    // One sweep over the whole matrix; chunks come back per workload with
    // the engines in order.
    let results = run_matrix(&workloads, &engines, &[policy], len);
    println!("trace-cache comparison, ICOUNT.1.16 on ILP workloads\n");
    for (w, chunk) in workloads.iter().zip(results.chunks(engines.len())) {
        let mut rows = Vec::new();
        let mut stream_ipc = 0.0;
        let mut tc_ipc = 0.0;
        for r in chunk {
            if r.engine == FetchEngineKind::Stream.to_string() {
                stream_ipc = r.ipc;
            }
            if r.engine == FetchEngineKind::TraceCache.to_string() {
                tc_ipc = r.ipc;
            }
            rows.push(vec![
                r.engine.clone(),
                format!("{:.2}", r.ipfc),
                format!("{:.2}", r.ipc),
                format!("{:.1}%", r.wrong_path * 100.0),
            ]);
        }
        println!("== {}", w.name());
        println!(
            "{}",
            render_table(&["engine", "IPFC", "IPC", "wrong-path"], &rows)
        );
        println!(
            "   stream vs trace cache: {:+.1}% IPC (paper: stream ~1.5% below)\n",
            (stream_ipc / tc_ipc - 1.0) * 100.0
        );
    }
}
