//! Beyond the paper: fetch-policy comparison on memory-bounded workloads.
//!
//! The paper's conclusion calls for "future fetch policy proposals ...
//! targeted to exploiting the fetch potential provided by a high bandwidth
//! fetch unit fetching from a single thread". This experiment compares the
//! paper's configurations against the other classic policies — BRCOUNT and
//! MISSCOUNT (Tullsen et al., ISCA'96) and the STALL / FLUSH long-latency
//! mechanisms (Tullsen & Brown, MICRO 2001, the paper's reference \[21\]) —
//! reporting both raw throughput and fairness (min/max per-thread IPC):
//! STALL and FLUSH buy their throughput by starving the memory-bound
//! thread, while the paper's ICOUNT.1.X keeps it alive.

use smt_core::{FetchEngineKind, FetchPolicy};
use smt_experiments::{render_table, run_matrix, RunLength};
use smt_workloads::Workload;

fn main() {
    smt_experiments::preflight_default();
    let len = RunLength::from_env();
    let engine = FetchEngineKind::GskewFtb;
    let policies: Vec<FetchPolicy> = vec![
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
    // One sweep over the whole workload × policy matrix; results come back
    // workload-major, policy order within each workload.
    let results = run_matrix(&workloads, &[engine], &policies, len);
    println!("fetch policies on gskew+FTB (throughput vs fairness)\n");
    for (w, chunk) in workloads.iter().zip(results.chunks(policies.len())) {
        let mut rows = Vec::new();
        for r in chunk {
            let per: Vec<String> = r.per_thread_ipc.iter().map(|v| format!("{v:.2}")).collect();
            rows.push(vec![
                r.policy.clone(),
                format!("{:.2}", r.ipc),
                format!("{:.2}", r.fairness),
                per.join("/"),
            ]);
        }
        println!("== {}", w.name());
        println!(
            "{}",
            render_table(&["policy", "IPC", "fairness", "per-thread IPC"], &rows)
        );
    }
    println!(
        "STALL/FLUSH maximize raw IPC by starving the clogging thread;\n\
         the paper's single-thread wide fetch keeps every thread progressing."
    );
}
