//! Text rendering of experiment results: aligned tables and ASCII bar
//! charts shaped like the paper's grouped-bar figures.

use crate::runner::RunResult;

/// Which metric a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Fetch throughput, instructions per fetch cycle (the "(a)" panels).
    Ipfc,
    /// Commit throughput, instructions per cycle (the "(b)" panels).
    Ipc,
}

impl Metric {
    /// The metric's value in a result.
    pub fn of(self, r: &RunResult) -> f64 {
        match self {
            Metric::Ipfc => r.ipfc,
            Metric::Ipc => r.ipc,
        }
    }

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Ipfc => "Fetch Throughput (IPFC)",
            Metric::Ipc => "Commit Throughput (IPC)",
        }
    }
}

/// Renders a grouped-bar panel like the paper's figures: rows grouped by
/// `(workload, policy)`, one bar per engine.
pub fn render_grouped_bars(title: &str, results: &[RunResult], metric: Metric) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{}\n", metric.label()));
    let max = results
        .iter()
        .map(|r| metric.of(r))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let scale = 44.0 / max;
    let mut last_group = String::new();
    for r in results {
        let group = format!("{} {}", r.workload, r.policy);
        if group != last_group {
            out.push_str(&format!("  {group}\n"));
            last_group = group;
        }
        let v = metric.of(r);
        #[expect(clippy::cast_possible_truncation, reason = "v ≤ max, so bar ≤ 44")]
        let bar = "#".repeat((v * scale).round() as usize);
        out.push_str(&format!("    {:<11} {:>5.2} |{bar}\n", r.engine, v));
    }
    out
}

/// Renders a plain aligned table of the given columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders results as a markdown table with IPFC and IPC columns
/// (for EXPERIMENTS.md).
pub fn render_markdown(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("| workload | policy | engine | IPFC | IPC | branch acc | wrong-path |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for r in results {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.2} | {:.1}% | {:.1}% |\n",
            r.workload,
            r.policy,
            r.engine,
            r.ipfc,
            r.ipc,
            r.branch_accuracy * 100.0,
            r.wrong_path * 100.0
        ));
    }
    out
}

/// Renders the per-thread stall attribution of a run as an aligned table:
/// one row per thread, each bucket as a percentage of measured cycles. The
/// buckets partition every cycle (the core charges exactly one cause per
/// thread per cycle), so each row sums to 100% up to rounding; `useful` is
/// the unstalled residual.
pub fn render_stall_breakdown(title: &str, stats: &smt_core::SimStats, threads: usize) -> String {
    let pct = |v: u64| -> String {
        if stats.cycles == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", v as f64 / stats.cycles as f64 * 100.0)
        }
    };
    let s = &stats.stalls;
    let rows: Vec<Vec<String>> = (0..threads)
        .map(|t| {
            vec![
                format!("T{t}"),
                stats.committed[t].to_string(),
                pct(s.icache_miss[t]),
                pct(s.bank_conflict[t]),
                pct(s.fetch_starved[t]),
                pct(s.rob_full[t]),
                pct(s.issue_width[t]),
                pct(s.dcache_miss[t]),
                pct(s.residual[t]),
            ]
        })
        .collect();
    let mut out = format!(
        "{title}: stall breakdown over {} cycles (%)\n",
        stats.cycles
    );
    out.push_str(&render_table(
        &[
            "thread",
            "committed",
            "icache",
            "bank",
            "starved",
            "rob-full",
            "issue",
            "dcache",
            "useful",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "skipped {} of {} cycles (mem-wait {}, issue-wait {}, ftq-wait {}, policy-idle {})\n",
        stats.skipped_cycles(),
        stats.cycles,
        stats.skip_mem_wait,
        stats.skip_issue_wait,
        stats.skip_ftq_wait,
        stats.skip_policy_idle,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(engine: &str, ipfc: f64, ipc: f64) -> RunResult {
        RunResult {
            workload: "2_MIX".into(),
            engine: engine.into(),
            policy: "ICOUNT.1.8".into(),
            ipfc,
            ipc,
            branch_accuracy: 0.94,
            wrong_path: 0.1,
            frac_ge4: 0.5,
            frac_ge8: 0.3,
            frac_eq8: 0.3,
            frac_ge16: 0.0,
            per_thread_ipc: vec![ipc / 2.0, ipc / 2.0],
            fairness: 1.0,
        }
    }

    #[test]
    fn bars_scale_to_max() {
        let rs = vec![result("gshare+BTB", 4.0, 2.0), result("stream", 8.0, 3.0)];
        let s = render_grouped_bars("Figure X", &rs, Metric::Ipfc);
        assert!(s.contains("Figure X"));
        assert!(s.contains("gshare+BTB"));
        // The max bar is 44 chars; the 4.0 bar is half.
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str| l.chars().filter(|&c| c == '#').count();
        let gshare = lines.iter().find(|l| l.contains("gshare")).unwrap();
        let stream = lines.iter().find(|l| l.contains("stream")).unwrap();
        assert_eq!(count(stream), 44);
        assert_eq!(count(gshare), 22);
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn stall_breakdown_rows_cover_requested_threads() {
        let mut stats = smt_core::SimStats {
            cycles: 1_000,
            ..Default::default()
        };
        stats.committed[0] = 1_500;
        stats.committed[1] = 500;
        stats.stalls.dcache_miss[0] = 250;
        stats.stalls.residual[0] = 750;
        stats.stalls.rob_full[1] = 1_000;
        stats.skip_mem_wait = 180;
        stats.skip_policy_idle = 20;
        let s = render_stall_breakdown("2_MIX / stream / ICOUNT.2.8", &stats, 2);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("1000 cycles"));
        // Title + header + rule + one row per thread + skip footer, nothing
        // for inactive threads.
        assert_eq!(lines.len(), 6);
        let t0 = lines[3];
        assert!(t0.starts_with("T0"), "{t0:?}");
        assert!(t0.contains("25.0") && t0.contains("75.0"), "{t0:?}");
        let t1 = lines[4];
        assert!(t1.contains("100.0"), "{t1:?}");
        assert_eq!(
            lines[5],
            "skipped 200 of 1000 cycles (mem-wait 180, issue-wait 0, \
             ftq-wait 0, policy-idle 20)"
        );
    }

    #[test]
    fn stall_breakdown_handles_zero_cycles() {
        let stats = smt_core::SimStats::default();
        let s = render_stall_breakdown("empty", &stats, 1);
        assert!(s.lines().nth(3).unwrap().contains('-'));
    }

    #[test]
    fn markdown_has_one_row_per_result() {
        let rs = vec![result("gshare+BTB", 4.0, 2.0), result("stream", 8.0, 3.0)];
        let md = render_markdown(&rs);
        assert_eq!(md.lines().count(), 4);
        assert!(md.contains("| 2_MIX | ICOUNT.1.8 | stream | 8.00 | 3.00 |"));
    }
}
