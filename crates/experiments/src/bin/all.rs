//! Regenerates the paper's tables and figures.
//!
//! `all` runs every experiment, prints its report and writes a markdown
//! report to `target/experiments.md`. `all ID…` (e.g. `all figure7 table1`)
//! runs and prints only the named experiments; an unknown ID exits with
//! status 2 and lists the valid ones.
use std::process::ExitCode;

use smt_experiments::{figures, RunLength};

const REPORT_PATH: &str = "target/experiments.md";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = args.iter().map(String::as_str).collect();
    let experiments = match figures::select(&ids) {
        Ok(experiments) => experiments,
        Err(err) => {
            eprintln!("all: {err}");
            return ExitCode::from(2);
        }
    };
    smt_experiments::preflight_default();
    let len = RunLength::from_env();
    let mut md = String::from("# Regenerated evaluation artifacts\n\n");
    for (_, runner) in experiments {
        let e = runner(len);
        println!("==== {} — {}\n", e.id, e.caption);
        println!("{}", e.text);
        md.push_str(&format!("## {} — {}\n\n{}\n", e.id, e.caption, e.markdown));
    }
    if !ids.is_empty() {
        return ExitCode::SUCCESS;
    }
    match std::fs::write(REPORT_PATH, md) {
        Ok(()) => {
            println!("markdown report written to {REPORT_PATH}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("all: could not write {REPORT_PATH}: {err}");
            ExitCode::FAILURE
        }
    }
}
