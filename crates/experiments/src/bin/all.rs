//! Regenerates the paper's tables and figures.
//!
//! `all` runs every experiment, prints its report and writes a markdown
//! report to `target/experiments.md`. `all ID…` (e.g. `all figure7 table1`)
//! runs and prints only the named experiments; an unknown ID exits with
//! status 2 and lists the valid ones. A reader that closes the pipe early
//! (`all | head`) ends the run quietly, before the markdown report.
use std::io::{self, Write};
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
    match run(&experiments, ids.is_empty(), &mut io::stdout().lock()) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("all: writing the report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs and prints `experiments`, then, for a full run, writes the markdown
/// report; `Err` is a failed write to `out`.
fn run(
    experiments: &[(&str, figures::Runner)],
    full: bool,
    out: &mut impl Write,
) -> io::Result<ExitCode> {
    let len = RunLength::from_env();
    let mut md = String::from("# Regenerated evaluation artifacts\n\n");
    for (_, runner) in experiments {
        let e = runner(len);
        writeln!(out, "==== {} — {}\n", e.id, e.caption)?;
        writeln!(out, "{}", e.text)?;
        md.push_str(&format!("## {} — {}\n\n{}\n", e.id, e.caption, e.markdown));
    }
    if !full {
        return Ok(ExitCode::SUCCESS);
    }
    match std::fs::write(REPORT_PATH, md) {
        Ok(()) => {
            writeln!(out, "markdown report written to {REPORT_PATH}")?;
            Ok(ExitCode::SUCCESS)
        }
        Err(err) => {
            eprintln!("all: could not write {REPORT_PATH}: {err}");
            Ok(ExitCode::FAILURE)
        }
    }
}
