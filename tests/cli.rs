//! The `smtfetch` binary turns bad input into a diagnostic and exit code 2,
//! never a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use smtfetch::core::{FetchEngineKind, PolicyKind};

#[test]
fn malformed_fetch_policy_exits_2_without_panicking() {
    for args in [&["--width", "0"][..], &["-n", "0"], &["-n", "3"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_smtfetch"))
            .args(args)
            .output()
            .expect("run smtfetch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(
            stderr.contains("E0004"),
            "{args:?}: no diagnostic:\n{stderr}"
        );
    }
}

#[test]
fn unknown_engine_or_policy_name_exits_2_without_panicking() {
    for (args, code) in [
        (["--engine", "frobnicator"], "E0016"),
        (["--policy", "frobnicator"], "E0017"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_smtfetch"))
            .args(args)
            .output()
            .expect("run smtfetch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(stderr.contains(code), "{args:?}: no {code}:\n{stderr}");
    }
}

#[test]
fn cli_spellings_parse_through_from_str() {
    assert_eq!(
        "gshare".parse::<FetchEngineKind>().ok(),
        Some(FetchEngineKind::GshareBtb)
    );
    assert_eq!(
        "tc".parse::<FetchEngineKind>().ok(),
        Some(FetchEngineKind::TraceCache)
    );
    assert_eq!(
        "rr".parse::<PolicyKind>().ok(),
        Some(PolicyKind::RoundRobin)
    );
}

#[test]
fn every_run_reports_a_per_thread_stall_breakdown() {
    let out = Command::new(env!("CARGO_BIN_EXE_smtfetch"))
        .args(["-w", "4_MIX", "-c", "2000", "--warmup", "500"])
        .output()
        .expect("run smtfetch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(
        stdout.contains("4_MIX / stream / ICOUNT.1.16: stall breakdown over 2000 cycles (%)"),
        "no stall breakdown:\n{stdout}"
    );
    let header = stdout
        .lines()
        .find(|l| l.starts_with("thread"))
        .expect("stall table header");
    assert_eq!(
        header.split_whitespace().collect::<Vec<_>>(),
        [
            "thread",
            "committed",
            "icache",
            "bank",
            "starved",
            "rob-full",
            "issue",
            "dcache",
            "useful"
        ]
    );
    let rows: Vec<&str> = stdout.lines().filter(|l| l.starts_with('T')).collect();
    assert_eq!(rows.len(), 4, "one row per thread:\n{stdout}");
    for (t, row) in rows.iter().enumerate() {
        assert!(row.starts_with(&format!("T{t} ")), "{row}");
    }
}

/// A reader that closes the pipe after one line (`smtfetch … | head -1`)
/// ends the run quietly: no panic, no backtrace, no exit status 101.
#[test]
fn closed_stdout_ends_the_run_without_panicking() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_smtfetch"))
        .args(["-w", "gzip,twolf", "-c", "2000", "--warmup", "100"])
        .arg("--all-engines")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run smtfetch");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(first.contains("gzip"), "first line: {first}");
    // The reader above is dropped: the pipe is closed.
    let out = child.wait_with_output().expect("wait for smtfetch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
}
