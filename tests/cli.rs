//! The `smtfetch` binary turns bad input into a diagnostic and exit code 2,
//! never a panic.

use std::process::Command;

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
