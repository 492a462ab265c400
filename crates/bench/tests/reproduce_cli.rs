//! `reproduce` rejects bad input with usage and a nonzero status instead
//! of running something other than what was asked.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn assert_rejected(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(stderr.contains("usage: reproduce"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "no experiment may run before the input is validated"
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    let out = reproduce(&["table1", "no_such_experiment"]);
    assert_rejected(&out, "unknown experiment: no_such_experiment");
}

#[test]
fn misspelled_scale_is_rejected() {
    assert_rejected(
        &reproduce(&["table1", "--scale", "quik"]),
        "--scale takes full or quick",
    );
    assert_rejected(
        &reproduce(&["table1", "--scale"]),
        "--scale takes full or quick",
    );
    // The same command with a valid scale runs.
    assert!(reproduce(&["table1", "--scale", "quick"]).status.success());
}
