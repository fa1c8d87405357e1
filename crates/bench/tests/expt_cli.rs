//! `expt`'s argument errors: each prints the usage and exits 2 before any
//! experiment runs, so none of these cases costs more than a process start.

use std::process::{Command, Output};

fn expt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(args)
        .output()
        .expect("expt starts")
}

fn assert_usage_error(args: &[&str]) {
    let out = expt(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "expt {args:?}: {stderr}");
    assert!(stderr.contains("usage: expt"), "expt {args:?}: {stderr}");
    assert!(
        !stderr.contains(">> running"),
        "expt {args:?} ran: {stderr}"
    );
    assert!(out.stdout.is_empty(), "expt {args:?} printed a table");
}

#[test]
fn no_experiment_named_is_a_usage_error() {
    assert_usage_error(&[]);
    assert_usage_error(&["--quick"]);
    // Nothing to write, so the output directory is not created either.
    let dir = std::env::temp_dir().join(format!("expt-cli-no-id-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    assert_usage_error(&["--json", dir_arg]);
    assert!(!dir.exists(), "{} created", dir.display());
}

#[test]
fn json_without_a_path_is_a_usage_error() {
    assert_usage_error(&["fig13", "--quick", "--json"]);
    assert_usage_error(&["fig13", "--json", "--quick"]);
}

#[test]
fn markdown_without_a_path_is_a_usage_error() {
    assert_usage_error(&["fig13", "--quick", "--markdown"]);
    assert_usage_error(&["fig13", "--markdown", "--quick"]);
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["fig99", "--quick"]);
    assert_usage_error(&["scan", "--quick"]);
}
