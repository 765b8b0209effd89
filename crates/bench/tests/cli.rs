//! Command-line input errors: each malformed invocation of `repro` must
//! fail fast with a one-line stderr message and a non-zero exit, before
//! any experiment runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Assert the invocation was rejected: non-zero exit, nothing on stdout,
/// exactly one stderr line mentioning `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0; stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(stderr.lines().count(), 1, "{args:?} stderr: {stderr}");
    assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
}

#[test]
fn unknown_experiment_is_rejected() {
    assert_rejected(&["nosuchexp"], "unknown experiment 'nosuchexp'");
}

#[test]
fn non_numeric_tenant_list_is_rejected() {
    assert_rejected(
        &["e12", "--tenants", "abc"],
        "invalid --tenants value 'abc'",
    );
}

#[test]
fn one_bad_tenant_element_rejects_the_list() {
    assert_rejected(
        &["e12", "--tenants", "1,abc"],
        "invalid --tenants value '1,abc'",
    );
}

#[test]
fn zero_tenants_is_rejected() {
    assert_rejected(&["e12", "--tenants=0"], "invalid --tenants value '0'");
}

#[test]
fn missing_or_non_numeric_thread_count_is_rejected() {
    assert_rejected(&["e2", "--threads"], "--threads needs a worker count");
    assert_rejected(
        &["e2", "--threads", "many"],
        "invalid --threads value 'many'",
    );
}
